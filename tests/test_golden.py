"""Golden output digests: the sha256 of every file the CLI writes for a fixed grid of
presets, seeds and run settings, regenerated and compared with ``tests/golden.json``.

The grid: every `gen` file for the 4 presets x seeds 0-2; every `run` file for the
4 presets x 3 policies x {gated, vanilla} on the seed-0 dataset, less ``timings.json``
and with ``report_row.csv``'s ``wall_ms`` blanked (both are wall-clock times); and the
`curve` and `localize` file of each preset's seed-0 dataset.

A change that moves any of these bytes is a behaviour change. Declare it, then rewrite
the file with ``PYTHONPATH=src python tests/test_golden.py`` and list the moved entries.
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path
from tempfile import TemporaryDirectory

from wifislam import gating, simworld
from wifislam.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
SEEDS = (0, 1, 2)
RUN_SEED = 0  # the dataset seed of the run, curve and localize entries
UNTIMED = "timings.json"


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "report_row.csv":  # its last column, wall_ms, is a wall-clock time
        header, *rows = data.decode().splitlines(keepends=True)
        assert header.rstrip("\r\n").endswith(",wall_ms"), header
        data = "".join([header, *(r[: r.rindex(",") + 1] + r[len(r.rstrip("\r\n")):] for r in rows)]).encode()
    return hashlib.sha256(data).hexdigest()


def _cli(*args) -> None:
    with redirect_stdout(StringIO()):
        code = main([str(a) for a in args])
    assert code == 0, args


def output_digests(root: Path) -> dict[str, str]:
    """Generate the grid's outputs under ``root``; sha256 per output, keyed by its path below ``root``."""
    for kind in ("curve", "localize"):
        (root / kind).mkdir()
    for preset in sorted(simworld.preset_worlds()):
        for seed in SEEDS:
            _cli("gen", "--world", preset, "--seed", seed, "--out", root / "gen" / preset / str(seed))
        dataset = root / "gen" / preset / str(RUN_SEED)
        for policy in gating.POLICIES:
            for gated in ("true", "false"):
                out = root / "run" / preset / policy / ("gated" if gated == "true" else "vanilla")
                _cli("run", "--dataset", dataset, "--out", out, "--policy", policy, "--gated", gated)
        _cli("curve", "--dataset", dataset, "--out", root / "curve" / f"{preset}.csv")
        _cli("localize", "--dataset", dataset, "--out", root / "localize" / f"{preset}.csv")
    return {
        p.relative_to(root).as_posix(): _digest(p)
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != UNTIMED
    }


def test_outputs_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    digests = output_digests(tmp_path)
    moved = sorted(k for k in golden.keys() & digests.keys() if golden[k] != digests[k])
    assert not moved, f"{len(moved)} outputs moved: {moved}"
    assert sorted(digests) == sorted(golden)
    assert len(golden) == 200


if __name__ == "__main__":  # rewrite golden.json from this tree's outputs
    with TemporaryDirectory() as tmp:
        digests = output_digests(Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}: {len(digests)} digests", file=sys.stderr)
