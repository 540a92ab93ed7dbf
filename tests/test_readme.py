from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs(capsys):
    """The fenced Python block under the README's "Library use" heading runs as written."""
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    exec(compile(block, f"{README}:Library use", "exec"), {"__name__": "readme"})
    rmse_m, fn_pct, loop_cost = map(float, capsys.readouterr().out.split())
    assert rmse_m >= 0 and 0 <= fn_pct <= 100 and loop_cost > 0
