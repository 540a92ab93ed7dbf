"""Wi-Fi signatures: per-AP strength vectors built from raw scan readings.

A scan reading is one (timestamp, BSSID, RSSI) observation. Readings taken
during one stationary dwell are aggregated into a single signature: BSSIDs
that differ only in the last nibble of the MAC belong to the same physical
access point and are averaged together, and the averaged dBm value is mapped
to a non-negative strength so that absent APs contribute exactly zero to
similarity queries.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Sequence

# dBm level treated as "no signal"; strengths are dB above this floor.
STRENGTH_FLOOR_DBM = -100.0


class MacParseError(ValueError):
    """A BSSID string did not parse as six colon-separated hex octets."""


class EmptyScanWindow(ValueError):
    """A dwell window contained no scan readings."""


class EmptySignature(ValueError):
    """A similarity query received a signature with no entries."""


class NoSignatures(ValueError):
    """A dataset yields too few signatures: none to associate frames with, or under two to compare."""


@lru_cache(maxsize=4096)
def mask_bssid(bssid: str) -> str:
    """Zero the low nibble of the final octet, collapsing per-radio BSSIDs.

    One physical AP advertises several BSSIDs differing only in the last
    nibble; masking yields a stable AP identity. Idempotent.
    """
    parts = bssid.strip().split(":")
    if len(parts) != 6:
        raise MacParseError(f"malformed MAC {bssid!r}: expected six octets")
    octets = []
    for part in parts:
        if len(part) != 2:
            raise MacParseError(f"malformed MAC {bssid!r}: bad octet {part!r}")
        try:
            octets.append(int(part, 16))
        except ValueError:
            raise MacParseError(f"malformed MAC {bssid!r}: bad octet {part!r}") from None
    octets[5] &= 0xF0
    return ":".join(f"{o:02X}" for o in octets)


def strength_of(rssi_dbm: float) -> float:
    """Map dBm to a non-negative strength: dB above the -100 dBm floor, clamped at 0."""
    return max(0.0, rssi_dbm - STRENGTH_FLOOR_DBM)


@dataclass(frozen=True)
class ScanReading:
    """One beacon observation: when, from which BSSID, at what power."""

    timestamp: float
    bssid: str
    rssi: float

    def __post_init__(self) -> None:
        if self.rssi > 0:
            raise ValueError(f"rssi must be <= 0 dBm, got {self.rssi}")
        mask_bssid(self.bssid)  # validates format


@dataclass(frozen=True)
class Signature:
    """Per-AP strength vector collected during one dwell.

    ``entries`` maps masked AP ids to strengths and iterates in ascending
    ApId order so downstream consumers are deterministic. ``sum_sq`` is the
    sum of the squared strengths, kept for similarity queries.
    """

    entries: Mapping[str, float]
    collected_at: float
    pause_index: int
    sum_sq: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ordered = dict(sorted(self.entries.items()))
        for ap, s in ordered.items():
            if s < 0:
                raise ValueError(f"negative strength {s} for {ap}")
        object.__setattr__(self, "entries", ordered)
        object.__setattr__(self, "sum_sq", sum(s * s for s in ordered.values()))

    def __len__(self) -> int:
        return len(self.entries)


def signature_from_window(readings: Sequence[ScanReading], pause_index: int) -> Signature:
    """Aggregate one dwell's readings into a signature.

    Readings are grouped by masked BSSID, RSSI is averaged in dBm per AP
    and then converted to strength; ``collected_at`` is the mean timestamp.
    """
    if not readings:
        raise EmptyScanWindow(f"dwell {pause_index} has no scan readings")
    by_ap: dict[str, list[float]] = {}
    for r in readings:
        by_ap.setdefault(mask_bssid(r.bssid), []).append(r.rssi)
    entries = {ap: strength_of(sum(vals) / len(vals)) for ap, vals in by_ap.items()}
    t = sum(r.timestamp for r in readings) / len(readings)
    return Signature(entries=entries, collected_at=t, pause_index=pause_index)


def cosine_similarity(a: Signature, b: Signature) -> float:
    """Cosine similarity over the union of AP ids; absent APs count as zero.

    Returns a value in [0, 1] (strengths are non-negative), exactly 0.0 for
    disjoint AP sets and symmetric in its arguments.
    """
    if not a.entries or not b.entries:
        raise EmptySignature("cosine_similarity requires non-empty signatures")
    if min(a.sum_sq, b.sum_sq) < sys.float_info.min:
        # squares of strengths below ~1e-154 lose precision or vanish:
        # divide each vector by its largest strength, which leaves the cosine unchanged
        ma, mb = max(a.entries.values()), max(b.entries.values())
        if ma == 0.0 or mb == 0.0:
            return 0.0
        a = Signature({ap: s / ma for ap, s in a.entries.items()}, a.collected_at, a.pause_index)
        b = Signature({ap: s / mb for ap, s in b.entries.items()}, b.collected_at, b.pause_index)
        return cosine_similarity(a, b)
    dot = 0.0
    for ap, sa in a.entries.items():
        sb = b.entries.get(ap)
        if sb is not None:
            dot += sa * sb
    if dot == 0.0:
        return 0.0
    return min(1.0, dot / (a.sum_sq**0.5 * b.sum_sq**0.5))


def associate_frames(
    frames: Sequence[tuple[int, float]], signatures: Sequence[Signature]
) -> dict[int, Signature]:
    """Map each (frame_id, timestamp) to the latest signature collected at or before it.

    Frames that precede the first signature borrow it, so no frame is left
    unsensed. Both streams must be time-sorted.
    """
    if not signatures:
        raise NoSignatures("cannot associate frames without any signatures")
    times = [s.collected_at for s in signatures]
    if any(t1 > t2 for t1, t2 in zip(times, times[1:])):
        raise ValueError("signature stream is not time-sorted")
    out: dict[int, Signature] = {}
    for fid, t in frames:
        k = bisect_right(times, t) - 1
        out[fid] = signatures[max(k, 0)]
    return out
