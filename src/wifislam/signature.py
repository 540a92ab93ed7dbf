"""Wi-Fi signatures: per-AP strength vectors built from raw scan readings.

A scan reading is one (timestamp, BSSID, RSSI) observation; a dataset holds all of
its readings as the columns of one `Scans`. A dwell's readings are aggregated into
one signature: BSSIDs that differ only in the last nibble of the MAC belong to the
same physical access point and are averaged together, and the averaged dBm value is
mapped to a non-negative strength so that absent APs add exactly zero to similarity.
Each signature is scaled to unit length once, when it is built, so a similarity is
one dot product over the shared APs.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

# dBm level treated as "no signal"; strengths are dB above this floor.
STRENGTH_FLOOR_DBM = -100.0


class MacParseError(ValueError):
    """A BSSID string did not parse as six colon-separated hex octets."""


class EmptySignature(ValueError):
    """A similarity query received a signature with no entries."""


class NoSignatures(ValueError):
    """A dataset yields too few signatures: none to associate frames with, or under two to compare."""


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
    """Map dBm to a non-negative strength: dB above the -100 dBm floor, clamped at 0.
    A NaN reading stays NaN, which `Signature` rejects."""
    return max(rssi_dbm - STRENGTH_FLOOR_DBM, 0.0)


@dataclass(frozen=True, eq=False)
class Scans:
    """Every scan reading of a dataset as columns: reading i heard BSSID ``bssids[bssid[i]]``
    at ``rssi[i]`` dBm, ``t[i]`` s, during dwell ``dwell[i]``. A dataset's are ordered by
    dwell and, within a dwell, as read. Two are equal when their readings are."""

    dwell: np.ndarray  # int
    t: np.ndarray
    bssid: np.ndarray  # int codes into ``bssids``
    rssi: np.ndarray
    bssids: Sequence[str]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Scans) and list(self.rows()) == list(other.rows())

    def rows(self) -> Iterator[tuple[float, str, float, int]]:
        """The readings as the rows of ``scans.csv``, in Python values: timestamp, BSSID, RSSI, dwell."""
        bssids = [self.bssids[code] for code in self.bssid.tolist()]
        return zip(self.t.tolist(), bssids, self.rssi.tolist(), self.dwell.tolist())


@dataclass(frozen=True)
class Signature:
    """Per-AP strength vector collected during one dwell.

    ``entries`` maps masked AP ids to finite, non-negative strengths and iterates
    in ascending ApId order so downstream consumers are deterministic. ``unit``
    holds the same entries scaled to Euclidean length 1 (all zeros when every
    strength is 0), kept for similarity queries.
    """

    entries: Mapping[str, float]
    collected_at: float
    pause_index: int
    unit: Mapping[str, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ordered = dict(sorted(self.entries.items()))
        for ap, s in ordered.items():
            if not 0.0 <= s < math.inf:
                raise ValueError(f"strength {s} for {ap} is not finite and non-negative")
        top = max(ordered.values(), default=0.0) or 1.0  # scale first: squares of tiny strengths underflow
        scaled = {ap: s / top for ap, s in ordered.items()}
        norm = math.sqrt(sum(x * x for x in scaled.values())) or 1.0
        object.__setattr__(self, "entries", ordered)
        object.__setattr__(self, "unit", {ap: x / norm for ap, x in scaled.items()})

    def __len__(self) -> int:
        return len(self.entries)


def signatures_of(scans: Scans) -> tuple[Signature, ...]:
    """One signature per dwell with readings, in dwell order: RSSI averaged in dBm per masked
    BSSID, then converted to strength; ``collected_at`` the mean timestamp. Every sum runs over
    the readings in order (`np.bincount`), as Python's ``sum`` does."""
    aps, ap_of = np.unique([mask_bssid(b) for b in scans.bssids], return_inverse=True)
    dwells, at = np.unique(scans.dwell, return_inverse=True)
    keys, group = np.unique(at * len(aps) + ap_of[scans.bssid], return_inverse=True)  # (dwell, AP) groups
    dbm = np.bincount(group, weights=scans.rssi) / np.bincount(group)
    times = np.bincount(at, weights=scans.t) / np.bincount(at)
    ends = np.searchsorted(keys // len(aps), np.arange(1, len(dwells) + 1)).tolist()
    aps = aps.tolist()  # one str per AP, shared by every signature's entries
    names, strengths = [aps[i] for i in (keys % len(aps)).tolist()], [strength_of(x) for x in dbm.tolist()]
    return tuple(Signature(dict(zip(names[a:b], strengths[a:b])), t, d)
                 for d, t, a, b in zip(dwells.tolist(), times.tolist(), [0, *ends], ends))


def cosine_similarity(a: Signature, b: Signature) -> float:
    """Cosine similarity over the union of AP ids; absent APs count as zero.

    The dot product of the two unit vectors, summed in ascending ApId order:
    a value in [0, 1] (strengths are non-negative), exactly 0.0 for disjoint AP
    sets or an all-zero signature, and exactly symmetric in its arguments.
    """
    if not a.entries or not b.entries:
        raise EmptySignature("cosine_similarity requires non-empty signatures")
    dot, bu = 0.0, b.unit
    for ap, x in a.unit.items():
        y = bu.get(ap)
        if y is not None:
            dot += x * y
    return min(1.0, dot)


def similarity_matrix(signatures: Sequence[Signature]) -> np.ndarray:
    """Every pair's `cosine_similarity` as one symmetric matrix, equal to the scalar bit for bit.

    The unit vectors are the rows of one dense matrix, an absent AP's entry 0.0. Each AP's
    products are added to every pair's sum in ascending ApId order, as the scalar adds them; an
    AP the two do not share adds 0.0, which leaves the sum unchanged.
    """
    if not all(s.entries for s in signatures):
        raise EmptySignature("similarity_matrix requires non-empty signatures")
    aps = sorted(set().union(*(s.unit for s in signatures)))
    col = {ap: k for k, ap in enumerate(aps)}
    units = np.zeros((len(aps), len(signatures)))  # one row per AP, one column per signature
    for j, s in enumerate(signatures):
        units[[col[ap] for ap in s.unit], j] = list(s.unit.values())
    dot = np.zeros((len(signatures), len(signatures)))
    for row in units:
        dot += np.multiply.outer(row, row)
    return np.minimum(dot, 1.0)


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
