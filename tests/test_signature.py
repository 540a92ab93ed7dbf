from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wifislam import signature
from wifislam.signature import (
    EmptySignature,
    MacParseError,
    NoSignatures,
    Scans,
    Signature,
    associate_frames,
    cosine_similarity,
    mask_bssid,
    signatures_of,
    similarity_matrix,
    strength_of,
)
from wifislam.simworld import MAX_DWELLS


def sig(entries, t=0.0, pause=0):
    return Signature(entries=entries, collected_at=t, pause_index=pause)


def scans_of(rows):
    """Scans holding (timestamp, bssid, rssi, dwell) rows in the order given."""
    bssids = sorted({b for _, b, _, _ in rows})
    return Scans(
        dwell=np.array([d for *_, d in rows], dtype=np.int64),
        t=np.array([t for t, *_ in rows], dtype=float),
        bssid=np.array([bssids.index(b) for _, b, _, _ in rows], dtype=np.int64),
        rssi=np.array([r for _, _, r, _ in rows], dtype=float),
        bssids=tuple(bssids),
    )


def reference_signatures(rows):
    """The scalar aggregation the grouped one must equal: each dwell's readings in the order
    given, averaged per masked BSSID with Python's ``sum``; ``collected_at`` the mean time."""
    by_dwell = {}
    for t, bssid, rssi, d in rows:
        by_dwell.setdefault(d, []).append((t, bssid, rssi))
    out = []
    for d in sorted(by_dwell):
        readings = by_dwell[d]
        by_ap = {}
        for _, bssid, rssi in readings:
            by_ap.setdefault(mask_bssid(bssid), []).append(rssi)
        entries = {ap: strength_of(sum(vals) / len(vals)) for ap, vals in by_ap.items()}
        out.append(Signature(entries, sum(t for t, _, _ in readings) / len(readings), d))
    return tuple(out)


def exact(signatures):
    """Each signature as text, to compare byte for byte (type and sign of zero included)."""
    return [(s.pause_index, repr(s.collected_at), [(ap, repr(v)) for ap, v in s.entries.items()])
            for s in signatures]


class TestMaskBssid:
    def test_masks_low_nibble(self):
        assert mask_bssid("AA:BB:CC:DD:EE:F3") == "AA:BB:CC:DD:EE:F0"

    def test_fixed_point(self):
        assert mask_bssid("AA:BB:CC:DD:EE:F0") == "AA:BB:CC:DD:EE:F0"

    def test_same_ap_after_mask(self):
        assert mask_bssid("AA:BB:CC:DD:EE:F3") == mask_bssid("AA:BB:CC:DD:EE:FA")

    def test_case_normalized(self):
        assert mask_bssid("aa:bb:cc:dd:ee:f3") == "AA:BB:CC:DD:EE:F0"

    @pytest.mark.parametrize("bad", ["AA:BB:CC:DD:EE", "AA:BB:CC:DD:EE:GG", "nonsense", "AA:BB:CC:DD:EE:F3:00"])
    def test_malformed_raises_with_token(self, bad):
        with pytest.raises(MacParseError) as exc:
            mask_bssid(bad)
        assert bad in str(exc.value)

    @given(st.integers(min_value=0, max_value=2**48 - 1))
    def test_idempotent(self, mac_int):
        mac = ":".join(f"{(mac_int >> (8 * k)) & 0xFF:02X}" for k in reversed(range(6)))
        assert mask_bssid(mask_bssid(mac)) == mask_bssid(mac)


class TestStrengthOf:
    def test_floor(self):
        assert strength_of(-100.0) == 0.0

    def test_formula(self):
        assert strength_of(-40.0) == 60.0

    def test_clamped_below_floor(self):
        assert strength_of(-120.0) == 0.0

    @given(st.floats(min_value=-150, max_value=0), st.floats(min_value=-150, max_value=0))
    def test_monotone(self, r1, r2):
        if r1 <= r2:
            assert strength_of(r1) <= strength_of(r2)

    def test_nan_propagates(self):
        assert math.isnan(strength_of(math.nan))


class TestSignatureFromWindow:
    """`signatures_of` aggregates each dwell's window of readings into one signature."""

    def test_averages_per_masked_ap(self):
        (s,) = signatures_of(scans_of([(0.0, "AA:BB:CC:DD:EE:F3", -50.0, 0), (1.0, "AA:BB:CC:DD:EE:FA", -60.0, 0)]))
        assert s.entries == {"AA:BB:CC:DD:EE:F0": 45.0}
        assert s.collected_at == 0.5

    def test_single_reading(self):
        (s,) = signatures_of(scans_of([(2.0, "AA:BB:CC:DD:EE:F0", -70.0, 1)]))
        assert s.entries == {"AA:BB:CC:DD:EE:F0": 30.0}
        assert s.pause_index == 1

    def test_empty_window(self):
        assert signatures_of(scans_of([])) == ()

    @given(st.permutations(list(range(6))))
    def test_permutation_invariant(self, order):
        rows = [(float(k), f"AA:BB:CC:DD:0{k}:F{k}", -40.0 - 3 * k, 0) for k in range(6)]
        assert signatures_of(scans_of(rows)) == signatures_of(scans_of([rows[i] for i in order]))

    def test_entries_iterate_sorted(self):
        s = sig({"0A:00:00:00:02:00": 1.0, "0A:00:00:00:01:00": 2.0})
        assert list(s.entries) == sorted(s.entries)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, -5e-324])
    def test_strength_not_finite_and_non_negative_rejected(self, bad):
        with pytest.raises(ValueError) as exc:
            sig({"0A:00:00:00:01:00": 30.0, "0A:00:00:00:02:00": bad})
        assert "0A:00:00:00:02:00" in str(exc.value)

    def test_nan_reading_rejected(self):
        """A NaN RSSI is an error naming its AP, not an AP heard at strength 0."""
        scans = scans_of([(0.0, "AA:BB:CC:DD:EE:F3", math.nan, 0), (1.0, "0A:00:00:00:01:F0", -50.0, 0)])
        with pytest.raises(ValueError, match="strength nan for AA:BB:CC:DD:EE:F0 "):
            signatures_of(scans)


def _mac(ap, radio, lower):
    mac = f"0A:00:00:00:{ap:02X}:{0xF0 | radio:02X}" if ap % 2 else f"AA:BB:CC:{ap:02X}:00:{radio:X}0"
    return mac.lower() if lower else mac


readings = st.tuples(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(_mac, st.integers(0, 5), st.integers(0, 15), st.booleans()),
    st.floats(max_value=0.0, allow_nan=False, allow_infinity=False),
    st.one_of(st.integers(0, 2), st.sampled_from([9, 1000, MAX_DWELLS - 1])),
)
# nine readings of one AP in one dwell whose timestamps and RSSI values sum to other bits in numpy's pairwise order
ROUNDING = [(t, f"0A:00:00:00:01:F{k % 3}", r, 0) for k, (t, r) in enumerate(zip(
    [966.4, 199.3, 893.3, 85.8, 465.2, 222.8, 829.5, 615.4, 641.8],
    [-54.4, -71.0, -48.2, -17.0, -16.1, -7.2, -74.3, -10.2, -2.3],
))]


class TestGroupedSignatures:
    """`signatures_of` equals the scalar per-dwell aggregation, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(readings, max_size=60))
    @example(ROUNDING)
    @example([(5.0, "aa:bb:cc:00:00:30", -61.5, 3)])  # one reading, lower case, after a gap
    @example([(0.1, "0A:00:00:00:01:F1", -40.0, 2), (0.2, "0A:00:00:00:01:F2", -41.0, 0),
              (0.3, "0a:00:00:00:01:f1", -42.0, 2), (0.4, "0A:00:00:00:01:F3", -43.0, 0)])  # interleaved dwells
    def test_equals_scalar_reference(self, rows):
        assert exact(signatures_of(scans_of(rows))) == exact(reference_signatures(rows))

    def test_masks_each_distinct_bssid_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(signature, "mask_bssid", lambda b: calls.append(b) or mask_bssid(b))
        rows = [(float(k), f"AA:BB:CC:DD:EE:F{k % 3}", -50.0 - k, k % 4) for k in range(40)]
        assert len(signatures_of(scans_of(rows))) == 4
        assert sorted(calls) == ["AA:BB:CC:DD:EE:F0", "AA:BB:CC:DD:EE:F1", "AA:BB:CC:DD:EE:F2"]

    @pytest.mark.parametrize("name", ["c_hall", "b_hall", "j_hall", "a_hall"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_preset_signatures_unchanged(self, dataset_cache, name, seed):
        ds = dataset_cache(name, seed)
        rows = list(ds.scans.rows())
        assert exact(ds.signatures) == exact(reference_signatures(rows))


class TestCosineSimilarity:
    def test_identity(self):
        a = sig({"0A:00:00:00:01:00": 30.0, "0A:00:00:00:02:00": 40.0})
        assert cosine_similarity(a, a) == 1.0

    def test_disjoint_exactly_zero(self):
        a = sig({"0A:00:00:00:01:00": 30.0})
        b = sig({"0A:00:00:00:02:00": 40.0})
        assert cosine_similarity(a, b) == 0.0

    def test_hand_value(self):
        a = sig({"0A:00:00:00:01:00": 60.0, "0A:00:00:00:02:00": 30.0})
        b = sig({"0A:00:00:00:01:00": 30.0, "0A:00:00:00:02:00": 60.0})
        assert cosine_similarity(a, b) == pytest.approx(0.8, abs=1e-12)

    def test_empty_raises(self):
        a = sig({"0A:00:00:00:01:00": 30.0})
        with pytest.raises(EmptySignature):
            cosine_similarity(a, sig({}))

    aps = st.dictionaries(
        st.integers(min_value=0, max_value=20).map(lambda k: f"0A:00:00:00:{k:02X}:00"),
        st.floats(min_value=0.0, max_value=80.0),
        min_size=1,
        max_size=8,
    )

    @given(aps, aps)
    def test_symmetric_and_bounded(self, ea, eb):
        a, b = sig(ea), sig(eb)
        s1, s2 = cosine_similarity(a, b), cosine_similarity(b, a)
        assert s1 == s2
        assert 0.0 <= s1 <= 1.0

    @given(aps, st.floats(min_value=0.01, max_value=50.0))
    @example({"0A:00:00:00:00:00": 8.068822530793793e-161}, 0.125)  # squares lose precision
    @example({"0A:00:00:00:00:00": 3e-162}, 0.01)  # the dot product underflows to 0
    def test_scale_invariant(self, entries, k):
        a = sig(entries)
        scaled = sig({ap: v * k for ap, v in entries.items()})
        if sum(v * v for v in entries.values()) == 0.0:
            return  # all-zero vector: similarity degenerates to 0 by convention
        assert cosine_similarity(a, scaled) == pytest.approx(1.0, abs=1e-9)


def ref_cosine(ea, eb):
    """The exact cosine of two strength vectors in rationals, rounded once at the end."""
    dot = sum(Fraction(v) * Fraction(eb[ap]) for ap, v in ea.items() if ap in eb)
    na, nb = (sum(Fraction(v) ** 2 for v in e.values()) for e in (ea, eb))
    return math.sqrt(float(dot * dot / (na * nb)))


class TestUnitVector:
    """Each signature keeps its unit vector; a similarity is one dot product of two of them."""

    ap = st.integers(min_value=0, max_value=20).map(lambda k: f"0A:00:00:00:{k:02X}:00")
    wide = st.dictionaries(ap, st.floats(min_value=1e-300, max_value=1e3), min_size=1, max_size=8)
    with_zeros = st.dictionaries(ap, st.just(0.0) | st.floats(min_value=1e-300, max_value=1e3), min_size=1, max_size=8)

    @settings(max_examples=300, deadline=None)
    @given(wide, wide)
    @example({"0A:00:00:00:00:00": 1e3, "0A:00:00:00:01:00": 1e-300}, {"0A:00:00:00:01:00": 1e-300})
    @example({"0A:00:00:00:00:00": 3e-162}, {"0A:00:00:00:00:00": 3e-164})  # squares underflow
    @example({"0A:00:00:00:00:00": 1e3, "0A:00:00:00:01:00": 1e3}, {"0A:00:00:00:00:00": 1e-300, "0A:00:00:00:01:00": 1e-300})
    def test_matches_exact_reference(self, ea, eb):
        assert cosine_similarity(sig(ea), sig(eb)) == pytest.approx(ref_cosine(ea, eb), rel=0, abs=1e-12)

    @given(wide)
    @example({"0A:00:00:00:00:00": 1e-300})
    @example({"0A:00:00:00:00:00": 5e-324, "0A:00:00:00:01:00": 1e3})  # a subnormal next to the largest
    def test_unit_has_norm_one(self, entries):
        s = sig(entries)
        assert list(s.unit) == list(s.entries)
        assert math.fsum(x * x for x in s.unit.values()) == pytest.approx(1.0, rel=0, abs=1e-12)

    @given(st.dictionaries(ap, st.just(0.0), min_size=1, max_size=4), with_zeros)
    def test_all_zero_scores_zero(self, zeros, other):
        z = sig(zeros)
        assert all(x == 0.0 for x in z.unit.values())
        assert cosine_similarity(z, sig(other)) == 0.0 and cosine_similarity(sig(other), z) == 0.0
        assert cosine_similarity(z, z) == 0.0


def scalar_matrix(signatures):
    """Every pair's `cosine_similarity`, row by row."""
    return [[cosine_similarity(a, b) for b in signatures] for a in signatures]


class TestSimilarityMatrix:
    """`similarity_matrix` equals `cosine_similarity` on every pair, bit for bit."""

    ap = st.integers(min_value=0, max_value=20).map(lambda k: f"0A:00:00:00:{k:02X}:00")
    strengths = st.dictionaries(
        ap, st.just(0.0) | st.floats(min_value=5e-324, max_value=1e-150) | st.floats(min_value=1e-300, max_value=1e3),
        min_size=1, max_size=8,
    )

    @pytest.mark.parametrize("name", ["c_hall", "b_hall", "j_hall", "a_hall"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_scalar_on_presets(self, dataset_cache, name, seed):
        sigs = dataset_cache(name, seed).signatures
        assert similarity_matrix(sigs).tolist() == scalar_matrix(sigs)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(strengths, min_size=1, max_size=6))
    @example([{"0A:00:00:00:00:00": 3e-162}, {"0A:00:00:00:00:00": 3e-164, "0A:00:00:00:01:00": 5e-324}])  # tiny
    @example([{"0A:00:00:00:00:00": 0.0, "0A:00:00:00:01:00": 0.0}, {"0A:00:00:00:01:00": 7.0}])  # all zero
    @example([{"0A:00:00:00:00:00": 5.0}, {"0A:00:00:00:01:00": 7.0}, {"0A:00:00:00:02:00": 1e-300}])  # disjoint
    def test_equals_scalar(self, entries):
        sigs = [sig(e) for e in entries]
        assert similarity_matrix(sigs).tolist() == scalar_matrix(sigs)

    @pytest.mark.parametrize("entries", [[{}], [{"0A:00:00:00:01:00": 30.0}, {}]], ids=["alone", "with_other"])
    def test_empty_raises(self, entries):
        sigs = [sig(e) for e in entries]
        with pytest.raises(EmptySignature):
            cosine_similarity(sigs[-1], sigs[0])
        with pytest.raises(EmptySignature):
            similarity_matrix(sigs)


class TestAssociateFrames:
    def test_latest_preceding(self):
        sigs = [sig({"0A:00:00:00:01:00": 1.0}, t=0.0, pause=0), sig({"0A:00:00:00:01:00": 2.0}, t=10.0, pause=1)]
        out = associate_frames([(0, 5.0), (1, 15.0)], sigs)
        assert out[0] is sigs[0]
        assert out[1] is sigs[1]

    def test_boundary_equality(self):
        sigs = [sig({"0A:00:00:00:01:00": 1.0}, t=0.0)]
        out = associate_frames([(0, 0.0)], sigs)
        assert out[0] is sigs[0]

    def test_leading_frames_borrow_first(self):
        sigs = [sig({"0A:00:00:00:01:00": 1.0}, t=3.0)]
        out = associate_frames([(0, 1.0), (1, 2.0)], sigs)
        assert out[0] is sigs[0] and out[1] is sigs[0]

    def test_no_signatures(self):
        with pytest.raises(NoSignatures):
            associate_frames([(0, 0.0)], [])

    def test_unsorted_stream_rejected(self):
        sigs = [sig({"0A:00:00:00:01:00": 1.0}, t=5.0), sig({"0A:00:00:00:01:00": 1.0}, t=1.0)]
        with pytest.raises(ValueError):
            associate_frames([(0, 6.0)], sigs)
