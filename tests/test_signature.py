from __future__ import annotations

import pytest
from hypothesis import example, given, strategies as st

from wifislam.signature import (
    EmptyScanWindow,
    EmptySignature,
    MacParseError,
    NoSignatures,
    ScanReading,
    Signature,
    associate_frames,
    cosine_similarity,
    mask_bssid,
    signature_from_window,
    strength_of,
)


def sig(entries, t=0.0, pause=0):
    return Signature(entries=entries, collected_at=t, pause_index=pause)


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


class TestSignatureFromWindow:
    def test_averages_per_masked_ap(self):
        readings = [
            ScanReading(0.0, "AA:BB:CC:DD:EE:F3", -50.0),
            ScanReading(1.0, "AA:BB:CC:DD:EE:FA", -60.0),
        ]
        s = signature_from_window(readings, pause_index=0)
        assert s.entries == {"AA:BB:CC:DD:EE:F0": 45.0}
        assert s.collected_at == 0.5

    def test_single_reading(self):
        s = signature_from_window([ScanReading(2.0, "AA:BB:CC:DD:EE:F0", -70.0)], 1)
        assert s.entries == {"AA:BB:CC:DD:EE:F0": 30.0}
        assert s.pause_index == 1

    def test_empty_window(self):
        with pytest.raises(EmptyScanWindow):
            signature_from_window([], 0)

    @given(st.permutations(list(range(6))))
    def test_permutation_invariant(self, order):
        readings = [
            ScanReading(float(k), f"AA:BB:CC:DD:0{k}:F{k}", -40.0 - 3 * k) for k in range(6)
        ]
        base = signature_from_window(readings, 0)
        shuffled = signature_from_window([readings[i] for i in order], 0)
        assert base == shuffled

    def test_entries_iterate_sorted(self):
        s = sig({"0A:00:00:00:02:00": 1.0, "0A:00:00:00:01:00": 2.0})
        assert list(s.entries) == sorted(s.entries)


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
        assert s1 == pytest.approx(s2, abs=1e-12)
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


def test_scan_reading_rejects_positive_rssi():
    with pytest.raises(ValueError):
        ScanReading(0.0, "AA:BB:CC:DD:EE:F0", 5.0)
