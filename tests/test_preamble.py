import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pktdetect.preamble import (BASE_RATE_HZ, LTS_CORE_LEN, LTS_CORE_OFFSETS,
                                N_SUBCARRIERS, PREAMBLE_LEN, ComplexSignal,
                                PreambleSpec, _WIDEBAND_BINS, _low_papr_bpsk,
                                build_preamble, default_preamble_spec,
                                design_interp_filter, lts_core, ofdm_symbol,
                                upsample_filter)


def _low_papr_bpsk_oracle(bins, seed, n_trials=4096):
    """One pattern at a time, keeping the first strictly lowest PAPR."""
    rng = np.random.default_rng(seed)
    best, best_papr = None, np.inf
    for _ in range(n_trials):
        freq = np.zeros(N_SUBCARRIERS, dtype=np.complex128)
        freq[list(bins)] = rng.choice([-1.0, 1.0], size=len(bins))
        power = np.abs(np.fft.ifft(freq) * np.sqrt(N_SUBCARRIERS)) ** 2
        papr = power.max() / power.mean()
        if papr < best_papr:
            best_papr, best = papr, freq
    return best * np.sqrt(N_SUBCARRIERS / len(bins))


class TestOfdmSymbol:
    def test_length_and_rate(self):
        sym = ofdm_symbol(np.ones(N_SUBCARRIERS))
        assert len(sym) == 40
        assert sym.sample_rate_hz == BASE_RATE_HZ

    def test_cyclic_prefix_copies_tail(self):
        rng = np.random.default_rng(3)
        freq = rng.standard_normal(N_SUBCARRIERS) + 1j * rng.standard_normal(N_SUBCARRIERS)
        sym = ofdm_symbol(freq).samples
        np.testing.assert_allclose(sym[:8], sym[-8:], atol=1e-12)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            ofdm_symbol(np.ones(16))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_energy_conserved(self, seed):
        # 1/sqrt(N)-scaled IDFT keeps Parseval: body energy == bin energy
        rng = np.random.default_rng(seed)
        freq = rng.standard_normal(N_SUBCARRIERS) + 1j * rng.standard_normal(N_SUBCARRIERS)
        body = ofdm_symbol(freq).samples[8:]
        assert np.sum(np.abs(body) ** 2) == pytest.approx(
            np.sum(np.abs(freq) ** 2), rel=1e-12)


class TestPreambleStructure:
    def test_total_length(self, preamble):
        assert len(preamble) == PREAMBLE_LEN
        assert preamble.sample_rate_hz == BASE_RATE_HZ

    def test_stf_period_16(self, preamble):
        s = preamble.samples
        err = np.max(np.abs(s[:144] - s[16:160]))
        assert err < 1e-9

    def test_stf_period_8_not_4(self, preamble):
        # bins that are multiples of 4 of a 32-point IDFT: period 32/4 = 8
        s = preamble.samples
        assert np.max(np.abs(s[:152] - s[8:160])) < 1e-9
        assert np.max(np.abs(s[:156] - s[4:160])) > 0.1

    def test_ltf1_core_repeats(self, preamble):
        s = preamble.samples
        for off in LTS_CORE_OFFSETS:
            np.testing.assert_allclose(
                s[off:off + LTS_CORE_LEN],
                s[LTS_CORE_OFFSETS[0]:LTS_CORE_OFFSETS[0] + LTS_CORE_LEN],
                atol=1e-12)

    def test_lts_core_matches_ltf1(self, preamble_spec, preamble):
        core = lts_core(preamble_spec).samples
        assert len(core) == LTS_CORE_LEN
        np.testing.assert_allclose(
            preamble.samples[LTS_CORE_OFFSETS[0]:LTS_CORE_OFFSETS[0] + LTS_CORE_LEN],
            core, atol=1e-12)

    def test_unit_mean_power_bodies(self, preamble):
        # bins are scaled so each IDFT body has unit mean sample power
        s = preamble.samples
        for body_lo in (8, 160, 328, 368):  # STF, LTS core, SIG, LTF2 bodies
            body = s[body_lo:body_lo + 32]
            assert np.mean(np.abs(body) ** 2) == pytest.approx(1.0, rel=1e-9)

    def test_deterministic(self):
        a = build_preamble(default_preamble_spec()).samples
        b = build_preamble(default_preamble_spec()).samples
        np.testing.assert_array_equal(a, b)

    def test_default_specs_are_equal_and_independent(self):
        fields = ("stf_freq", "ltf_freq", "sig_freq", "ltf2_freq")
        a, b = default_preamble_spec(), default_preamble_spec()
        for name in fields:
            x, y = getattr(a, name), getattr(b, name)
            np.testing.assert_array_equal(x, y)
            assert not np.shares_memory(x, y)
            x[:] = 99.0  # a caller's write reaches neither b nor later calls
        c = default_preamble_spec()
        for name in fields:
            np.testing.assert_array_equal(getattr(c, name), getattr(b, name))
            assert not np.any(getattr(c, name) == 99.0)
        np.testing.assert_array_equal(
            c.ltf_freq, _low_papr_bpsk_oracle(_WIDEBAND_BINS, 11))


class TestLowPaprSearch:
    def test_default_ltf_matches_oracle(self, preamble_spec):
        np.testing.assert_array_equal(
            preamble_spec.ltf_freq, _low_papr_bpsk_oracle(_WIDEBAND_BINS, 11))

    @pytest.mark.parametrize("n_trials", [300, 512])
    @pytest.mark.parametrize("seed", [0, 1, 5, 29, 9001])
    def test_batched_search_matches_oracle(self, seed, n_trials):
        np.testing.assert_array_equal(
            _low_papr_bpsk(_WIDEBAND_BINS, seed, n_trials=n_trials),
            _low_papr_bpsk_oracle(_WIDEBAND_BINS, seed, n_trials=n_trials))

    @pytest.mark.parametrize("n_trials", [6, 300])
    def test_first_minimum_wins(self, n_trials):
        # on two bins, a pattern and its negation tie in PAPR: the first
        # one drawn must win, within a batch and across batches
        bins = (4, 8)
        for seed in range(20):
            np.testing.assert_array_equal(
                _low_papr_bpsk(bins, seed, n_trials=n_trials),
                _low_papr_bpsk_oracle(bins, seed, n_trials=n_trials))


class TestPreambleSpecValidation:
    def test_wrong_vector_length(self, preamble_spec):
        with pytest.raises(ValueError):
            PreambleSpec(stf_freq=np.ones(16), ltf_freq=preamble_spec.ltf_freq,
                         sig_freq=preamble_spec.sig_freq,
                         ltf2_freq=preamble_spec.ltf2_freq)

    def test_stf_bins_must_be_multiples_of_4(self, preamble_spec):
        bad = np.zeros(N_SUBCARRIERS, dtype=complex)
        bad[3] = 1.0
        with pytest.raises(ValueError):
            PreambleSpec(stf_freq=bad, ltf_freq=preamble_spec.ltf_freq,
                         sig_freq=preamble_spec.sig_freq,
                         ltf2_freq=preamble_spec.ltf2_freq)


class TestInterpFilter:
    def test_dc_gain_equals_os(self):
        for os in (2, 4, 8):
            h = design_interp_filter(os)
            assert h.sum() == pytest.approx(os, rel=1e-12)

    def test_symmetric(self):
        h = design_interp_filter(4)
        np.testing.assert_allclose(h, h[::-1], atol=1e-12)

    def test_os_one_is_identity(self):
        np.testing.assert_array_equal(design_interp_filter(1), np.ones(1))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            design_interp_filter(0)

    def test_upsample_length(self):
        sig = ComplexSignal(np.ones(10), BASE_RATE_HZ)
        taps = design_interp_filter(4)
        out = upsample_filter(sig, 4, taps)
        assert len(out) == 10 * 4 + len(taps) - 1
        assert out.sample_rate_hz == 4 * BASE_RATE_HZ

    def test_upsample_is_linear(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        b = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        taps = design_interp_filter(4)
        up = lambda v: upsample_filter(ComplexSignal(v, BASE_RATE_HZ), 4, taps).samples
        np.testing.assert_allclose(up(a + 2 * b), up(a) + 2 * up(b), atol=1e-12)
