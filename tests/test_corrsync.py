import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pktdetect.channel import ChannelConfig, apply_channel
from pktdetect.corrsync import (CorrDetectorConfig, DetectionResult, autocorr,
                                coarse_detect, fine_detect, metric_trace,
                                plateau_refine, timing_metric, window_power)
from pktdetect.preamble import (BASE_RATE_HZ, ComplexSignal, build_preamble,
                                lts_core)


def _noise(n, seed):
    rng = np.random.default_rng(seed)
    return ComplexSignal(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                         BASE_RATE_HZ)


def _padded_packet(preamble, pre=200, post=100, seed=None, snr_db=None):
    buf = np.zeros(pre + len(preamble) + post, dtype=np.complex128)
    buf[pre:pre + len(preamble)] = preamble.samples
    sig = ComplexSignal(buf, BASE_RATE_HZ)
    if snr_db is not None:
        sig = apply_channel(sig, ChannelConfig(snr_db=snr_db),
                            rng=np.random.default_rng(seed or 0),
                            signal_power=1.0)
    return sig


class TestMetricPrimitives:
    def test_autocorr_window_bounds(self):
        y = _noise(100, 0)
        with pytest.raises(ValueError):
            autocorr(y, -1, 10)
        with pytest.raises(ValueError):
            autocorr(y, 81, 10)
        with pytest.raises(ValueError):
            window_power(y, 90, 10)

    def test_periodic_signal_metric_is_one(self):
        rng = np.random.default_rng(1)
        seg = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        y = ComplexSignal(np.tile(seg, 4), BASE_RATE_HZ)
        assert timing_metric(y, 0, 30) == pytest.approx(1.0, rel=1e-12)

    def test_zero_window_metric_is_zero(self):
        y = ComplexSignal(np.zeros(64), BASE_RATE_HZ)
        assert timing_metric(y, 0, 16) == 0.0

    def test_metric_bounded_by_cauchy_schwarz_on_equal_energy_halves(self):
        # for a repetitive first half, |corr| <= sqrt(E1 * E2); with equal
        # energies the metric cannot exceed E1/E2 ratios by much -- sanity
        y = _noise(200, 2)
        m = timing_metric(y, 10, 60)
        assert m >= 0.0


class TestMetricInvariances:
    @given(st.integers(0, 2**31 - 1), st.sampled_from([1e-3, 1.0, 1e3]))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance(self, seed, c):
        y = _noise(220, seed)
        scaled = ComplexSignal(c * y.samples, BASE_RATE_HZ)
        for tau in (0, 17, 50):
            assert abs(timing_metric(scaled, tau, 80)
                       - timing_metric(y, tau, 80)) < 1e-12

    @given(st.integers(0, 2**31 - 1), st.floats(-40_000, 40_000))
    @settings(max_examples=40, deadline=None)
    def test_cfo_invariance_of_correlation_magnitude(self, seed, cfo):
        y = _noise(220, seed)
        rotated = apply_channel(y, ChannelConfig(cfo_hz=cfo))
        for tau in (0, 25):
            a = abs(autocorr(y, tau, 80))
            b = abs(autocorr(rotated, tau, 80))
            assert abs(a - b) <= 1e-10 * max(1.0, a)


class TestMetricTraces:
    def test_trace_matches_pointwise_metric(self):
        y = _noise(400, 3)
        trace = metric_trace(y, 80)
        for tau in (0, 1, 100, len(trace) - 1):
            assert trace[tau] == pytest.approx(timing_metric(y, tau, 80),
                                               rel=1e-12)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_incremental_matches_direct(self, seed):
        # running-sum trace against the direct scalar metric at every tau
        y = _noise(500, seed)
        a = metric_trace(y, 80)
        b = np.array([timing_metric(y, tau, 80) for tau in range(len(a))])
        assert len(a) == 500 - 2 * 80 + 1
        assert np.max(np.abs(a - b)) <= 1e-9

    def test_asymmetric_window(self):
        y = _noise(400, 4)
        s = y.samples
        a = metric_trace(y, 16, 145)
        b = np.array([
            abs(np.sum(np.conj(s[t:t + 145]) * s[t + 16:t + 161])) ** 2
            / np.sum(np.abs(s[t + 16:t + 161]) ** 2) ** 2
            for t in range(400 - 16 - 145 + 1)])
        assert len(a) == len(b)
        assert np.max(np.abs(a - b)) <= 1e-9

    def test_short_signal_empty_trace(self):
        y = _noise(100, 5)
        assert len(metric_trace(y, 80)) == 0


class TestPlateauRefine:
    def test_trapezoid_midpoint(self):
        m = np.concatenate([np.zeros(50), np.linspace(0, 1, 21)[1:],
                            np.ones(40), np.linspace(1, 0, 21)[1:],
                            np.zeros(50)])
        peak = 90
        start = plateau_refine(m, peak, 0.9)
        # plateau spans samples [68, 112] at the 90% level; midpoint = 90
        assert abs(start - 90) <= 1

    def test_fallback_without_crossings(self):
        m = np.ones(30)
        assert plateau_refine(m, 15, 0.9) == 15


class TestDetection:
    def test_result_invariant(self):
        with pytest.raises(ValueError):
            DetectionResult(False, 5, 0.0)

    def test_clean_packet_exact_start(self, preamble, preamble_spec):
        y = _padded_packet(preamble, pre=200)
        cfg = CorrDetectorConfig()
        res = coarse_detect(y, cfg)
        assert res.detected
        assert fine_detect(y, res.start_sample, lts_core(preamble_spec),
                           cfg) == 200

    def test_noise_only_no_detection(self):
        for seed in range(5):
            res = coarse_detect(_noise(1_000, 100 + seed), CorrDetectorConfig())
            assert not res.detected
            assert res.start_sample == -1

    def test_high_snr_within_two_samples(self, preamble, preamble_spec):
        lts = lts_core(preamble_spec)
        cfg = CorrDetectorConfig()
        for seed in range(10):
            y = _padded_packet(preamble, pre=150 + 11 * seed, seed=seed,
                               snr_db=20.0)
            res = coarse_detect(y, cfg)
            assert res.detected
            fine = fine_detect(y, res.start_sample, lts, cfg)
            assert abs(fine - (150 + 11 * seed)) <= 2

    def test_fine_detect_degenerate_reference(self, preamble):
        y = _padded_packet(preamble)
        zero_ref = ComplexSignal(np.zeros(32), BASE_RATE_HZ)
        assert fine_detect(y, 123, zero_ref, CorrDetectorConfig()) == 123

    def test_fine_detect_window_too_small(self, preamble_spec):
        y = _noise(40, 6)
        assert fine_detect(y, 0, lts_core(preamble_spec),
                           CorrDetectorConfig()) == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CorrDetectorConfig(plateau_fraction=1.5)
        with pytest.raises(ValueError):
            CorrDetectorConfig(l_window=0)
