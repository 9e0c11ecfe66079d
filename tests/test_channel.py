import numpy as np
import pytest

from conftest import oracle_apply_channel
from pktdetect.channel import (ChannelConfig, ChannelTemplate, add_noise,
                               apply_channel, draw_model_b_taps,
                               model_b_taps, noise_scale, rx_frontend)
from pktdetect.preamble import (BASE_RATE_HZ, ComplexSignal, build_preamble,
                                design_interp_filter, upsample_filter)


def _rand_signal(n, seed, rate=BASE_RATE_HZ):
    rng = np.random.default_rng(seed)
    return ComplexSignal(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                         rate)


def _noisy(sig, cfg, snr_db, rng, signal_power, span=None):
    """apply_channel plus noise as the link adds it: two full-length
    unit-normal vectors drawn from rng, the span's slice of them scaled
    and added by add_noise; nothing drawn at an infinite snr_db."""
    out = apply_channel(sig, cfg, span=span).samples
    if np.isfinite(snr_db):
        n_out = len(sig) + cfg.taps.shape[-1] - 1
        lo, hi = (0, n_out) if span is None else span
        re, im = rng.standard_normal(n_out), rng.standard_normal(n_out)
        add_noise(out, re[lo:hi], im[lo:hi], signal_power, snr_db)
    return out


class TestChannelConfig:
    def test_taps_power_normalized(self):
        cfg = ChannelConfig(taps=np.array([3.0, 4.0]))
        assert np.sum(np.abs(cfg.taps) ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_zero_taps_rejected(self):
        with pytest.raises(ValueError):
            ChannelConfig(taps=np.zeros(3))

    @pytest.mark.parametrize("offset", [1.0, 2.25, np.nan])
    def test_offset_outside_unit_interval_rejected(self, offset):
        with pytest.raises(ValueError):
            ChannelConfig(timing_offset_samples=offset)


class TestChannelTemplate:
    @pytest.mark.parametrize("kwargs", [
        {"os_factor": 0}, {"filter_taps": 0}, {"cfo_max_hz": -1.0},
        {"cfo_max_hz": float("nan")}, {"rms_delay_spread_ns": 0.0},
        {"rms_delay_spread_ns": -80.0}, {"fractional_timing_offset": -0.25},
        {"fractional_timing_offset": 1.0}])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ChannelTemplate(**kwargs)

    def test_spread_unused_without_multipath(self):
        ChannelTemplate(multipath=False, rms_delay_spread_ns=0.0)


class TestApplyChannel:
    def test_identity_when_clean(self):
        sig = _rand_signal(64, 0)
        out = apply_channel(sig, ChannelConfig())
        np.testing.assert_allclose(out.samples, sig.samples, atol=1e-15)

    def test_empty_signal_rejected(self):
        with pytest.raises(ValueError):
            apply_channel(ComplexSignal(np.zeros(0), BASE_RATE_HZ), ChannelConfig())

    def test_cfo_preserves_magnitude(self):
        sig = _rand_signal(128, 1)
        out = apply_channel(sig, ChannelConfig(cfo_hz=17_000.0))
        np.testing.assert_allclose(np.abs(out.samples), np.abs(sig.samples),
                                   atol=1e-12)

    def test_cfo_rotation_rate(self):
        sig = ComplexSignal(np.ones(100), BASE_RATE_HZ)
        cfo = 10_000.0
        out = apply_channel(sig, ChannelConfig(cfo_hz=cfo))
        phases = np.unwrap(np.angle(out.samples))
        step = np.diff(phases)
        np.testing.assert_allclose(step, 2 * np.pi * cfo / BASE_RATE_HZ,
                                   atol=1e-12)

    def test_multipath_is_linear_convolution(self):
        sig = _rand_signal(32, 2)
        taps = np.array([1.0, 0.25, 0.1j])
        out = apply_channel(sig, ChannelConfig(taps=taps))
        cfg = ChannelConfig(taps=taps)  # read back the normalized taps
        np.testing.assert_allclose(out.samples,
                                   np.convolve(sig.samples, cfg.taps),
                                   atol=1e-14)
        assert len(out) == len(sig) + len(taps) - 1

    def test_snr_calibration(self):
        sig = _rand_signal(200_000, 3)
        target = 10.0
        power = np.mean(np.abs(sig.samples) ** 2)
        out = _noisy(sig, ChannelConfig(), target, np.random.default_rng(4),
                     power)
        noise = out - sig.samples
        measured = 10 * np.log10(power / np.mean(np.abs(noise) ** 2))
        assert measured == pytest.approx(target, abs=0.1)

    def test_fractional_timing_offset(self):
        sig = _rand_signal(50, 8)
        out = apply_channel(sig, ChannelConfig(timing_offset_samples=0.25))
        s = sig.samples
        expected = 0.75 * s + 0.25 * np.concatenate([[0.0], s[:-1]])
        np.testing.assert_allclose(out.samples, expected, atol=1e-14)

    def test_fractional_offset_keeps_noise_white(self):
        # the delay acts on the signal only; noise is added afterwards
        sig = ComplexSignal(np.zeros(200_000, dtype=np.complex128), BASE_RATE_HZ)
        out = _noisy(sig, ChannelConfig(timing_offset_samples=0.5), 0.0,
                     np.random.default_rng(14), 1.0)
        assert np.var(out) == pytest.approx(1.0, rel=0.05)

    def test_negative_offset_rejected(self):
        sig = _rand_signal(10, 9)
        with pytest.raises(ValueError):
            apply_channel(sig, ChannelConfig(timing_offset_samples=-1))

    def test_seeded_noise_deterministic(self):
        sig = _rand_signal(100, 10)
        a = _noisy(sig, ChannelConfig(), 5.0, np.random.default_rng(77), 1.0)
        b = _noisy(sig, ChannelConfig(), 5.0, np.random.default_rng(77), 1.0)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("delay", [0.0, 0.5, 3.0, 2.25])
    @pytest.mark.parametrize("span", [(0, 10), (1, 40), (37, 103), (100, 106),
                                      (0, 0), (1, 2)])
    def test_span_is_slice_of_whole_output(self, delay, span):
        # the whole samples of a delay are zeros ahead of the signal (on the
        # link, the packet's position in its stream); the channel's timing
        # offset delays the fraction
        n0, frac = divmod(delay, 1.0)
        sig = ComplexSignal(np.concatenate([np.zeros(int(n0)),
                                            _rand_signal(100, 15).samples]),
                            BASE_RATE_HZ)
        cfg = ChannelConfig(taps=np.array([1.0, 0.3j, 0.1]), cfo_hz=20_000.0,
                            timing_offset_samples=frac)
        lo, hi = span
        hi = min(hi, len(sig) + 2)
        full = apply_channel(sig, cfg).samples
        part = apply_channel(sig, cfg, span=(lo, hi)).samples
        np.testing.assert_array_equal(part, full[lo:hi])

    def test_span_checks(self):
        sig = _rand_signal(10, 17)
        with pytest.raises(ValueError):
            apply_channel(sig, ChannelConfig(), span=(0, 11))
        with pytest.raises(ValueError):
            apply_channel(sig, ChannelConfig(), span=(5, 4))


class TestRows:
    """Rows of channels on one input: each row is its channel applied alone,
    value for value (a zero may differ in sign; adding noise removes it)."""

    @pytest.mark.parametrize("offset", [0.0, 0.5])
    @pytest.mark.parametrize("n_taps", [1, 3])
    def test_rows_equal_single_rows(self, offset, n_taps):
        x = _padded(30, 50, 40, 21)
        rng = np.random.default_rng(22)
        rows = 5
        taps = (rng.standard_normal((rows, n_taps))
                + 1j * rng.standard_normal((rows, n_taps)))
        cfo = rng.uniform(-20e3, 20e3, rows)
        # spans before, across and after the support, and at both ends
        n_out = len(x) + n_taps - 1
        lo = np.array([0, 12, 35, 60, n_out - 26])
        got = apply_channel(x, ChannelConfig(taps=taps, cfo_hz=cfo,
                                             timing_offset_samples=offset),
                            span=(lo, lo + 26)).samples
        assert got.shape == (rows, 26)
        for r in range(rows):
            one = apply_channel(x, ChannelConfig(taps=taps[r], cfo_hz=cfo[r],
                                                 timing_offset_samples=offset),
                                span=(int(lo[r]), int(lo[r]) + 26)).samples
            np.testing.assert_array_equal(got[r], one)

    def test_rows_checked(self):
        x = _rand_signal(10, 23)
        taps = np.ones((2, 1))
        with pytest.raises(ValueError):  # rows of unequal length
            apply_channel(x, ChannelConfig(taps=taps), span=([0, 1], [5, 5]))
        with pytest.raises(ValueError):
            apply_channel(x, ChannelConfig(taps=taps), span=([0, 6], [5, 11]))
        with pytest.raises(ValueError):
            ChannelConfig(taps=np.array([[1.0], [0.0]]))

    def test_add_noise_per_row(self):
        rng = np.random.default_rng(24)
        re, im = rng.standard_normal((2, 3, 8))
        snrs = [0.0, 7.5, 20.0]
        rows = np.zeros((3, 8), dtype=np.complex128)
        add_noise(rows, re, im, 2.0, np.array(snrs))
        for r, snr in enumerate(snrs):
            one = np.zeros(8, dtype=np.complex128)
            add_noise(one, re[r], im[r], 2.0, snr)
            assert rows[r].tobytes() == one.tobytes()

    def test_add_noise_scale(self):
        rng = np.random.default_rng(25)
        re, im = rng.standard_normal((2, 8))
        out = np.zeros(8, dtype=np.complex128)
        add_noise(out, re, im, 2.0, 7.5)
        g = noise_scale(2.0, 7.5)
        assert g == np.sqrt(2.0 * 10 ** -0.75 / 2)
        assert out.tobytes() == (g * re + 1j * (g * im)).tobytes()
        add_noise(out, re, im, 2.0, np.inf)  # a noiseless point adds none
        assert out.tobytes() == (g * re + 1j * (g * im)).tobytes()
        assert noise_scale(2.0, np.inf) == 0.0

    @pytest.mark.parametrize("snr_db", [np.nan, -np.inf])
    def test_snr_without_a_noise_level_rejected(self, snr_db):
        out = np.zeros(8, dtype=np.complex128)
        with pytest.raises(ValueError):
            add_noise(out, np.ones(8), np.ones(8), 2.0, snr_db)
        with pytest.raises(ValueError):
            noise_scale(2.0, snr_db)
        assert not out.any()


def _padded(n_pre, n_body, n_post, seed):
    body = _rand_signal(n_body, seed, rate=4 * BASE_RATE_HZ)
    x = np.zeros(n_pre + n_body + n_post, dtype=np.complex128)
    x[n_pre:n_pre + n_body] = body.samples
    return ComplexSignal(x, body.sample_rate_hz)


def _taps(seed, *args):
    """draw_model_b_taps on a fresh generator of seed."""
    return draw_model_b_taps(np.random.default_rng(seed), *args)


class TestAgainstOracle:
    """The support-only channel against the np.convolve / complex-exp form."""

    CHANNELS = {
        "awgn": dict(),
        "multipath-cfo": dict(taps=_taps(3, 4e6), cfo_hz=-13_250.5),
        "offset-0.5": dict(taps=_taps(4, 4e6), cfo_hz=9_000.0,
                           timing_offset_samples=0.5),
        "long-multipath": dict(taps=_taps(5, 40e6), cfo_hz=17e3,
                               timing_offset_samples=0.25),
    }

    @staticmethod
    def _both(sig, cfg, snr_db, signal_power, span):
        rng_new, rng_old = np.random.default_rng(21), np.random.default_rng(21)
        new = _noisy(sig, cfg, snr_db, rng_new, signal_power, span)
        old = oracle_apply_channel(sig, cfg, snr_db, rng_old, signal_power,
                                   span).samples
        assert rng_new.standard_normal() == rng_old.standard_normal()
        return new, old

    @staticmethod
    def _n_out(sig, cfg):
        return len(sig) + len(cfg.taps) - 1

    @pytest.mark.parametrize("channel", CHANNELS)
    @pytest.mark.parametrize("snr_db", [6.0, np.inf])
    @pytest.mark.parametrize("span", [None, (0, 30), (2, 250), (57, 300),
                                      (120, 121), (290, 306)])
    @pytest.mark.parametrize("n_pre, n_post", [(60, 40), (0, 0)])
    def test_float64_agreement(self, channel, snr_db, span, n_pre, n_post):
        sig = _padded(n_pre, 200, n_post, 22)
        cfg = ChannelConfig(**self.CHANNELS[channel])
        n_out = self._n_out(sig, cfg)
        if span is not None:
            span = (min(span[0], n_out), min(span[1], n_out))
        new, old = self._both(sig, cfg, snr_db, 1.5, span)
        assert len(new) == len(old)
        if len(old):
            np.testing.assert_allclose(new, old, rtol=0,
                                       atol=1e-15 * np.abs(old).max())

    @pytest.mark.parametrize("cfo_hz", [0.0, 18e3, -7_777.7])
    @pytest.mark.parametrize("delay", [0.0, 0.5, 3.0, 1.75])
    @pytest.mark.parametrize("snr_db", [3.0, np.inf])
    def test_single_tap_bit_identical(self, cfo_hz, delay, snr_db):
        # whole samples of the delay are zeros ahead of the packet, the
        # fraction is the channel's timing offset
        n0, frac = divmod(delay, 1.0)
        sig = _padded(37 + int(n0), 500, 11, 23)
        cfg = ChannelConfig(cfo_hz=cfo_hz, timing_offset_samples=frac)
        for span in (None, (30, 400)):
            new, old = self._both(sig, cfg, snr_db, 2.0, span)
            np.testing.assert_array_equal(new, old)

    @pytest.mark.parametrize("channel", CHANNELS)
    @pytest.mark.parametrize("span", [None, (5, 80)])
    def test_zero_input_is_scaled_noise(self, channel, span):
        sig = ComplexSignal(np.zeros(100, dtype=np.complex128), 4e6)
        cfg = ChannelConfig(**self.CHANNELS[channel])
        rng = np.random.default_rng(24)
        out = _noisy(sig, cfg, 4.0, np.random.default_rng(24), 3.0, span)
        n_out = self._n_out(sig, cfg)
        lo, hi = (0, n_out) if span is None else span
        g = np.sqrt(3.0 * 10 ** -0.4 / 2)
        re, im = rng.standard_normal(n_out), rng.standard_normal(n_out)
        np.testing.assert_array_equal(out.real, g * re[lo:hi])
        np.testing.assert_array_equal(out.imag, g * im[lo:hi])


class TestModelBTaps:
    def test_unit_power(self):
        h = _taps(0, 4e6)
        assert np.sum(np.abs(h) ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_deterministic_per_seed(self):
        np.testing.assert_array_equal(_taps(5, 4e6), _taps(5, 4e6))

    @pytest.mark.parametrize("rate", [4e6, 40e6])
    def test_rows_normalized_each_on_its_own(self, rate):
        # rows of normals at scales four decades apart: normalizing over
        # all rows at once would leave each at a different power
        n_taps = len(_taps(0, rate))
        scales = np.array([0.01, 0.5, 1.0, 2.0, 10.0, 100.0])
        rng = np.random.default_rng(31)
        normals = rng.standard_normal((6, 2, n_taps)) * scales[:, None, None]
        rows = model_b_taps(normals, rate)
        np.testing.assert_allclose(np.sum(np.abs(rows) ** 2, axis=1), 1.0,
                                   rtol=1e-12)
        for normal, row in zip(normals, rows):
            assert np.array_equal(model_b_taps(normal, rate), row)

    @pytest.mark.parametrize("rate, spread", [(4e6, 80.0), (40e6, 80.0),
                                              (4e6, 250.0)])
    def test_cached_profile_gives_same_taps(self, rate, spread):
        # the power-delay profile computed afresh on every call
        delays = np.arange(0.0, 5.0 * spread + 1e-9, 1e9 / rate)
        profile = np.exp(-delays / spread)
        profile /= profile.sum()
        rng = np.random.default_rng(18)
        h = np.sqrt(profile / 2) * (rng.standard_normal(len(profile))
                                    + 1j * rng.standard_normal(len(profile)))
        for _ in range(2):
            np.testing.assert_array_equal(
                _taps(18, rate, spread),
                h / np.sqrt(np.sum(np.abs(h) ** 2)))

    def test_rate_floor(self):
        with pytest.raises(ValueError):
            _taps(0, 0.5e6)

    def test_tap_count_tracks_truncation(self):
        # 5 * 80 ns at 4 MHz (250 ns steps) spans delays 0 .. 400 ns -> 2 taps
        assert len(_taps(0, 4e6)) == 2
        # at 40 MHz (25 ns steps) -> 17 taps
        assert len(_taps(0, 40e6)) == 17

    def test_mean_profile_rms_delay(self):
        # ensemble mean power profile should realize the requested spread
        rate = 40e6
        dt_ns = 1e9 / rate
        acc = np.zeros(len(_taps(0, rate)))
        n = 2_000
        for seed in range(n):
            acc += np.abs(_taps(seed, rate)) ** 2
        profile = acc / n
        delays = np.arange(len(profile)) * dt_ns
        mean_d = np.sum(delays * profile) / np.sum(profile)
        rms = np.sqrt(np.sum((delays - mean_d) ** 2 * profile) / np.sum(profile))
        assert rms == pytest.approx(80.0, rel=0.15)


class TestRxFrontend:
    def test_clean_loopback(self, preamble):
        # tx interpolation -> matched filter -> decimation reproduces the
        # base-rate stream to within filter truncation error
        os = 4
        taps = design_interp_filter(os)
        tx = upsample_filter(preamble, os, taps)
        rx = rx_frontend(tx, taps, os)
        err = np.abs(rx.samples[:len(preamble)] - preamble.samples)
        assert err.max() < 10 ** (-40 / 20)  # -40 dB against unit power

    def test_loopback_rate_and_length(self):
        sig = _rand_signal(25, 11)
        os = 4
        taps = design_interp_filter(os)
        rx = rx_frontend(upsample_filter(sig, os, taps), taps, os)
        assert rx.sample_rate_hz == BASE_RATE_HZ
        assert len(rx) >= len(sig)

    @pytest.mark.parametrize("os, n_taps", [(4, 48), (2, 16), (3, 7), (4, 3),
                                            (1, 1)])
    @pytest.mark.parametrize("n", [1, 5, 97, 2_700])
    def test_polyphase_matches_full_rate_filter(self, os, n, n_taps):
        # the full-rate matched filter, keeping every os-th output
        taps = design_interp_filter(os, n_taps)
        sig = _rand_signal(n, 19, rate=os * BASE_RATE_HZ)
        expected = (np.convolve(sig.samples, taps) / os)[len(taps) - 1::os]
        rx = rx_frontend(sig, taps, os).samples
        assert len(rx) == len(expected)
        np.testing.assert_allclose(rx, expected, rtol=0,
                                   atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("n_out", [1, 2, 7, 25, 30])
    def test_rows_and_n_out(self, n_out):
        # rows of a 2-D input are filtered on their own, and n_out keeps
        # the first outputs; past the input's 25 windows they read zeros
        os, taps = 4, design_interp_filter(4)
        x = np.stack([_rand_signal(100, seed, rate=4 * BASE_RATE_HZ).samples
                      for seed in (25, 26, 27)])
        whole = [rx_frontend(ComplexSignal(row, 4 * BASE_RATE_HZ), taps,
                             os).samples for row in x]
        rows = rx_frontend(ComplexSignal(x, 4 * BASE_RATE_HZ), taps, os,
                           n_out=n_out).samples
        assert rows.shape == (3, n_out)
        for r in range(3):
            assert rows[r, :25].tobytes() == whole[r][:n_out].tobytes()
            assert not rows[r, 25:].any()
