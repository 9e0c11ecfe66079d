import numpy as np
import pytest

from pktdetect.channel import (ChannelConfig, RxFrontendConfig, apply_channel,
                               draw_model_b_taps, rx_frontend)
from pktdetect.preamble import (BASE_RATE_HZ, ComplexSignal, build_preamble,
                                design_interp_filter, upsample_filter)


def _rand_signal(n, seed, rate=BASE_RATE_HZ):
    rng = np.random.default_rng(seed)
    return ComplexSignal(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                         rate)


class TestChannelConfig:
    def test_taps_power_normalized(self):
        cfg = ChannelConfig(taps=np.array([3.0, 4.0]))
        assert np.sum(np.abs(cfg.taps) ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_zero_taps_rejected(self):
        with pytest.raises(ValueError):
            ChannelConfig(taps=np.zeros(3))

    def test_nan_snr_rejected(self):
        with pytest.raises(ValueError):
            ChannelConfig(snr_db=np.nan)

    def test_json_round_trip(self):
        cfg = ChannelConfig(taps=np.array([1.0, 0.5j]), snr_db=12.5,
                            cfo_hz=300.0, timing_offset_samples=1.25, seed=9)
        back = ChannelConfig.from_json(cfg.to_json())
        np.testing.assert_allclose(back.taps, cfg.taps, atol=1e-15)
        assert back.snr_db == cfg.snr_db
        assert back.cfo_hz == cfg.cfo_hz
        assert back.timing_offset_samples == cfg.timing_offset_samples

    def test_json_round_trip_infinite_snr(self):
        back = ChannelConfig.from_json(ChannelConfig().to_json())
        assert np.isinf(back.snr_db)


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
        out = apply_channel(sig, ChannelConfig(snr_db=target),
                            rng=np.random.default_rng(4))
        noise = out.samples - sig.samples
        measured = 10 * np.log10(np.mean(np.abs(sig.samples) ** 2)
                                 / np.mean(np.abs(noise) ** 2))
        assert measured == pytest.approx(target, abs=0.1)

    def test_snr_reference_over_support_only(self):
        # zero padding must not dilute the signal-power estimate
        body = _rand_signal(5_000, 5).samples
        padded = np.concatenate([np.zeros(5_000), body, np.zeros(5_000)])
        out = apply_channel(ComplexSignal(padded, BASE_RATE_HZ),
                            ChannelConfig(snr_db=20.0),
                            rng=np.random.default_rng(6))
        noise_var = np.mean(np.abs(out.samples[:5_000]) ** 2)
        expected = np.mean(np.abs(body) ** 2) * 10 ** (-2.0)
        assert noise_var == pytest.approx(expected, rel=0.1)

    def test_integer_timing_offset(self):
        sig = _rand_signal(50, 7)
        out = apply_channel(sig, ChannelConfig(timing_offset_samples=3))
        np.testing.assert_array_equal(out.samples[:3], 0)
        np.testing.assert_allclose(out.samples[3:], sig.samples, atol=1e-15)

    def test_fractional_timing_offset(self):
        sig = _rand_signal(50, 8)
        out = apply_channel(sig, ChannelConfig(timing_offset_samples=0.25))
        s = sig.samples
        expected = 0.75 * s + 0.25 * np.concatenate([[0.0], s[:-1]])
        np.testing.assert_allclose(out.samples, expected, atol=1e-14)

    def test_timing_offset_prefix_carries_noise(self):
        sig = _rand_signal(50, 12)
        out = apply_channel(sig, ChannelConfig(snr_db=10.0, timing_offset_samples=3),
                            rng=np.random.default_rng(13))
        assert np.all(out.samples[:3] != 0)

    def test_fractional_offset_keeps_noise_white(self):
        # the delay acts on the signal only; noise is added afterwards
        sig = ComplexSignal(np.zeros(200_000, dtype=np.complex128), BASE_RATE_HZ)
        out = apply_channel(sig, ChannelConfig(snr_db=0.0, timing_offset_samples=0.5),
                            rng=np.random.default_rng(14), signal_power=1.0)
        assert np.var(out.samples) == pytest.approx(1.0, rel=0.05)

    def test_negative_offset_rejected(self):
        sig = _rand_signal(10, 9)
        with pytest.raises(ValueError):
            apply_channel(sig, ChannelConfig(timing_offset_samples=-1))

    def test_seeded_noise_deterministic(self):
        sig = _rand_signal(100, 10)
        cfg = ChannelConfig(snr_db=5.0, seed=77)
        a = apply_channel(sig, cfg).samples
        b = apply_channel(sig, cfg).samples
        np.testing.assert_array_equal(a, b)


class TestModelBTaps:
    def test_unit_power(self):
        h = draw_model_b_taps(0, 4e6)
        assert np.sum(np.abs(h) ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_deterministic_per_seed(self):
        np.testing.assert_array_equal(draw_model_b_taps(5, 4e6),
                                      draw_model_b_taps(5, 4e6))

    def test_rate_floor(self):
        with pytest.raises(ValueError):
            draw_model_b_taps(0, 0.5e6)

    def test_tap_count_tracks_truncation(self):
        # 5 * 80 ns at 4 MHz (250 ns steps) spans delays 0 .. 400 ns -> 2 taps
        assert len(draw_model_b_taps(0, 4e6)) == 2
        # at 40 MHz (25 ns steps) -> 17 taps
        assert len(draw_model_b_taps(0, 40e6)) == 17

    def test_mean_profile_rms_delay(self):
        # ensemble mean power profile should realize the requested spread
        rate = 40e6
        dt_ns = 1e9 / rate
        acc = np.zeros(len(draw_model_b_taps(0, rate)))
        n = 2_000
        for seed in range(n):
            acc += np.abs(draw_model_b_taps(seed, rate)) ** 2
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
        rx = rx_frontend(tx, RxFrontendConfig(taps, os))
        err = np.abs(rx.samples[:len(preamble)] - preamble.samples)
        assert err.max() < 10 ** (-40 / 20)  # -40 dB against unit power

    def test_loopback_rate_and_length(self):
        sig = _rand_signal(25, 11)
        os = 4
        taps = design_interp_filter(os)
        rx = rx_frontend(upsample_filter(sig, os, taps),
                         RxFrontendConfig(taps, os))
        assert rx.sample_rate_hz == BASE_RATE_HZ
        assert len(rx) >= len(sig)
