"""Channel impairments and receiver front end.

Applies multipath convolution, carrier frequency offset, a timing offset
and AWGN at a target SNR to the oversampled transmit stream, then undoes the
pulse shaping (matched filter + decimation) to recover the 1 MHz stream the
detectors operate on.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .preamble import ComplexSignal


@dataclass(frozen=True)
class ChannelTemplate:
    """Per-packet channel randomization knobs of the tx -> channel -> rx link."""

    os_factor: int = 4
    filter_taps: int = 48
    cfo_max_hz: float = 18_000.0  # +/-20 ppm at a 900 MHz carrier
    multipath: bool = True
    rms_delay_spread_ns: float = 80.0
    fractional_timing_offset: float = 0.0  # in oversampled samples, [0, 1)


@dataclass
class ChannelConfig:
    """Impairment parameters; taps are power-normalized at construction."""

    taps: np.ndarray = field(default_factory=lambda: np.ones(1, dtype=np.complex128))
    snr_db: float = np.inf
    cfo_hz: float = 0.0
    timing_offset_samples: float = 0.0
    seed: int = 0

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=np.complex128)
        power = np.sum(np.abs(taps) ** 2)
        if power == 0:
            raise ValueError("channel taps must carry nonzero power")
        self.taps = taps / np.sqrt(power)
        if np.isnan(self.snr_db):
            raise ValueError("snr_db must not be NaN")

    def to_json(self) -> str:
        return json.dumps({
            "taps": [[float(t.real), float(t.imag)] for t in self.taps],
            "snr_db": None if np.isinf(self.snr_db) else float(self.snr_db),
            "cfo_hz": float(self.cfo_hz),
            "timing_offset_samples": float(self.timing_offset_samples),
            "seed": int(self.seed),
        })

    @classmethod
    def from_json(cls, text: str) -> "ChannelConfig":
        doc = json.loads(text)
        taps = np.array([complex(re, im) for re, im in doc["taps"]])
        snr = doc["snr_db"]
        return cls(taps=taps, snr_db=np.inf if snr is None else snr,
                   cfo_hz=doc["cfo_hz"],
                   timing_offset_samples=doc["timing_offset_samples"],
                   seed=doc["seed"])


@dataclass(frozen=True)
class RxFrontendConfig:
    """Matched filter (same taps as the transmit filter) + decimation."""

    matched_taps: np.ndarray
    os_factor: int

    def __post_init__(self):
        object.__setattr__(self, "matched_taps",
                           np.asarray(self.matched_taps, dtype=np.float64))


def draw_model_b_taps(seed: int | np.random.Generator, os_rate_hz: float,
                      rms_delay_spread_ns: float = 80.0,
                      truncation_factor: float = 5.0) -> np.ndarray:
    """One indoor multipath realization on the oversampled tap grid.

    Exponentially decaying power-delay profile with the given RMS delay
    spread, truncated at `truncation_factor` times the spread, Rayleigh
    (circularly-symmetric Gaussian) taps, power-normalized to 1.
    """
    if os_rate_hz < 1e6:
        raise ValueError("os_rate_hz must be at least 1 MHz")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    dt_ns = 1e9 / os_rate_hz
    delays = np.arange(0.0, truncation_factor * rms_delay_spread_ns + 1e-9, dt_ns)
    profile = np.exp(-delays / rms_delay_spread_ns)
    profile /= profile.sum()
    h = np.sqrt(profile / 2) * (rng.standard_normal(len(profile))
                                + 1j * rng.standard_normal(len(profile)))
    return h / np.sqrt(np.sum(np.abs(h) ** 2))


def apply_channel(sig: ComplexSignal, cfg: ChannelConfig,
                  rng: np.random.Generator | None = None,
                  signal_power: float | None = None) -> ComplexSignal:
    """Multipath + CFO + timing offset + AWGN, in that order.

    The channel is applied as a *linear* convolution with tail retention
    (a streaming receiver never sees the block-circular idealization).
    Noise variance is set against the mean power of the clean convolved
    signal over its nonzero support, measured before the timing offset, so
    zero-padded stretches, the delay prefix included, carry pure white noise
    of the same variance.
    """
    if len(sig.samples) == 0:
        raise ValueError("signal must be non-empty")
    if cfg.timing_offset_samples < 0:
        raise ValueError("timing_offset_samples must be non-negative")
    rng = rng or np.random.default_rng(cfg.seed)
    out = np.convolve(sig.samples, cfg.taps)
    if cfg.cfo_hz != 0.0:
        n = np.arange(len(out))
        out = out * np.exp(2j * np.pi * cfg.cfo_hz * n / sig.sample_rate_hz)
    if signal_power is None and np.isfinite(cfg.snr_db):
        support = np.abs(out) > 0
        signal_power = float(np.mean(np.abs(out[support]) ** 2)) if support.any() else 0.0
    if cfg.timing_offset_samples != 0.0:
        n0 = int(np.floor(cfg.timing_offset_samples))
        frac = cfg.timing_offset_samples - n0
        out = np.concatenate([np.zeros(n0, dtype=np.complex128), out])
        if frac > 0:
            # first-order fractional delay; adequate on the oversampled grid
            delayed = np.concatenate([[0.0], out[:-1]])
            out = (1 - frac) * out + frac * delayed
    if np.isfinite(cfg.snr_db):
        sigma2 = signal_power * 10.0 ** (-cfg.snr_db / 10.0)
        noise = np.sqrt(sigma2 / 2) * (rng.standard_normal(len(out))
                                       + 1j * rng.standard_normal(len(out)))
        out = out + noise
    return ComplexSignal(out, sig.sample_rate_hz)


def rx_frontend(sig: ComplexSignal, cfg: RxFrontendConfig) -> ComplexSignal:
    """Matched filter, group-delay compensation, decimation to the base rate.

    Assumes the transmit interpolation filter had the same length and taps
    as `matched_taps` (DC gain = os_factor), so the combined tx+rx group
    delay is len(taps)-1 oversampled samples and the loopback output aligns
    sample-for-sample with the base-rate transmit stream.
    """
    filtered = np.convolve(sig.samples, cfg.matched_taps) / cfg.os_factor
    delay = len(cfg.matched_taps) - 1
    out = filtered[delay::cfg.os_factor]
    return ComplexSignal(out, sig.sample_rate_hz / cfg.os_factor)
