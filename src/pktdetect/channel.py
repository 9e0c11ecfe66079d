"""Channel impairments and receiver front end.

Applies multipath convolution, carrier frequency offset, a timing offset
and AWGN at a target SNR to the oversampled transmit stream, then undoes the
pulse shaping (matched filter + decimation) to recover the 1 MHz stream the
detectors operate on.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

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

    def __post_init__(self):
        if self.os_factor < 1 or self.filter_taps < 1:
            raise ValueError("os_factor and filter_taps must be at least 1")
        if not self.cfo_max_hz >= 0:
            raise ValueError("cfo_max_hz must be non-negative")
        if self.multipath and not self.rms_delay_spread_ns > 0:
            raise ValueError("rms_delay_spread_ns must be positive with multipath")
        if not 0 <= self.fractional_timing_offset < 1:
            raise ValueError("fractional_timing_offset must lie in [0, 1)")


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
    scale = _model_b_tap_scale(os_rate_hz, rms_delay_spread_ns, truncation_factor)
    h = scale * (rng.standard_normal(len(scale))
                 + 1j * rng.standard_normal(len(scale)))
    return h / np.sqrt(np.sum(np.abs(h) ** 2))


@functools.lru_cache(maxsize=16)
def _model_b_tap_scale(os_rate_hz: float, rms_delay_spread_ns: float,
                       truncation_factor: float) -> np.ndarray:
    """Per-tap amplitude sqrt(profile / 2) of the normalized power-delay
    profile (read-only: it is shared between calls)."""
    dt_ns = 1e9 / os_rate_hz
    delays = np.arange(0.0, truncation_factor * rms_delay_spread_ns + 1e-9, dt_ns)
    profile = np.exp(-delays / rms_delay_spread_ns)
    profile /= profile.sum()
    scale = np.sqrt(profile / 2)
    scale.flags.writeable = False
    return scale


def apply_channel(sig: ComplexSignal, cfg: ChannelConfig,
                  rng: np.random.Generator | None = None,
                  signal_power: float | None = None,
                  span: tuple[int, int] | None = None) -> ComplexSignal:
    """Multipath + CFO + timing offset + AWGN, in that order.

    The channel is applied as a *linear* convolution with tail retention
    (a streaming receiver never sees the block-circular idealization).
    Noise variance is set against the mean power of the clean convolved
    signal over its nonzero support, measured before the timing offset, so
    zero-padded stretches, the delay prefix included, carry pure white noise
    of the same variance.

    With span=(lo, hi), only output samples [lo, hi) are computed, from the
    input samples they depend on.  The noise is still drawn for the whole
    output, so the result equals that slice of the output without a span
    and rng is left in the same state.  A span needs signal_power.
    """
    x, taps = sig.samples, cfg.taps
    if len(x) == 0:
        raise ValueError("signal must be non-empty")
    if cfg.timing_offset_samples < 0:
        raise ValueError("timing_offset_samples must be non-negative")
    n0 = int(np.floor(cfg.timing_offset_samples))
    frac = cfg.timing_offset_samples - n0
    n_conv = len(x) + len(taps) - 1
    n_out = n_conv + n0
    lo, hi = (0, n_out) if span is None else span
    if not 0 <= lo <= hi <= n_out:
        raise ValueError(f"span must lie within [0, {n_out}]")
    if span is not None and signal_power is None and np.isfinite(cfg.snr_db):
        raise ValueError("a span needs an explicit signal_power")
    rng = rng or np.random.default_rng(cfg.seed)
    # convolved samples [first, hi - n0) feed outputs [lo, hi): shifted by
    # the integer delay, plus one earlier sample for the fractional delay
    first = lo - n0 - (frac > 0)
    a = max(first, 0)
    b = min(max(hi - n0, a), n_conv)
    s = max(a - len(taps) + 1, 0)
    out = (np.convolve(x[s:b], taps)[a - s:b - s] if b > a
           else np.zeros(0, dtype=np.complex128))
    if cfg.cfo_hz != 0.0:
        n = np.arange(a, b)
        out = out * np.exp(2j * np.pi * cfg.cfo_hz * n / sig.sample_rate_hz)
    if signal_power is None and np.isfinite(cfg.snr_db):
        support = np.abs(out) > 0
        signal_power = float(np.mean(np.abs(out[support]) ** 2)) if support.any() else 0.0
    if a > first:  # samples before the convolved signal starts are zero
        out = np.concatenate([np.zeros(a - first, dtype=np.complex128),
                              out])[:hi - first - n0]
    if frac > 0:
        # first-order fractional delay; adequate on the oversampled grid
        out = (1 - frac) * out[1:] + frac * out[:-1]
    if np.isfinite(cfg.snr_db):
        sigma2 = signal_power * 10.0 ** (-cfg.snr_db / 10.0)
        # full-length draws keep every pinned dataset byte-identical
        re, im = rng.standard_normal(n_out), rng.standard_normal(n_out)
        out = out + np.sqrt(sigma2 / 2) * (re[lo:hi] + 1j * im[lo:hi])
    return ComplexSignal(out, sig.sample_rate_hz)


def rx_frontend(sig: ComplexSignal, cfg: RxFrontendConfig) -> ComplexSignal:
    """Matched filter, group-delay compensation, decimation to the base rate.

    Assumes the transmit interpolation filter had the same length and taps
    as `matched_taps` (DC gain = os_factor), so the combined tx+rx group
    delay is len(taps)-1 oversampled samples and the loopback output aligns
    sample-for-sample with the base-rate transmit stream.

    Polyphase decimation (Crochiere & Rabiner, *Multirate DSP*, 1983): only
    the kept outputs are computed, output k as the inner product of the
    reversed taps with input samples [k*os, k*os + len(taps)), zero past
    the end of the input.
    """
    h, os = cfg.matched_taps, cfg.os_factor
    n = -(-len(sig.samples) // os)
    y = np.zeros(n * os + len(h) - 1, dtype=np.complex128)
    y[:len(sig.samples)] = sig.samples
    windows = as_strided(y, shape=(n, len(h)),
                         strides=(os * y.itemsize, y.itemsize))
    out = windows @ (h[::-1] / os)
    return ComplexSignal(out, sig.sample_rate_hz / os)
