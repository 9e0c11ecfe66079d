"""Channel impairments and receiver front end.

Applies multipath convolution, carrier frequency offset and a fractional
timing offset to the oversampled transmit stream (apply_channel), adds
white noise at an SNR (add_noise), then undoes the pulse shaping (matched
filter + decimation) to recover the 1 MHz stream the detectors operate on.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .preamble import ComplexSignal


def set_int_fields(obj, minimums: dict) -> None:
    """Check that each named field of the frozen dataclass obj is an integer
    (a numpy one too, but not a bool) of at least its minimum, and store it
    as a Python int; ValueError otherwise."""
    for name, minimum in minimums.items():
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, not {value!r}")
        if value < minimum:
            raise ValueError(f"{name} must be at least {minimum}, not {value}")
        object.__setattr__(obj, name, int(value))


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
        set_int_fields(self, {"os_factor": 1, "filter_taps": 1})
        if not self.cfo_max_hz >= 0:
            raise ValueError("cfo_max_hz must be non-negative")
        if self.multipath and not self.rms_delay_spread_ns > 0:
            raise ValueError("rms_delay_spread_ns must be positive with multipath")
        if not 0 <= self.fractional_timing_offset < 1:
            raise ValueError("fractional_timing_offset must lie in [0, 1)")


@dataclass
class ChannelConfig:
    """Impairment parameters; taps are power-normalized at construction.

    One channel, or rows of channels (see apply_channel): taps of shape
    (rows, n_taps), each row normalized on its own, and cfo_hz one value
    or one per row.  The timing offset is a fraction of an oversampled
    sample, in [0, 1); a stream delays its packet by whole samples through
    the packet's position in it.
    """

    taps: np.ndarray = field(default_factory=lambda: np.ones(1, dtype=np.complex128))
    cfo_hz: float | np.ndarray = 0.0
    timing_offset_samples: float = 0.0

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=np.complex128)
        power = (np.abs(taps) ** 2).sum(axis=-1, keepdims=True)
        if not power.all():
            raise ValueError("channel taps must carry nonzero power")
        self.taps = taps / np.sqrt(power)
        if not 0 <= self.timing_offset_samples < 1:
            raise ValueError("timing_offset_samples must lie in [0, 1)")


TRUNCATION_FACTOR = 5.0  # model-B profile length, in RMS delay spreads


def draw_model_b_taps(rng: np.random.Generator, os_rate_hz: float,
                      rms_delay_spread_ns: float = 80.0) -> np.ndarray:
    """One indoor multipath realization on the oversampled tap grid.

    Exponentially decaying power-delay profile with the given RMS delay
    spread, truncated at TRUNCATION_FACTOR times the spread, Rayleigh
    (circularly-symmetric Gaussian) taps, power-normalized to 1: the
    model_b_taps of the real, then the imaginary unit normals drawn from
    rng.
    """
    if os_rate_hz < 1e6:
        raise ValueError("os_rate_hz must be at least 1 MHz")
    n_taps = len(model_b_tap_scale(os_rate_hz, rms_delay_spread_ns))
    return model_b_taps(rng.standard_normal((2, n_taps)), os_rate_hz,
                        rms_delay_spread_ns)


def model_b_taps(normals: np.ndarray, os_rate_hz: float,
                 rms_delay_spread_ns: float = 80.0) -> np.ndarray:
    """The model-B taps shaped from unit normals of shape (2, n_taps) (real
    parts, then imaginary parts), or from rows of them (rows, 2, n_taps):
    each row is scaled by the power-delay profile and power-normalized on
    its own, with the arithmetic of a lone row."""
    scale = model_b_tap_scale(os_rate_hz, rms_delay_spread_ns)
    h = scale * (normals[..., 0, :] + 1j * normals[..., 1, :])
    return h / np.sqrt((np.abs(h) ** 2).sum(axis=-1, keepdims=True))


@functools.lru_cache(maxsize=16)
def model_b_tap_scale(os_rate_hz: float, rms_delay_spread_ns: float) -> np.ndarray:
    """Per-tap amplitude sqrt(profile / 2) of the normalized power-delay
    profile (read-only: it is shared between calls)."""
    dt_ns = 1e9 / os_rate_hz
    delays = np.arange(0.0, TRUNCATION_FACTOR * rms_delay_spread_ns + 1e-9, dt_ns)
    profile = np.exp(-delays / rms_delay_spread_ns)
    profile /= profile.sum()
    scale = np.sqrt(profile / 2)
    scale.flags.writeable = False
    return scale


def apply_channel(sig: ComplexSignal, cfg: ChannelConfig,
                  span: tuple | None = None) -> ComplexSignal:
    """Multipath + CFO + fractional timing offset, in that order; noiseless.

    The channel is applied as a *linear* convolution with tail retention
    (a streaming receiver never sees the block-circular idealization).  The
    link adds its noise to this output (add_noise, called from
    StreamSimulator.rx_stream).

    The convolution is one shifted multiply-add per tap, in tap order;
    against a complex np.convolve it agrees to 1e-15 relative in float64
    with multipath and bit for bit with a single tap.

    With span=(lo, hi), only output samples [lo, hi) are computed, from the
    input samples they depend on; the result equals that slice of the
    output without a span.  Every output of the span is computed: the link
    (StreamSimulator.draw_link) passes its packet's span, or makes no call.

    Rows: with taps of shape (rows, n_taps) (see ChannelConfig), each row
    is the channel of its own taps and CFO applied to the same input, and
    the output has one row per row.  lo and hi may then be one per row, the
    same hi - lo for every row.  Each row gets the bytes it would get alone.
    """
    x, taps = sig.samples, cfg.taps
    if len(x) == 0:
        raise ValueError("signal must be non-empty")
    taps = taps.reshape(-1, taps.shape[-1])  # one row per channel
    rows, n_taps = taps.shape
    frac = cfg.timing_offset_samples
    delay = int(frac > 0)  # the fractional delay reads one earlier sample
    n_out = len(x) + n_taps - 1
    lo, hi = (0, n_out) if span is None else span
    lo = np.zeros(rows, dtype=np.int64) + lo  # one start per row
    widths = (hi - lo).tolist()
    m, lo_min, lo_max = widths[0], min(lo.tolist()), max(lo.tolist())
    if lo_min < 0 or lo_max + m > n_out or m < 0 or min(widths) != max(widths):
        raise ValueError(f"span must lie within [0, {n_out}], "
                         "one length for all rows")
    # a row's outputs [lo, hi) read convolved samples [lo - delay, hi),
    # which read its input samples [s, s + width), zero outside x
    first = lo - delay
    width = m + delay + n_taps - 1
    s_min = lo_min - delay - (n_taps - 1)
    xp, pad = x, 0
    if s_min < 0 or lo_max + m > len(x):
        pad = max(-s_min, 0)
        xp = np.zeros(pad + max(len(x), lo_max + m), dtype=np.complex128)
        xp[pad:pad + len(x)] = x
    if rows == 1:  # a view, not a gather
        xs = xp[None, s_min + pad:s_min + pad + width]
    else:
        s = first - (n_taps - 1) + pad
        xs = xp[s[:, None] + np.arange(width)]
    z = np.zeros((rows, m + delay), dtype=np.complex128)
    for k in range(n_taps):  # z[c] += taps[k] * x[c - k]
        z += taps[:, k, None] * xs[:, n_taps - 1 - k:width - k]
    cfo = np.asarray(cfg.cfo_hz)  # one, or one per row
    if cfo.any():
        # cos + i sin of the phase, which is what exp(2j*pi*f*n/fs)
        # computes: numpy divides a complex by a real as a multiply by
        # the reciprocal, so the phase is scaled by 1/fs, not divided
        n = first[:, None] + np.arange(m + delay)
        phase = n * (2 * np.pi * cfo).reshape(-1, 1)
        phase *= 1 / sig.sample_rate_hz
        rot = np.empty(phase.shape, dtype=np.complex128)
        rot.real, rot.imag = np.cos(phase), np.sin(phase)
        z *= rot
    if delay:
        # first-order fractional delay; adequate on the oversampled grid
        z = (1 - frac) * z[:, 1:] + frac * z[:, :-1]
    return ComplexSignal(z[0] if cfg.taps.ndim == 1 else z, sig.sample_rate_hz)


def noise_scale(signal_power: float, snr_db: float) -> float:
    """The factor of each unit normal of complex white noise at snr_db
    against signal_power: the noise variance signal_power *
    10^(-snr_db/10), split evenly between the real and imaginary parts; 0
    at +inf.  Computed in Python floats, so every caller gets the same
    bits.  ValueError for a NaN or -inf snr_db, which has no noise level."""
    if math.isnan(snr_db) or snr_db == -math.inf:
        raise ValueError(f"snr_db must be a number of dB or +inf, not {snr_db}")
    return math.sqrt(signal_power * 10.0 ** (-snr_db / 10.0) / 2)


def check_snr_range(snr_range_db) -> None:
    """ValueError unless snr_range_db is two finite dB bounds, low <= high."""
    if (len(snr_range_db) != 2 or not all(map(math.isfinite, snr_range_db))
            or snr_range_db[0] > snr_range_db[1]):
        raise ValueError(f"snr_range_db {tuple(snr_range_db)} must be two "
                         "finite values in dB, low <= high")


def add_noise(out: np.ndarray, re: np.ndarray, im: np.ndarray,
              signal_power: float, snr_db) -> None:
    """Add complex white noise at snr_db against signal_power to out, in
    place, scaled from the unit normals re and im (out's shape each) by
    noise_scale.  snr_db is one value, or an array of one finite value per
    row of a 2-D out.  A single snr_db of +inf adds none; NaN or -inf
    raise ValueError."""
    if isinstance(snr_db, np.ndarray):
        g = np.array([[noise_scale(signal_power, snr)]
                      for snr in snr_db.tolist()])
    elif snr_db == math.inf:
        return
    else:
        g = noise_scale(signal_power, snr_db)
    out.real += g * re
    out.imag += g * im


def rx_frontend(sig: ComplexSignal, taps: np.ndarray, os_factor: int,
                n_out: int | None = None) -> ComplexSignal:
    """Matched filter, group-delay compensation, decimation to the base rate.

    The matched filter is `taps`, the transmit interpolation filter's own
    taps (DC gain = os_factor), so the combined tx+rx group delay is
    len(taps)-1 oversampled samples and the loopback output aligns
    sample-for-sample with the base-rate transmit stream.

    Polyphase decimation (Crochiere & Rabiner, *Multirate DSP*, 1983): only
    the kept outputs are computed, output k as the inner product of the
    reversed taps with input samples [k*os, k*os + len(taps)), zero past
    the end of the input.  The outputs kept are the first n_out, by default
    every one whose window starts inside the input.  A 2-D input is rows of
    streams (time along the last axis), each filtered on its own.
    """
    h, os = taps, os_factor
    x = sig.samples
    n = -(-x.shape[-1] // os) if n_out is None else n_out
    # at least two outputs: numpy's matmul sends a single one to BLAS dot,
    # which sums in another order
    n_calc = max(n, 2)
    y = x
    if x.shape[-1] < (n_calc - 1) * os + len(h):
        y = np.zeros(x.shape[:-1] + ((n_calc - 1) * os + len(h),),
                     dtype=np.complex128)
        y[..., :x.shape[-1]] = x
    step = y.strides[-1]
    windows = as_strided(y, shape=y.shape[:-1] + (n_calc, len(h)),
                         strides=y.strides[:-1] + (os * step, step))
    out = windows @ (h[::-1] / os)
    return ComplexSignal(out[..., :n], sig.sample_rate_hz / os)
