"""The one tx -> channel -> rx link, and full-stream NDP trials on it.

`StreamSimulator` builds the oversampled NDP once and pushes it through the
channel and the receiver front end; a noise-only stream is noise alone.
Dataset generation cuts its labeled blocks from these streams; stream
trials score the correlation detector, always at `DETECTOR`, on them:
start-sample error, miss rate and false-alarm rate.

A stream is made in two steps.  `draw_link` makes the link's random draws
(CFO, multipath taps, unit noise) and the noiseless channel output of the
whole stream, passing the channel only the span its packet reaches: a
noise-only link makes no channel call.  `rx_stream` scales the unit noise
to an SNR, adds it and runs the rx front end.  It also takes rows of
streams of one geometry (a leading row axis, one SNR per row):
`dataset.generate` makes its draws itself, computes only the window each
block keeps through `channel`, and receives a chunk of blocks at once; a
single stream is the one-row case of the same code.
No draw of a trial (packet or not, its position, the link draws)
depends on the SNR, so an SNR sweep draws each trial once and scores it at
every point.  The rx front end is linear, so `rx_streams` filters the
noiseless output and the unit noise once each and forms each point's stream
by a scale-add: a sweep costs one link simulation and one rx front end per
trial, plus a scale-add and detection per point.  The points are paired:
each sees the same packets, positions, CFOs, channels and unit noise, and
only the noise scale differs, so a curve over them reads as a paired
comparison.  Detection never feeds back into a trial's link, so a sweep
simulates the links of all its trials but the first in one forked worker
process (`forked.run`), which sends each trial's streams as one frame
while this process detects, with the same outcomes whether the worker
forks or not (`evaluate_conventional`).
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .preamble import (BASE_RATE_HZ, ComplexSignal, PREAMBLE_LEN,
                       build_preamble, default_preamble_spec,
                       design_interp_filter, lts_core, upsample_filter)
from .channel import (ChannelConfig, ChannelTemplate, add_noise,
                      apply_channel, draw_model_b_taps,
                      noise_scale, rx_frontend)
from . import forked
from .cnn import EvalMetrics, score
from .corrsync import CorrDetectorConfig, coarse_detect, fine_detect

DETECTOR = CorrDetectorConfig()
PRE_PAD_RANGE = (100, 300)  # uniform packet position of a trial, base samples
POST_PAD = 100


@dataclass(frozen=True)
class StreamTrialConfig:
    snr_db: float = 20.0
    channel: ChannelTemplate = ChannelTemplate(multipath=False, cfo_max_hz=0.0)


@dataclass(frozen=True)
class TrialOutcome:
    has_packet: bool
    true_start: int   # -1 for noise-only streams
    detected: bool
    coarse_start: int
    fine_start: int
    snr_db: float


class LinkDraw(NamedTuple):
    """What `StreamSimulator.draw_link` drew for one stream, or for rows of
    streams (a leading row axis on clean and noise): everything but the
    noise scale, which is all that depends on the SNR."""
    has_packet: bool
    clean: np.ndarray   # noiseless oversampled channel output
    noise: tuple        # unit-normal (re, im) over the same samples
    n_rx: int           # rx samples kept


class StreamSimulator:
    """The tx -> channel -> rx link of `cfg.channel`, with its transmit-side
    precomputation, plus stream trials of the correlation detector."""

    def __init__(self, cfg: StreamTrialConfig):
        self.cfg = cfg
        tpl = cfg.channel
        spec = default_preamble_spec()
        self.taps = design_interp_filter(tpl.os_factor, tpl.filter_taps)
        x = build_preamble(spec)
        self.x_os = upsample_filter(x, tpl.os_factor, self.taps).samples
        self.os_rate = BASE_RATE_HZ * tpl.os_factor
        # the SNR reference: the mean power of the transmitted (pre-channel)
        # oversampled signal over its support
        self.p_signal_os = float(np.mean(
            np.abs(self.x_os[np.abs(self.x_os) > 0]) ** 2))
        # variance transfer of the rx front end (matched filter + 1/os scale)
        self.noise_gain = float(np.sum(self.taps ** 2)) / tpl.os_factor ** 2
        self.lts = lts_core(spec)

    def noise_sigma2(self, snr_db: float) -> float:
        """Base-rate noise variance of the rx stream at an SNR, set against
        the transmit power `p_signal_os` as in `rx_stream`."""
        return self.p_signal_os * 10.0 ** (-snr_db / 10.0) * self.noise_gain

    def at_snr(self, snr_db: float) -> "StreamSimulator":
        """This link with its config at another SNR point; the transmit side
        is shared, not rebuilt."""
        sim = copy.copy(self)
        sim.cfg = replace(self.cfg, snr_db=snr_db)
        return sim

    def tx_stream(self, pre: int, post: int) -> np.ndarray:
        """The oversampled transmit stream: `pre` samples, the NDP, `post`
        samples, then the filter tail."""
        os = self.cfg.channel.os_factor
        buf = np.zeros((pre + PREAMBLE_LEN + post) * os + len(self.taps) - 1,
                       dtype=np.complex128)
        buf[pre * os:pre * os + len(self.x_os)] = self.x_os
        return buf

    def draw_channel(self, rng: np.random.Generator,
                     tap_normals: np.ndarray | None = None) -> tuple:
        """(CFO in Hz, multipath taps) of one stream, drawn from rng in that
        order.  Given a (2, n_taps) buffer tap_normals, a multipath channel
        draws its taps' unit normals into it, left for channel.model_b_taps
        to shape, and returns None for the taps."""
        tpl = self.cfg.channel
        cfo = (float(rng.uniform(-tpl.cfo_max_hz, tpl.cfo_max_hz))
               if tpl.cfo_max_hz else 0.0)
        if not tpl.multipath:
            return cfo, np.ones(1)
        if tap_normals is not None:
            rng.standard_normal(out=tap_normals)
            return cfo, None
        return cfo, draw_model_b_taps(rng, self.os_rate, tpl.rms_delay_spread_ns)

    def channel(self, tx: np.ndarray, cfo, taps: np.ndarray, lo,
                hi) -> np.ndarray:
        """Noiseless channel output samples [lo, hi) of the transmit stream
        tx for one drawn channel, or for rows of them (cfo, taps, lo and hi
        one per row; see apply_channel)."""
        offset = self.cfg.channel.fractional_timing_offset
        ch = ChannelConfig(taps=taps, cfo_hz=cfo, timing_offset_samples=offset)
        return apply_channel(ComplexSignal(tx, self.os_rate), ch,
                             span=(lo, hi)).samples

    def draw_link(self, rng: np.random.Generator, pre: int, post: int,
                  has_packet: bool = True) -> LinkDraw:
        """One whole stream's link: the CFO, then the multipath taps, the
        noiseless channel output, then the two unit-normal noise vectors,
        drawn from rng in that order.  The channel computes only the
        outputs the packet reaches; a noise-only link's are all zero."""
        tpl = self.cfg.channel
        tx = self.tx_stream(pre, post)
        cfo, taps = self.draw_channel(rng)
        # channel output length: the timing offset is below one sample
        n_os = len(tx) + len(taps) - 1
        clean = np.zeros(n_os, dtype=np.complex128)
        if has_packet:  # its convolved support, one longer when delayed
            lo = pre * tpl.os_factor
            hi = min(lo + len(self.x_os) + len(taps) - 1
                     + int(tpl.fractional_timing_offset > 0), n_os)
            clean[lo:hi] = self.channel(tx, cfo, taps, lo, hi)
        noise = rng.standard_normal(n_os), rng.standard_normal(n_os)
        return LinkDraw(has_packet, clean, noise,
                        -(-n_os // tpl.os_factor))

    def rx_stream(self, link: LinkDraw, snr_db) -> ComplexSignal:
        """The 1 MHz rx stream of a drawn link at snr_db (one per row for
        rows): its unit noise scaled against `p_signal_os`, the transmit
        signal's mean power over its support (not the realized
        multipath-convolved power), and added to the channel output, then
        the rx front end.  An snr_db of +inf adds no noise."""
        y = link.clean.copy()
        add_noise(y, *link.noise, self.p_signal_os, snr_db)
        return rx_frontend(ComplexSignal(y, self.os_rate), self.taps,
                           self.cfg.channel.os_factor, n_out=link.n_rx)

    def rx_streams(self, link: LinkDraw, snrs_db) -> list[ComplexSignal]:
        """rx_stream(link, snr) for each point of snrs_db, from one rx front
        end call.

        The front end is linear, so it filters the noiseless channel output
        and the complex unit noise re + 1j*im once each, and a finite
        point's stream is rx(clean) + g * rx(noise), g the noise_scale that
        add_noise scales by.  That agrees with rx_stream to rounding, not bit
        for bit: the filter sums in another order.  A +inf point's stream is
        rx(clean) itself, as rx_stream's is.  A noise-only link's channel
        output is exactly zero, so its clean row is not filtered: rx(clean)
        is zero."""
        os = self.cfg.channel.os_factor
        rows = np.empty((int(link.has_packet) + 1, len(link.clean)),
                        dtype=np.complex128)
        rows[-1].real, rows[-1].imag = link.noise
        if link.has_packet:
            rows[0] = link.clean
        rx = rx_frontend(ComplexSignal(rows, self.os_rate), self.taps, os,
                         n_out=link.n_rx)
        noise = rx.samples[-1]
        clean = rx.samples[0] if link.has_packet else np.zeros_like(noise)
        return [ComplexSignal(
            clean if snr == math.inf
            else clean + noise_scale(self.p_signal_os, snr) * noise,
            rx.sample_rate_hz) for snr in snrs_db]

    def run_trial(self, y: ComplexSignal, has_packet: bool,
                  pre: int) -> TrialOutcome:
        """The correlation detector on y, a trial's rx stream at the
        config's SNR, whose packet (if has_packet) starts at sample pre."""
        res = coarse_detect(y, DETECTOR)
        fine = (fine_detect(y, res.start_sample, self.lts)
                if res.detected else -1)
        return TrialOutcome(has_packet, pre if has_packet else -1,
                            res.detected, res.start_sample, fine,
                            self.cfg.snr_db)


def evaluate_conventional(trial_cfg: StreamTrialConfig, n_trials: int,
                          seed: int = 0, packet_fraction: float = 0.5,
                          snrs_db: tuple | None = None
                          ) -> list[list[TrialOutcome]]:
    """Run a batch of mixed packet / noise-only trials at each SNR point;
    returns one list of outcomes per point, trials in order.

    The points are snrs_db, or trial_cfg.snr_db alone: each a number of dB
    or +inf, a noiseless point.  Each trial is drawn once and scored at
    every point, so the points are paired: they see the same packets,
    positions, CFOs, channels and unit noise, and only the noise scale
    differs.  With more than one point, a trial costs one link simulation
    and one rx front end (rx_streams), plus a scale-add and detection per
    point; a lone point keeps rx_stream's add-then-filter.

    A trial runs in two parts: the link and the rx front end
    (`_simulate_trial`), which detection never feeds back into, then
    detection, one `run_trial` per point, always in this process, trials
    in order.  The first trial's link is simulated here, the others' by a
    forked worker (`forked.run`, where `forked.worker_count` allows one),
    which sends each trial through its pipe as one frame while this
    process detects; without one this process simulates them all.  Each
    stream arrives in an array of its own, so keeping one keeps no other
    alive.  A trial draws from its own (seed, index) substream, so the
    outcomes do not depend on the worker.
    """
    snrs = (trial_cfg.snr_db,) if snrs_db is None else tuple(snrs_db)
    for snr in snrs:
        noise_scale(1.0, snr)  # ValueError at a NaN or -inf point
    sim = StreamSimulator(trial_cfg)
    points = [sim.at_snr(snr) for snr in snrs]
    outcomes = [[] for _ in points]
    helped = forked.worker_count(n_trials)

    def simulate(i):
        return _simulate_trial(sim, i, seed, packet_fraction, snrs)

    def work(send):  # a frame a trial: (pre, has_packet), then its streams
        for i in range(1, n_trials):
            pre, has_packet, ys = simulate(i)
            send(np.array([pre, has_packet], np.int64), *ys)

    def received(receive):  # each stream copied into an array of its own
        frame = receive()
        pre, has_packet = np.frombuffer(frame, np.int64, 2).tolist()
        rows = np.frombuffer(frame, np.complex128, offset=16)
        return pre, has_packet, [y.copy() for y in
                                 rows.reshape(len(snrs), -1)]

    def detect(receive):
        for i in range(n_trials):
            pre, has_packet, ys = (received(receive) if i and helped else
                                   simulate(i))
            for point, y, out in zip(points, ys, outcomes):
                out.append(point.run_trial(ComplexSignal(y, BASE_RATE_HZ),
                                           bool(has_packet), pre))

    forked.run(work if helped else None, detect, "sweep")
    return outcomes


def _simulate_trial(sim: StreamSimulator, i: int, seed: int,
                    packet_fraction: float, snrs) -> tuple:
    """evaluate_conventional's trial i up to detection: (pre, has_packet,
    the samples of its rx streams, one array per point)."""
    rng = np.random.default_rng((seed, i))
    has_packet = bool(rng.uniform() < packet_fraction)
    pre = int(rng.integers(*PRE_PAD_RANGE))
    link = sim.draw_link(rng, pre, POST_PAD, has_packet)
    # filter once and scale-add per point only for several points: a lone
    # point's add-then-filter filters one row, not two (a measured 119
    # against 205 us on a packet trial)
    ys = (sim.rx_streams(link, snrs) if len(snrs) > 1 else
          [sim.rx_stream(link, snrs[0])])
    return pre, has_packet, [y.samples for y in ys]


def summarize(outcomes: list[TrialOutcome]) -> EvalMetrics:
    """The correlator's `score` on trial outcomes: the fine-stage start is
    its estimate, and a trial's SNR point is its tag."""
    return score([o.has_packet for o in outcomes],
                 [o.detected for o in outcomes],
                 [abs(o.fine_start - o.true_start) for o in outcomes],
                 [o.snr_db for o in outcomes])
