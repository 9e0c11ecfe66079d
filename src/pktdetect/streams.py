"""The one tx -> channel -> rx link, and full-stream NDP trials on it.

`StreamSimulator` builds the oversampled NDP once and pushes it (or nothing,
for a noise-only stream) through the channel and the receiver front end on
each call.  Dataset generation cuts its labeled blocks from these streams;
stream trials score the correlation detector, always at `DETECTOR`, on
them: start-sample error, miss rate and false-alarm rate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .preamble import (BASE_RATE_HZ, ComplexSignal, PREAMBLE_LEN,
                       build_preamble, default_preamble_spec,
                       design_interp_filter, lts_core, upsample_filter)
from .channel import (ChannelConfig, ChannelTemplate, RxFrontendConfig,
                      apply_channel, draw_model_b_taps, rx_frontend)
from .corrsync import CorrDetectorConfig, coarse_detect, fine_detect

DETECTOR = CorrDetectorConfig()


@dataclass(frozen=True)
class StreamTrialConfig:
    snr_db: float = 20.0
    channel: ChannelTemplate = ChannelTemplate(multipath=False, cfo_max_hz=0.0)
    pre_pad_range: tuple = (100, 300)  # uniform packet position, base samples
    post_pad: int = 100


@dataclass(frozen=True)
class TrialOutcome:
    has_packet: bool
    true_start: int   # -1 for noise-only streams
    detected: bool
    coarse_start: int
    fine_start: int
    snr_db: float


class StreamSimulator:
    """The tx -> channel -> rx link of `cfg.channel`, with its transmit-side
    precomputation, plus stream trials of the correlation detector."""

    def __init__(self, cfg: StreamTrialConfig):
        self.cfg = cfg
        tpl = cfg.channel
        spec = default_preamble_spec()
        self.taps = design_interp_filter(tpl.os_factor, tpl.filter_taps)
        self.rx_cfg = RxFrontendConfig(self.taps, tpl.os_factor)
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
        the transmit power `p_signal_os` as in `receive`."""
        return self.p_signal_os * 10.0 ** (-snr_db / 10.0) * self.noise_gain

    def receive(self, rng: np.random.Generator, snr_db: float, pre: int,
                post: int, has_packet: bool = True,
                span: tuple[int, int] | None = None) -> ComplexSignal:
        """The 1 MHz rx stream of `pre` samples, the NDP (noise only when
        has_packet is false) and `post` samples, then the rx filter tail;
        with span=(lo, hi), only its samples [lo, hi).

        Draws the CFO, then the multipath taps, then the noise from rng;
        the draws are the same with or without a span.  The SNR is set
        against `p_signal_os`, the transmit signal's mean power over its
        support, not against the realized multipath-convolved power.
        """
        tpl = self.cfg.channel
        os = tpl.os_factor
        buf = np.zeros((pre + PREAMBLE_LEN + post) * os + len(self.taps) - 1,
                       dtype=np.complex128)
        if has_packet:
            buf[pre * os:pre * os + len(self.x_os)] = self.x_os
        cfo = (float(rng.uniform(-tpl.cfo_max_hz, tpl.cfo_max_hz))
               if tpl.cfo_max_hz else 0.0)
        taps = (draw_model_b_taps(rng, self.os_rate, tpl.rms_delay_spread_ns)
                if tpl.multipath else np.ones(1))
        ch = ChannelConfig(taps=taps, snr_db=snr_db, cfo_hz=cfo,
                           timing_offset_samples=tpl.fractional_timing_offset)
        # channel output length: the timing offset is below one sample
        n_os = len(buf) + len(taps) - 1
        n_rx = -(-n_os // os)
        lo, hi = (0, n_rx) if span is None else span
        if not 0 <= lo < hi <= n_rx:
            raise ValueError(f"span must lie within [0, {n_rx}]")
        # rx sample m reads channel output samples [m*os, m*os + rx taps)
        os_span = (lo * os, min((hi - 1) * os + len(self.taps), n_os))
        y_os = apply_channel(ComplexSignal(buf, self.os_rate), ch, rng=rng,
                             signal_power=self.p_signal_os, span=os_span)
        rx = rx_frontend(y_os, self.rx_cfg)
        return ComplexSignal(rx.samples[:hi - lo], rx.sample_rate_hz)

    def run_trial(self, rng: np.random.Generator, has_packet: bool,
                  snr_db: float | None = None) -> TrialOutcome:
        """One stream trial at snr_db (default: the config's SNR)."""
        cfg = self.cfg
        snr_db = cfg.snr_db if snr_db is None else snr_db
        pre = int(rng.integers(*cfg.pre_pad_range))
        y = self.receive(rng, snr_db, pre, cfg.post_pad, has_packet)
        res = coarse_detect(y, DETECTOR)
        fine = (fine_detect(y, res.start_sample, self.lts, DETECTOR)
                if res.detected else -1)
        return TrialOutcome(has_packet, pre if has_packet else -1,
                            res.detected, res.start_sample, fine, snr_db)


def evaluate_conventional(trial_cfg: StreamTrialConfig, n_trials: int,
                          seed: int = 0, packet_fraction: float = 0.5,
                          snr_range_db: tuple | None = None) -> list[TrialOutcome]:
    """Run a batch of mixed packet / noise-only trials.

    When snr_range_db is given, each trial draws its own SNR uniformly from
    the range and the simulator runs it at that SNR; otherwise every trial
    uses trial_cfg.snr_db.
    """
    sim = StreamSimulator(trial_cfg)
    outcomes = []
    for i in range(n_trials):
        rng = np.random.default_rng((seed, i))
        snr = (float(rng.uniform(*snr_range_db)) if snr_range_db is not None
               else None)
        has_packet = bool(rng.uniform() < packet_fraction)
        outcomes.append(sim.run_trial(rng, has_packet, snr))
    return outcomes


def summarize(outcomes: list[TrialOutcome]) -> dict:
    """Miss/false-alarm rates and fine-stage MAE over true positives."""
    with_pkt = [o for o in outcomes if o.has_packet]
    without = [o for o in outcomes if not o.has_packet]
    tp = [o for o in with_pkt if o.detected]
    miss = (len(with_pkt) - len(tp)) / len(with_pkt) if with_pkt else 0.0
    false = sum(o.detected for o in without) / len(without) if without else 0.0
    mae = (float(np.mean([abs(o.fine_start - o.true_start) for o in tp]))
           if tp else None)
    return {"miss_rate": miss, "false_alarm_rate": false, "mae": mae,
            "n_trials": len(outcomes)}
