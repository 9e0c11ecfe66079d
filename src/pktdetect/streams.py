"""Full-stream NDP trials for the conventional detector.

Simulates noise-padded NDP packets (or noise-only streams) through the
transmit/channel/receiver chain and scores the correlation detector on
them: start-sample error, miss rate and false-alarm rate.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .preamble import (ComplexSignal, OfdmParams, PreambleSpec,
                       build_preamble, default_preamble_spec,
                       design_interp_filter, lts_core, upsample_filter)
from .channel import (ChannelConfig, RxFrontendConfig, apply_channel,
                      draw_model_b_taps, rx_frontend)
from .corrsync import CorrDetectorConfig, coarse_detect, fine_detect


@dataclass(frozen=True)
class StreamTrialConfig:
    snr_db: float = 20.0
    os_factor: int = 4
    filter_taps: int = 48
    cfo_max_hz: float = 0.0
    multipath: bool = False
    rms_delay_spread_ns: float = 80.0
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
    """Reusable transmit-side precomputation for stream trials."""

    def __init__(self, cfg: StreamTrialConfig,
                 preamble_spec: PreambleSpec | None = None):
        self.cfg = cfg
        self.params = OfdmParams()
        spec = preamble_spec or default_preamble_spec()
        self.taps = design_interp_filter(cfg.os_factor, cfg.filter_taps)
        self.rx_cfg = RxFrontendConfig(self.taps, cfg.os_factor)
        self.x = build_preamble(spec, self.params)
        self.x_os = upsample_filter(self.x, cfg.os_factor, self.taps).samples
        self.os_rate = self.params.base_sample_rate_hz * cfg.os_factor
        self.p_signal_os = float(np.mean(
            np.abs(self.x_os[np.abs(self.x_os) > 0]) ** 2))
        self.lts = lts_core(spec, self.params)

    def run_trial(self, rng: np.random.Generator, has_packet: bool,
                  detector: CorrDetectorConfig | None = None,
                  snr_db: float | None = None) -> TrialOutcome:
        """One stream trial at snr_db (default: the config's SNR)."""
        cfg = self.cfg
        snr_db = cfg.snr_db if snr_db is None else snr_db
        detector = detector or CorrDetectorConfig()
        pre = int(rng.integers(*cfg.pre_pad_range))
        base_len = pre + len(self.x.samples) + cfg.post_pad
        buf = np.zeros(base_len * cfg.os_factor + len(self.taps) - 1,
                       dtype=np.complex128)
        if has_packet:
            lo = pre * cfg.os_factor
            buf[lo:lo + len(self.x_os)] = self.x_os
        cfo = (float(rng.uniform(-cfg.cfo_max_hz, cfg.cfo_max_hz))
               if cfg.cfo_max_hz else 0.0)
        taps = (draw_model_b_taps(rng, self.os_rate, cfg.rms_delay_spread_ns)
                if cfg.multipath else np.ones(1))
        ch = ChannelConfig(taps=taps, snr_db=snr_db, cfo_hz=cfo)
        y_os = apply_channel(ComplexSignal(buf, self.os_rate), ch, rng=rng,
                             signal_power=self.p_signal_os)
        y = rx_frontend(y_os, self.rx_cfg)
        res = coarse_detect(y, detector)
        fine = (fine_detect(y, res.start_sample, self.lts, detector)
                if res.detected else -1)
        return TrialOutcome(has_packet, pre if has_packet else -1,
                            res.detected, res.start_sample, fine, snr_db)


def evaluate_conventional(trial_cfg: StreamTrialConfig, n_trials: int,
                          seed: int = 0, packet_fraction: float = 0.5,
                          detector: CorrDetectorConfig | None = None,
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
        outcomes.append(sim.run_trial(rng, has_packet, detector, snr))
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
