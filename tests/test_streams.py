import math
import os
from dataclasses import replace

import numpy as np
import pytest

from conftest import (oracle_apply_channel, oracle_evaluate_conventional,
                      oracle_receive, receive)
from pktdetect import corrsync, streams
from pktdetect.channel import ChannelTemplate, rx_frontend
from pktdetect.preamble import PREAMBLE_LEN, ComplexSignal
from pktdetect.streams import (StreamSimulator, StreamTrialConfig,
                               TrialOutcome, evaluate_conventional, summarize)


@pytest.fixture(scope="module")
def awgn_sim():
    return StreamSimulator(StreamTrialConfig(snr_db=20.0))


class TestReceive:
    @pytest.mark.parametrize("pre, post", [(40, 56), (160, 176), (123, 100)],
                             ids=["dataset-b40", "dataset-b160", "trial"])
    def test_clean_stream_geometry(self, awgn_sim, preamble, pre, post):
        # the preamble sits at sample `pre` of a pre + NDP + post stream,
        # followed only by the rx filter tail
        y = receive(awgn_sim, np.random.default_rng(0), np.inf, pre, post).samples
        n = pre + PREAMBLE_LEN + post
        os = awgn_sim.cfg.channel.os_factor
        assert n < len(y) <= n + len(awgn_sim.taps) // os
        expected = np.zeros(n, dtype=np.complex128)
        expected[pre:pre + PREAMBLE_LEN] = preamble.samples
        assert np.abs(y[:n] - expected).max() < 10 ** (-40 / 20)

    @pytest.mark.parametrize("channel", [
        ChannelTemplate(multipath=False, cfo_max_hz=0.0), ChannelTemplate(),
        ChannelTemplate(fractional_timing_offset=0.5)],
        ids=["awgn", "multipath-cfo", "fractional-offset"])
    @pytest.mark.parametrize("snr_db", [12.0, np.inf])
    @pytest.mark.parametrize("pre, post, span", [
        (40, 56, (1, 80)), (40, 56, (41, 640)),
        (160, 176, (1, 320)), (160, 176, (161, 880)),
        (123, 100, (0, 500)), (123, 100, (700, 795))],
        ids=["b40-start", "b40-mid-tail", "b160-start", "b160-mid-tail",
             "trial-head", "trial-tail"])
    def test_span_is_slice_of_whole_stream(self, channel, snr_db, pre, post,
                                           span):
        # the path dataset.generate runs: the channel output under rx
        # samples [lo, hi) alone, with that slice of the unit noise
        sim = StreamSimulator(StreamTrialConfig(channel=channel))
        link = sim.draw_link(np.random.default_rng(5), pre, post)
        full = sim.rx_stream(link, snr_db).samples
        lo, hi = span
        # rx sample m reads channel output samples [m*os, m*os + rx taps)
        os = channel.os_factor
        os_lo = lo * os
        os_hi = min((hi - 1) * os + len(sim.taps), len(link.clean))
        cfo, taps = sim.draw_channel(np.random.default_rng(5))
        clean = sim.channel(sim.tx_stream(pre, post), cfo, taps, os_lo, os_hi)
        noise = tuple(n[os_lo:os_hi] for n in link.noise)
        part = sim.rx_stream(streams.LinkDraw(True, clean, noise, hi - lo),
                             snr_db).samples
        assert len(part) == hi - lo
        np.testing.assert_allclose(part, full[lo:hi], rtol=1e-12,
                                   atol=1e-12 * np.abs(full).max())

    @pytest.mark.parametrize("channel", [
        ChannelTemplate(multipath=False, cfo_max_hz=0.0), ChannelTemplate(),
        ChannelTemplate(fractional_timing_offset=0.5)],
        ids=["awgn", "multipath-cfo", "fractional-offset"])
    @pytest.mark.parametrize("has_packet", [True, False],
                             ids=["packet", "noise-only"])
    def test_clean_is_whole_stream_channel(self, channel, has_packet):
        # draw_link computes only the packet's span; every other output of
        # the whole-stream channel is zero, a noise-only one everywhere.
        # The NDP ends in exact zeros, so the last packet, nonzero at both
        # ends, is the one that shows a span one sample short
        sim = StreamSimulator(StreamTrialConfig(channel=channel))
        ndp = sim.x_os
        for seed, packet in [(0, ndp), (1, ndp), (2, ndp + 1)]:
            sim.x_os = packet
            link = sim.draw_link(np.random.default_rng(seed), 123, 100,
                                 has_packet)
            cfo, taps = sim.draw_channel(np.random.default_rng(seed))
            tx = sim.tx_stream(123, 100)
            if not has_packet:
                tx = np.zeros_like(tx)
            whole = sim.channel(tx, cfo, taps, 0, len(link.clean))
            assert len(whole) == len(tx) + len(taps) - 1
            assert (link.clean == whole).all()
            assert has_packet == link.clean.any()

    @pytest.mark.parametrize("channel", [
        ChannelTemplate(multipath=False, cfo_max_hz=0.0), ChannelTemplate(),
        ChannelTemplate(fractional_timing_offset=0.5)],
        ids=["awgn", "multipath-cfo", "fractional-offset"])
    @pytest.mark.parametrize("b", [40, 160])
    def test_float32_amplitudes_match_oracle_link(self, channel, b,
                                                  monkeypatch):
        # the rx samples START and MID_TAIL windows of dataset.generate can
        # read, as it stores them: |y| in float32
        sim = StreamSimulator(StreamTrialConfig(channel=channel))
        cases = [(seed, snr) for seed in range(4) for snr in (3.0, 17.0, np.inf)]

        def amplitudes():
            return [np.abs(receive(sim, np.random.default_rng(seed), snr, b,
                                   b + 16).samples[1:2 * b + PREAMBLE_LEN])
                    .astype(np.float32) for seed, snr in cases]

        fast = amplitudes()
        monkeypatch.setattr(streams, "apply_channel", oracle_apply_channel)
        for new, old in zip(fast, amplitudes()):
            np.testing.assert_array_equal(new, old)

    @pytest.mark.parametrize("channel", [
        ChannelTemplate(multipath=False, cfo_max_hz=0.0), ChannelTemplate()],
        ids=["awgn", "multipath-cfo"])
    def test_noise_level_is_noise_sigma2(self, channel):
        # one noise floor: the rx samples of noise-only streams carry the
        # variance that dataset NOISE_ONLY blocks are scaled to
        sim = StreamSimulator(StreamTrialConfig(channel=channel))
        os, power = channel.os_factor, []
        for seed in range(200):
            link = sim.draw_link(np.random.default_rng(seed), 123, 100,
                                 has_packet=False)
            y = sim.rx_stream(link, 10.0).samples
            # rx sample m reads channel output [m*os, m*os + len(taps))
            inside = (len(link.clean) - len(sim.taps)) // os + 1
            power.append(np.abs(y[:inside]) ** 2)
        assert np.mean(np.concatenate(power)) == pytest.approx(
            sim.noise_sigma2(10.0), rel=0.05)

    def test_cfo_uniform_within_its_range(self):
        # gen and the sweep draw a stream's CFO in draw_channel: uniform on
        # (-cfo_max_hz, cfo_max_hz).  The Kolmogorov-Smirnov distance of n
        # draws exceeds eps with probability at most 2 exp(-2 n eps^2)
        # (Dvoretzky-Kiefer-Wolfowitz), 1e-6 at the eps used here
        n, top = 4000, 18_000.0
        sim = StreamSimulator(StreamTrialConfig(
            channel=ChannelTemplate(cfo_max_hz=top)))
        cfo = np.sort([sim.draw_channel(np.random.default_rng((3, i)))[0]
                       for i in range(n)])
        assert np.all(np.abs(cfo) <= top)
        u = (cfo + top) / (2 * top)  # Uniform(0, 1) if the draw is right
        ks = max(np.max(np.arange(1, n + 1) / n - u),
                 np.max(u - np.arange(n) / n))
        assert ks < math.sqrt(math.log(2 / 1e-6) / (2 * n))

    def test_zero_cfo_range_draws_zero(self):
        sim = StreamSimulator(StreamTrialConfig(
            channel=ChannelTemplate(cfo_max_hz=0.0)))
        for i in range(50):
            assert sim.draw_channel(np.random.default_rng((3, i)))[0] == 0.0


class TestRunTrial:
    def test_packet_trial_fields(self, awgn_sim):
        y = receive(awgn_sim, np.random.default_rng(0), 20.0, 123, 100)
        out = awgn_sim.run_trial(y, True, 123)
        assert out.has_packet
        assert out.true_start == 123
        assert out.snr_db == 20.0

    def test_noise_trial_fields(self, awgn_sim):
        y = receive(awgn_sim, np.random.default_rng(1), 20.0, 123, 100,
                    has_packet=False)
        out = awgn_sim.run_trial(y, False, 123)
        assert not out.has_packet
        assert out.true_start == -1

    def test_high_snr_accuracy(self, awgn_sim):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            pre = int(rng.integers(100, 300))
            y = receive(awgn_sim, rng, 20.0, pre, 100)
            out = awgn_sim.run_trial(y, True, pre)
            if out.detected and abs(out.fine_start - out.true_start) <= 2:
                hits += 1
        assert hits >= 19

    def test_at_snr_shares_transmit_side(self, awgn_sim):
        sim = awgn_sim.at_snr(3.0)
        assert sim.cfg == replace(awgn_sim.cfg, snr_db=3.0)
        assert awgn_sim.cfg.snr_db == 20.0
        assert sim.x_os is awgn_sim.x_os and sim.lts is awgn_sim.lts


class TestEvaluate:
    def test_deterministic(self):
        cfg = StreamTrialConfig(snr_db=20.0)
        a = evaluate_conventional(cfg, 10, seed=3)
        b = evaluate_conventional(cfg, 10, seed=3)
        assert a == b

    def test_summary_rates(self):
        outcomes = [
            TrialOutcome(True, 100, True, 100, 100, 20.0),
            TrialOutcome(True, 100, False, -1, -1, 20.0),
            TrialOutcome(False, -1, True, 50, 48, 20.0),
            TrialOutcome(False, -1, False, -1, -1, 20.0),
        ]
        s = summarize(outcomes)
        assert s.miss_rate == 0.5
        assert s.false_alarm_rate == 0.5
        assert s.mae == 0.0
        assert s.n == 4

    def test_summary_empty_true_positives(self):
        s = summarize([TrialOutcome(True, 100, False, -1, -1, 20.0)])
        assert s.mae is None

    def test_summary_empty_denominators_are_none(self):
        # no packet trial: no miss rate; no packet-free trial: no false
        # alarm rate (0.0 would read as a perfect detector)
        s = summarize([TrialOutcome(False, -1, True, 5, 5, 20.0)])
        assert s.miss_rate is None and s.false_alarm_rate == 1.0
        s = summarize([TrialOutcome(True, 100, True, 100, 100, 20.0)])
        assert s.miss_rate == 0.0 and s.false_alarm_rate is None


# The correlator's rates on AWGN at -3 dB, where it misses about half its
# packets, held to a reference measured once on 40 000 trials of seed 11
# (events, trials; miss 0.488, false alarm 0): a guard on detection that
# still holds when a change moves the random streams and re-pins
# test_pinned_streams.  An arm checks the difference of two independent
# binomial estimates: by Hoeffding's inequality each lies within
# sqrt(ln(4 / RATE_DELTA) / (2 n)) of its rate except with probability
# RATE_DELTA / 2, so an arm fails correct code with probability at most
# RATE_DELTA
RATE_SNR_DB = -3.0
RATE_TRIALS = 4000
RATE_DELTA = 1e-6
RATE_REFERENCE = {"miss": (9799, 20067), "false alarm": (0, 19933)}


def hoeffding(n: int) -> float:
    return math.sqrt(math.log(4 / RATE_DELTA) / (2 * n))


def arms_off_reference(seed: int) -> dict:
    """The arms whose rate over RATE_TRIALS trials of seed differs from
    RATE_REFERENCE's by more than the bound: arm -> (rate, reference,
    bound)."""
    cfg = StreamTrialConfig(snr_db=RATE_SNR_DB, channel=ChannelTemplate(
        multipath=False, cfo_max_hz=0.0))
    outcomes, = evaluate_conventional(cfg, RATE_TRIALS, seed=seed)
    packets = [o.detected for o in outcomes if o.has_packet]
    quiet = [o.detected for o in outcomes if not o.has_packet]
    got = {"miss": (len(packets) - sum(packets), len(packets)),
           "false alarm": (sum(quiet), len(quiet))}
    off = {}
    for arm, (k, n) in got.items():
        k_ref, n_ref = RATE_REFERENCE[arm]
        bound = hoeffding(n) + hoeffding(n_ref)
        if abs(k / n - k_ref / n_ref) > bound:
            off[arm] = (k / n, k_ref / n_ref, bound)
    return off


class TestRatesAgainstReference:
    def test_rates_within_bound(self):
        assert arms_off_reference(seed=1) == {}

    # seed 1's rates under each fault; the false-alarm arm's Hoeffding
    # bound, about 0.08, lets through a threshold of 0.08 (fa 0.05)
    @pytest.mark.parametrize("constant, value, arms", [
        ("TRIGGER_THRESHOLD", 0.55, {"miss"}),                  # miss 0.76
        ("TRIGGER_DWELL", 4, {"miss"}),                         # miss 0.35
        ("TRIGGER_THRESHOLD", 0.05, {"miss", "false alarm"})],  # fa 0.38
        ids=["threshold-0.55", "dwell-4", "threshold-0.05"])
    def test_planted_fault_rejected(self, monkeypatch, constant, value, arms):
        monkeypatch.setattr(corrsync, constant, value)
        assert set(arms_off_reference(seed=1)) == arms


SWEEP_CHANNELS = [ChannelTemplate(multipath=False, cfo_max_hz=0.0),
                  ChannelTemplate()]
POINTS = (0.0, 10.0, 25.0, np.inf, 10.0)


@pytest.mark.parametrize("channel", SWEEP_CHANNELS,
                         ids=["awgn", "multipath-cfo"])
@pytest.mark.parametrize("seed", [1, 9001])
class TestSharedSweep:
    """evaluate_conventional draws each trial once and scores it at every
    point; the per-point loop it replaced is the oracle."""

    def test_outcomes_match_per_point_loop(self, channel, seed):
        cfg = StreamTrialConfig(channel=channel)
        per_point = evaluate_conventional(cfg, 40, seed=seed, snrs_db=POINTS)
        assert len(per_point) == len(POINTS)
        for snr, outcomes in zip(POINTS, per_point):
            assert outcomes == oracle_evaluate_conventional(
                replace(cfg, snr_db=snr), 40, seed=seed)

    def test_rx_streams_equal_receive(self, channel, seed, monkeypatch):
        # several points filter the clean and noise rows once and scale-add
        # per point: byte for byte that, built here from rx_frontend, and
        # within rounding the add-then-filter stream of receive.  An inf
        # point, and a lone point, are receive's stream byte for byte
        cfg = StreamTrialConfig(channel=channel)
        seen = []
        coarse = streams.coarse_detect

        def recording(y, *args):
            seen.append(y.samples.tobytes())
            return coarse(y, *args)

        monkeypatch.setattr(streams, "coarse_detect", recording)
        n = 6
        evaluate_conventional(cfg, n, seed=seed, snrs_db=POINTS)
        for snr in POINTS:
            evaluate_conventional(cfg, n, seed=seed, snrs_db=(snr,))
        monkeypatch.setattr(streams, "coarse_detect", coarse)
        assert len(seen) == 2 * n * len(POINTS)
        shared, lone = seen[:n * len(POINTS)], seen[n * len(POINTS):]
        sim = StreamSimulator(cfg)
        os = channel.os_factor

        def trial(i):  # the substream of trial i, up to its link draw
            rng = np.random.default_rng((seed, i))
            has_packet = bool(rng.uniform() < 0.5)
            return rng, has_packet, int(rng.integers(*streams.PRE_PAD_RANGE))

        kinds = set()
        for i in range(n):
            rng, has_packet, pre = trial(i)
            kinds.add(has_packet)
            link = sim.draw_link(rng, pre, streams.POST_PAD, has_packet)
            clean, noise = (
                rx_frontend(ComplexSignal(row, sim.os_rate), sim.taps, os,
                            n_out=link.n_rx).samples
                for row in (link.clean, link.noise[0] + 1j * link.noise[1]))
            if not has_packet:  # so the sweep need not filter it
                assert clean.tobytes() == np.zeros_like(clean).tobytes()
            for k, snr in enumerate(POINTS):
                rng, _, _ = trial(i)
                y = receive(sim, rng, snr, pre, streams.POST_PAD,
                            has_packet).samples
                assert lone[k * n + i] == y.tobytes()
                got = np.frombuffer(shared[i * len(POINTS) + k],
                                    dtype=np.complex128)
                if snr == np.inf:
                    assert got.tobytes() == y.tobytes()
                    assert has_packet or not got.any()
                    continue
                g = math.sqrt(sim.p_signal_os * 10.0 ** (-snr / 10.0) / 2)
                ref = clean + g * noise
                assert got.tobytes() == ref.tobytes()
                np.testing.assert_allclose(got, y, rtol=0, atol=1e-12)
                if i == 0:  # and, within rounding, the one-step oracle link
                    rng, _, _ = trial(i)
                    ref = oracle_receive(sim, rng, snr, pre, streams.POST_PAD,
                                         has_packet).samples
                    np.testing.assert_allclose(y, ref, rtol=0, atol=1e-12)
        assert kinds == {True, False}

    def test_run_trial_once_per_trial_and_point(self, channel, seed,
                                               monkeypatch, cpus):
        cpus(1)  # no worker: every call is made in this process
        calls, inits, links, front_ends = [], [], [], []
        run_trial = StreamSimulator.run_trial
        init = StreamSimulator.__init__
        apply_channel = streams.apply_channel
        front_end = streams.rx_frontend

        def recording_trial(self, *args, **kwargs):
            calls.append(self.cfg.snr_db)
            return run_trial(self, *args, **kwargs)

        def recording_init(self, *args, **kwargs):
            inits.append(1)
            init(self, *args, **kwargs)

        def recording_channel(*args, **kwargs):
            links.append(1)
            return apply_channel(*args, **kwargs)

        def recording_front_end(*args, **kwargs):
            front_ends.append(1)
            return front_end(*args, **kwargs)

        monkeypatch.setattr(StreamSimulator, "run_trial", recording_trial)
        monkeypatch.setattr(StreamSimulator, "__init__", recording_init)
        monkeypatch.setattr(streams, "apply_channel", recording_channel)
        monkeypatch.setattr(streams, "rx_frontend", recording_front_end)
        per_point = evaluate_conventional(StreamTrialConfig(channel=channel),
                                          7, seed=seed, snrs_db=POINTS)
        assert calls == list(POINTS) * 7
        # a noise-only trial's link makes no channel call
        packets = sum(o.has_packet for o in per_point[0])
        assert len(inits) == 1 and len(links) == packets
        assert len(front_ends) == 7


@pytest.mark.parametrize("snr_db, kwargs", [
    (np.nan, {}), (-np.inf, {}),
    (20.0, {"snrs_db": (np.nan,)}), (20.0, {"snrs_db": (10.0, -np.inf)})],
    ids=["config-nan", "config-neg-inf", "point-nan", "point-neg-inf"])
def test_snr_without_a_noise_level_rejected(snr_db, kwargs):
    # NaN and -inf have no noise level (+inf is a noiseless point)
    with pytest.raises(ValueError):
        evaluate_conventional(StreamTrialConfig(snr_db=snr_db), 20, seed=1,
                              **kwargs)


# evaluate_conventional's three modes: several points, one point and a
# noiseless point alone.  At 65 points a trial's frame is about 0.95 MB,
# near the worker's pipe's size (forked.PIPE_BYTES)
MODES = {"points": {"snrs_db": POINTS}, "one-point": {},
         "inf": {"snrs_db": (np.inf,)},
         "65-points": {"snrs_db": tuple(k / 2 - 4 for k in range(65))}}


@pytest.mark.usefixtures("no_hang")
class TestWorkers:
    """evaluate_conventional simulates the links of all trials but its first
    in one forked worker, where forked.worker_count allows one.  These
    tests fork the worker or not through forked's CPU count (the cpus
    fixture), as generate's tests do; the outcomes must not depend on it.
    Every path must leave no child process and no pipe end open."""

    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("n_trials", [1, 29],
                             ids=["one-trial", "29-trials"])
    def test_outcomes_independent_of_worker_count(self, cpus, forks,
                                                  clean_exit, mode,
                                                  n_trials):
        cfg = StreamTrialConfig(channel=ChannelTemplate())
        runs = []
        for n_cpus in (1, 2, 64):  # one worker at most, however many CPUs
            cpus(n_cpus)
            workers = int(n_cpus > 1 and n_trials > 1)
            forks.clear()
            runs.append(evaluate_conventional(cfg, n_trials, seed=7,
                                              **MODES[mode]))
            assert len(forks) == workers
        assert runs[0] == runs[1] == runs[2]
        # and, within rounding of the link, the one-trial-at-a-time oracle
        snrs = MODES[mode].get("snrs_db", (cfg.snr_db,))
        for snr, outcomes in zip(snrs, runs[0]):
            assert outcomes == oracle_evaluate_conventional(
                replace(cfg, snr_db=snr), n_trials, seed=7)

    @pytest.mark.parametrize("error", [ValueError, KeyError])
    def test_worker_error_keeps_its_type(self, cpus, monkeypatch, clean_exit,
                                         error):
        cpus(2)
        parent, draw_link = os.getpid(), StreamSimulator.draw_link

        def failing(self, *args, **kwargs):
            if os.getpid() != parent:
                raise error("planted in a worker")
            return draw_link(self, *args, **kwargs)

        monkeypatch.setattr(StreamSimulator, "draw_link", failing)
        with pytest.raises(error, match="planted in a worker"):
            evaluate_conventional(StreamTrialConfig(), 32, seed=1,
                                  snrs_db=POINTS)

    def test_unpicklable_error_arrives_with_traceback(self, cpus, monkeypatch,
                                                      clean_exit):
        class Local(Exception):  # a local class does not pickle
            pass

        cpus(2)
        parent, draw_link = os.getpid(), StreamSimulator.draw_link

        def failing(self, *args, **kwargs):
            if os.getpid() != parent:
                raise Local("planted unpicklable failure")
            return draw_link(self, *args, **kwargs)

        monkeypatch.setattr(StreamSimulator, "draw_link", failing)
        with pytest.raises(RuntimeError) as info:
            evaluate_conventional(StreamTrialConfig(), 32, seed=1)
        assert "planted unpicklable failure" in str(info.value)
        assert "Traceback" in str(info.value)

    def test_worker_that_dies_unreported(self, cpus, monkeypatch, clean_exit):
        cpus(2)
        parent, draw_link = os.getpid(), StreamSimulator.draw_link

        def dying(self, *args, **kwargs):
            if os.getpid() != parent:
                os._exit(7)
            return draw_link(self, *args, **kwargs)

        monkeypatch.setattr(StreamSimulator, "draw_link", dying)
        with pytest.raises(RuntimeError, match="ended before its last frame"):
            evaluate_conventional(StreamTrialConfig(), 32, seed=1)

    @pytest.mark.parametrize("at_call", [1, len(POINTS) + 1],
                             ids=["first-chunk", "received-chunk"])
    def test_interrupt_while_detecting_kills_and_reaps_the_worker(
            self, cpus, monkeypatch, forks, kills, clean_exit, at_call):
        # interrupted at the first detection on the trial simulated here,
        # or on the first trial the worker sent
        cpus(2)
        run_trial, calls = StreamSimulator.run_trial, []

        def interrupted(self, *args, **kwargs):
            calls.append(1)
            if len(calls) == at_call:
                raise KeyboardInterrupt
            return run_trial(self, *args, **kwargs)

        monkeypatch.setattr(StreamSimulator, "run_trial", interrupted)
        with pytest.raises(KeyboardInterrupt):
            evaluate_conventional(StreamTrialConfig(), 320, seed=1,
                                  snrs_db=POINTS)
        assert len(forks) == 1 and kills == forks

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_each_stream_holds_only_its_own_samples(self, cpus, monkeypatch,
                                                    clean_exit, mode):
        # a caller that keeps a trial's stream, as the benchmark keeps some
        # metric_trace inputs, keeps that stream's samples alive, not its
        # trial's: at most the two filtered rows it was made from
        cpus(2)
        run_trial, kept = StreamSimulator.run_trial, []

        def keeping(self, y, *args):
            kept.append(y.samples)
            return run_trial(self, y, *args)

        monkeypatch.setattr(StreamSimulator, "run_trial", keeping)
        evaluate_conventional(StreamTrialConfig(), 24, seed=2,
                              **MODES[mode])
        for y in kept:
            base = y if y.base is None else y.base
            assert base.nbytes <= 2 * y.nbytes
