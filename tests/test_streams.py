import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import (oracle_apply_channel, oracle_evaluate_conventional,
                      oracle_receive, receive)
from pktdetect import streams
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
        part = sim.rx_stream(streams.LinkDraw(pre, True, clean, noise, hi - lo),
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


class TestRunTrial:
    def test_packet_trial_fields(self, awgn_sim):
        link = awgn_sim.draw_link(np.random.default_rng(0), 123, 100)
        out = awgn_sim.run_trial(link)
        assert out.has_packet
        assert out.true_start == 123
        assert out.snr_db == 20.0

    def test_noise_trial_fields(self, awgn_sim):
        link = awgn_sim.draw_link(np.random.default_rng(1), 123, 100,
                                  has_packet=False)
        out = awgn_sim.run_trial(link)
        assert not out.has_packet
        assert out.true_start == -1

    def test_high_snr_accuracy(self, awgn_sim):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            pre = int(rng.integers(100, 300))
            out = awgn_sim.run_trial(awgn_sim.draw_link(rng, pre, 100))
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

    def test_per_trial_snr_range(self):
        cfg = StreamTrialConfig()
        outcomes, = evaluate_conventional(cfg, 8, seed=4,
                                          snr_range_db=(5.0, 15.0))
        snrs = {o.snr_db for o in outcomes}
        assert all(5.0 <= s <= 15.0 for s in snrs)
        assert len(snrs) > 1


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
                                               monkeypatch):
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

    def test_snr_range_matches_per_point_loop(self, channel, seed):
        cfg = StreamTrialConfig(channel=channel)
        outcomes, = evaluate_conventional(cfg, 40, seed=seed,
                                          snr_range_db=(0.0, 25.0))
        assert outcomes == oracle_evaluate_conventional(
            cfg, 40, seed=seed, snr_range_db=(0.0, 25.0))


def test_points_and_range_exclusive():
    with pytest.raises(ValueError):
        evaluate_conventional(StreamTrialConfig(), 1, snrs_db=(10.0,),
                              snr_range_db=(0.0, 5.0))


@pytest.mark.parametrize("snr_db, kwargs", [
    (np.nan, {}), (-np.inf, {}),
    (20.0, {"snrs_db": (np.nan,)}), (20.0, {"snrs_db": (10.0, -np.inf)}),
    (20.0, {"snr_range_db": (0.0, np.nan)}),
    (20.0, {"snr_range_db": (-np.inf, 10.0)}),
    (20.0, {"snr_range_db": (0.0, np.inf)})],
    ids=["config-nan", "config-neg-inf", "point-nan", "point-neg-inf",
         "range-nan", "range-neg-inf", "range-inf"])
def test_snr_without_a_noise_level_rejected(snr_db, kwargs):
    # NaN and -inf have no noise level (+inf is a noiseless point)
    with pytest.raises(ValueError):
        evaluate_conventional(StreamTrialConfig(snr_db=snr_db), 20, seed=1,
                              **kwargs)
