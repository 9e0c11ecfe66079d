import numpy as np
import pytest

from pktdetect.preamble import PREAMBLE_LEN
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
        y = awgn_sim.receive(np.random.default_rng(0), np.inf, pre, post).samples
        n = pre + PREAMBLE_LEN + post
        os = awgn_sim.cfg.channel.os_factor
        assert n < len(y) <= n + len(awgn_sim.taps) // os
        expected = np.zeros(n, dtype=np.complex128)
        expected[pre:pre + PREAMBLE_LEN] = preamble.samples
        assert np.abs(y[:n] - expected).max() < 10 ** (-40 / 20)


class TestRunTrial:
    def test_packet_trial_fields(self, awgn_sim):
        out = awgn_sim.run_trial(np.random.default_rng(0), has_packet=True)
        assert out.has_packet
        assert 100 <= out.true_start < 300
        assert out.snr_db == 20.0

    def test_noise_trial_fields(self, awgn_sim):
        out = awgn_sim.run_trial(np.random.default_rng(1), has_packet=False)
        assert not out.has_packet
        assert out.true_start == -1

    def test_high_snr_accuracy(self, awgn_sim):
        hits = 0
        for seed in range(20):
            out = awgn_sim.run_trial(np.random.default_rng(seed),
                                     has_packet=True)
            if out.detected and abs(out.fine_start - out.true_start) <= 2:
                hits += 1
        assert hits >= 19


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
        assert s["miss_rate"] == 0.5
        assert s["false_alarm_rate"] == 0.5
        assert s["mae"] == 0.0
        assert s["n_trials"] == 4

    def test_summary_empty_true_positives(self):
        s = summarize([TrialOutcome(True, 100, False, -1, -1, 20.0)])
        assert s["mae"] is None

    def test_per_trial_snr_range(self):
        cfg = StreamTrialConfig()
        outcomes = evaluate_conventional(cfg, 8, seed=4,
                                         snr_range_db=(5.0, 15.0))
        snrs = {o.snr_db for o in outcomes}
        assert all(5.0 <= s <= 15.0 for s in snrs)
        assert len(snrs) > 1
