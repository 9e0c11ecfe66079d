"""Planted-fault tests for the benchmark's output checks.

One small genuine round is run and must pass every check; each test then
copies its outputs, plants one fault and shows the matching check rejects
it.  A check that cannot fail proves nothing.

    python3 -m pytest -q bench/test_checks.py
"""
import csv
import hashlib
import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import worker  # noqa: E402  (imports pktdetect from the checkout's src/)
from pktdetect import cli, cnn, nn, streams  # noqa: E402

SMALL = dict(block_len=40, n_blocks=400, epochs=3, eval_calls=2, packets=100)
SEED = 3
# subcommand calls, then checks: 5 gen, 3 train, 1 + one per call eval, 3 sweep
ROUND_OPERATIONS = 3 + SMALL["eval_calls"] + 5 + 3 + 1 + SMALL["eval_calls"] + 3


@pytest.fixture(scope="module")
def genuine(tmp_path_factory):
    out, r = worker.run_round(SMALL, SEED, tmp_path_factory.mktemp("genuine") / "round")
    assert out["failures"] == []
    assert out["attempted"] == ROUND_OPERATIONS
    return r


@pytest.fixture
def r(genuine, tmp_path):
    """A private copy of the genuine round's outputs."""
    shutil.copytree(genuine.work, tmp_path / "round")
    return replace(genuine, work=tmp_path / "round",
                   captured_traces=list(genuine.captured_traces),
                   captured_outcomes=list(genuine.captured_outcomes), _cache={})


def rewrite_records(r, edit):
    """Apply edit(records) to the dataset file and re-sign the manifest, so
    only the check aimed at the planted fault can see it."""
    bin_path = Path(str(r.data_prefix) + ".blocks.bin")
    man_path = Path(str(r.data_prefix) + ".manifest.json")
    rec = np.frombuffer(bin_path.read_bytes(), checks.record_dtype(r.block_len)).copy()
    edit(rec)
    bin_path.write_bytes(rec.tobytes())
    manifest = json.loads(man_path.read_text())
    manifest["sha256"] = hashlib.sha256(rec.tobytes()).hexdigest()
    man_path.write_text(json.dumps(manifest))


def write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def first(rec, cond):
    return int(np.nonzero(cond)[0][0])


# -- gen -----------------------------------------------------------------------

def test_sha256_rejects_flipped_byte(r):
    path = Path(str(r.data_prefix) + ".blocks.bin")
    data = bytearray(path.read_bytes())
    data[100] ^= 1
    path.write_bytes(bytes(data))
    with pytest.raises(checks.CheckFailed):
        checks.gen_sha256(r)


def test_labels_reject_flipped_start_label(r):
    rewrite_records(r, lambda rec: rec["label"].__setitem__(
        first(rec, rec["kind"] == checks.START), -1.0))
    checks.gen_sha256(r)
    with pytest.raises(checks.CheckFailed):
        checks.gen_labels(r)


def test_labels_reject_fractional_label(r):
    rewrite_records(r, lambda rec: rec["label"].__setitem__(
        first(rec, rec["kind"] == checks.START), 3.5))
    with pytest.raises(checks.CheckFailed):
        checks.gen_labels(r)


def test_kind_counts_reject_manifest_off_by_one(r):
    man_path = Path(str(r.data_prefix) + ".manifest.json")
    manifest = json.loads(man_path.read_text())
    manifest["kind_counts"]["START"] += 1
    man_path.write_text(json.dumps(manifest))
    with pytest.raises(checks.CheckFailed):
        checks.gen_kind_counts(r)


def test_kind_counts_reject_wrong_fractions(r):
    r.spec = dict(r.spec, frac_no_start=0.7)
    with pytest.raises(checks.CheckFailed):
        checks.gen_kind_counts(r)


@pytest.mark.parametrize("field, value", [("amp", np.nan), ("amp", -0.5), ("snr", 25.5)])
def test_values_reject_bad_value(r, field, value):
    def edit(rec):
        rec[field][7] = value
    rewrite_records(r, edit)
    with pytest.raises(checks.CheckFailed):
        checks.gen_values(r)


def test_energy_rejects_block_fading_at_start(r):
    def edit(rec):
        i = first(rec, (rec["kind"] == checks.START) & (rec["snr"] >= 15)
                  & (rec["label"] >= 8) & (rec["label"] <= r.block_len - 8))
        t = int(rec["label"][i])
        rec["amp"][i, t:] *= 0.01
    rewrite_records(r, edit)
    with pytest.raises(checks.CheckFailed):
        checks.gen_energy_step(r)


# -- train ---------------------------------------------------------------------

def loss_path(r):
    return r.ckpt.parent / f"{r.ckpt.stem}_loss.csv"


@pytest.mark.parametrize("edit", ["drop_row", "nan", "no_fall"])
def test_loss_csv_rejects(r, edit):
    rows = checks.read_csv(loss_path(r))
    if edit == "drop_row":
        rows = rows[:-1]
    elif edit == "nan":
        rows[2][2] = "nan"
    else:
        rows[-1][1] = rows[1][1]
    write_csv(loss_path(r), rows)
    with pytest.raises(checks.CheckFailed):
        checks.train_loss_csv(r)


def test_reload_rejects_changed_parameter(r):
    data = bytearray(r.ckpt.read_bytes())
    data[-3] ^= 0x40
    r.ckpt.write_bytes(bytes(data))
    with pytest.raises(checks.CheckFailed):
        checks.train_reload(r)


def test_reload_rejects_truncated_checkpoint(r):
    r.ckpt.write_bytes(r.ckpt.read_bytes()[:-8])
    with pytest.raises(Exception):
        checks.train_reload(r)


def test_gradients_reject_scaled_weight_gradient(r, monkeypatch):
    backward = nn.Conv1d.backward

    def off(self, grad_out):
        out = backward(self, grad_out)
        self.grads[0][...] *= 1.001
        return out
    monkeypatch.setattr(nn.Conv1d, "backward", off)
    with pytest.raises(checks.CheckFailed):
        checks.train_gradients(r)


# -- eval ----------------------------------------------------------------------

def test_forward_rejects_perturbed_score(r, monkeypatch):
    predict = cnn.predict
    monkeypatch.setattr(cnn, "predict", lambda model, blocks: predict(model, blocks) + 1e-6)
    with pytest.raises(checks.CheckFailed):
        checks.eval_forward(r)


def test_metrics_reject_summary_off_by_one_block(r):
    _, _, rec = checks.read_dataset(r)
    has = rec["label"][checks.held_out_indices(r)] >= 0
    missed = np.sum(checks.eval_scores(r)[has] < checks.DETECT_THRESHOLD)
    path = r.eval_csv(0).with_name("eval0_summary.csv")
    rows = checks.read_csv(path)
    rows[1][0] = repr(float((missed + 1) / has.sum()))
    write_csv(path, rows)
    with pytest.raises(checks.CheckFailed):
        checks.eval_metrics(r, 0)


def test_metrics_reject_bin_count_off_by_one(r):
    rows = checks.read_csv(r.eval_csv(1))
    rows[3][3] = str(int(rows[3][3]) + 1)
    write_csv(r.eval_csv(1), rows)
    with pytest.raises(checks.CheckFailed):
        checks.eval_metrics(r, 1)


# -- sweep ---------------------------------------------------------------------

def test_rows_reject_short_trial_count(r):
    rows = checks.read_csv(r.sweep_csv)
    rows[2][5] = str(r.packets - 1)
    write_csv(r.sweep_csv, rows)
    with pytest.raises(checks.CheckFailed):
        checks.sweep_rows(r)


def rerun_sweep(r, monkeypatch, shift, at_snrs, late=0):
    """Re-run the round's sweep with the fine start of detected packets moved
    by `shift` samples at the given SNR points (and the first `late` of them
    moved 400 samples, as a late trigger would), capturing as a round does."""
    run_trial = streams.StreamSimulator.run_trial
    moved = [0]

    def faulty(self, *args, **kwargs):
        o = run_trial(self, *args, **kwargs)
        if o.detected and self.cfg.snr_db in at_snrs:
            step = shift
            if o.has_packet and moved[0] < late:
                moved[0] += 1
                step = 400
            o = replace(o, fine_start=o.fine_start + step)
        return o

    monkeypatch.setattr(streams.StreamSimulator, "run_trial", faulty)
    r.captured_outcomes.clear()
    undo = worker.capture(r)
    try:
        assert cli.main(["sweep", "--conventional", "--snrs", ",".join(map(str, r.snrs)),
                         "--packets", str(r.packets), "--seed", str(SEED),
                         "--out", str(r.sweep_csv)]) == 0
    finally:
        undo()


def test_accuracy_rejects_start_shifted_by_three(r, monkeypatch):
    rerun_sweep(r, monkeypatch, 3, r.snrs)
    with pytest.raises(checks.CheckFailed):
        checks.sweep_accuracy(r)


def test_accuracy_rejects_start_shifted_by_two_at_10_db(r, monkeypatch):
    # below the 15 dB MAE check, only the share bound can see this
    rerun_sweep(r, monkeypatch, 2, (10.0,))
    with pytest.raises(checks.CheckFailed, match="10.0 dB: .* more than one sample off"):
        checks.sweep_accuracy(r)


def test_accuracy_lets_one_late_trigger_at_10_db_through(r, monkeypatch):
    rerun_sweep(r, monkeypatch, 0, (10.0,), late=1)
    checks.sweep_accuracy(r)


def test_accuracy_rejects_csv_mae_unlike_outcomes(r):
    rows = checks.read_csv(r.sweep_csv)
    rows[1][2] = repr(float(rows[1][2] or 0) + 0.01)
    write_csv(r.sweep_csv, rows)
    with pytest.raises(checks.CheckFailed, match="differs from the captured"):
        checks.sweep_accuracy(r)


@pytest.mark.parametrize("fault", ["scaled", "shifted"])
def test_metric_trace_rejects(r, fault):
    samples, lag, window, out = r.captured_traces[0]
    bad = out * (1 + 1e-6) if fault == "scaled" else np.roll(out, 1)
    r.captured_traces[0] = (samples, lag, window, bad)
    with pytest.raises(checks.CheckFailed):
        checks.sweep_metric_trace(r)


def test_round_counts_a_raising_subcommand_as_failed(monkeypatch, tmp_path):
    main = cli.main

    def raising(argv):
        if argv[0] == "eval":
            raise IndexError("planted")
        return main(argv)

    monkeypatch.setattr(cli, "main", raising)
    out, _ = worker.run_round(SMALL, SEED, tmp_path / "round")
    assert out["attempted"] == ROUND_OPERATIONS
    assert sum(f.startswith("eval exited by raising") for f in out["failures"]) == 2
