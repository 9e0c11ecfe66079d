import csv
import json
import os
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import tamper_checkpoint, traced_peak
from pktdetect import cli, cnn, dataset, forked, nn, streams
from pktdetect.cli import main
from pktdetect.channel import ChannelTemplate
from pktdetect.dataset import DatasetSpec


def _write_spec(path: Path, block_len=40, n_blocks=120, seed=1):
    spec = DatasetSpec(block_len=block_len, n_blocks=n_blocks, seed=seed,
                       channel=ChannelTemplate(multipath=False, cfo_max_hz=0.0))
    path.write_text(spec.to_json())
    return spec


def _read_csv(path: Path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _with_spec(**fields):
    """A manifest edit that sets fields of its spec."""
    return lambda doc: {**doc, "spec": {**doc["spec"], **fields}}


# edits that leave a dataset manifest valid JSON but not the documented object
BAD_MANIFESTS = {
    "no-sha256": lambda doc: {k: v for k, v in doc.items() if k != "sha256"},
    "no-n-records": lambda doc: {k: v for k, v in doc.items()
                                 if k != "n_records"},
    "array": lambda doc: [doc],
    "no-spec": lambda doc: {k: v for k, v in doc.items() if k != "spec"},
    "seed-x": _with_spec(seed="x"),
    "split-abc": _with_spec(split="abc"),
    "split-sum-1.5": _with_spec(split=[0.5, 0.5, 0.5]),
    "split-one": _with_spec(split=[1.0]),
    # 40.0 and True compare equal to an int, and numpy reads neither as one
    "block-len-40.0": lambda doc: {**doc, "block_len": 40.0},
    "block-len-str": lambda doc: {**doc, "block_len": "40"},
    "block-len-true": lambda doc: {**doc, "block_len": True},
    "n-records-float": lambda doc: {**doc,
                                    "n_records": float(doc["n_records"])},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated dataset plus a 1-epoch model checkpoint."""
    root = tmp_path_factory.mktemp("ws")
    spec_path = root / "spec.json"
    _write_spec(spec_path)
    data_dir = root / "data"
    assert main(["gen", "--spec", str(spec_path), "--out", str(data_dir)]) == 0
    model_path = root / "model.ckpt"
    assert main(["train", "--data", str(data_dir), "--block-len", "40",
                 "--epochs", "1", "--out", str(model_path)]) == 0
    return root


class TestGen:
    def test_outputs(self, workspace):
        data_dir = workspace / "data"
        assert (data_dir / "blocks40.blocks.bin").exists()
        manifest = json.loads((data_dir / "blocks40.manifest.json").read_text())
        assert manifest["n_records"] == 120
        assert (data_dir / "gen.manifest.json").exists()

    def test_manifest_records_build(self, workspace):
        versions = json.loads(
            (workspace / "data" / "gen.manifest.json").read_text())["versions"]
        assert versions["numpy"] == np.__version__
        assert versions["python"].count(".") == 2
        assert set(versions) >= {"blas", "blas_version"}

    def test_build_without_show_config_dicts(self, monkeypatch):
        def old_show_config():  # numpy < 1.26 takes no mode argument
            print("blas_opt_info: ...")
        monkeypatch.setattr(np, "show_config", old_show_config)
        versions = cli.build_versions()
        assert versions["blas"] is None and versions["blas_version"] is None
        assert versions["numpy"] == np.__version__

    def test_deterministic(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        _write_spec(spec_path, n_blocks=40)
        for name in ("a", "b"):
            assert main(["gen", "--spec", str(spec_path),
                         "--out", str(tmp_path / name)]) == 0
        assert ((tmp_path / "a" / "blocks40.blocks.bin").read_bytes()
                == (tmp_path / "b" / "blocks40.blocks.bin").read_bytes())

    def test_missing_spec_file(self, tmp_path):
        assert main(["gen", "--spec", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    def test_invalid_spec_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["gen", "--spec", str(bad), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("snr_range", [[0, "Infinity"], [0, "NaN"], [5]])
    def test_nonfinite_snr_range_rejected(self, tmp_path, snr_range):
        doc = json.loads(DatasetSpec(block_len=40, n_blocks=20).to_json())
        doc["snr_range_db"] = snr_range
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc).replace('"Infinity"', "Infinity")
                             .replace('"NaN"', "NaN"))
        out = tmp_path / "out"
        assert main(["gen", "--spec", str(spec_path), "--out", str(out)]) == 2
        assert not out.exists()

    def test_reversed_snr_range_rejected_before_forking(self, tmp_path, cpus,
                                                        forks):
        # a config error (2), not numpy's failure in the worker (4)
        cpus(2)
        n_blocks = 4 * dataset.CHUNK_BLOCKS  # chunks for the worker
        doc = json.loads(DatasetSpec(block_len=40, n_blocks=n_blocks).to_json())
        doc["snr_range_db"] = [25.0, 0.0]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["gen", "--spec", str(spec_path), "--out", str(out)]) == 2
        assert not out.exists() and not forks

    def test_invalid_channel_rejected_before_writing(self, tmp_path):
        # zero delay spread with multipath would give NaN taps and amplitudes
        doc = json.loads(DatasetSpec(block_len=40, n_blocks=20).to_json())
        doc["channel"]["rms_delay_spread_ns"] = 0
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["gen", "--spec", str(spec_path), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("seed", -1), ("seed", 1.5), ("n_blocks", 5.5), ("block_len", 40.0),
        ("channel.os_factor", 4.5), ("channel.filter_taps", 48.0),
        ("split", [1.0]), ("block_len", 800)])
    def test_non_integer_spec_field_rejected(self, tmp_path, monkeypatch,
                                             key, value):
        doc = json.loads(DatasetSpec(block_len=40, n_blocks=20).to_json())
        *parents, field = key.split(".")
        target = doc
        for name in parents:
            target = target[name]
        target[field] = value
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))

        def no_generate(spec):
            raise AssertionError("generate called")

        monkeypatch.setattr(dataset, "generate", no_generate)
        out = tmp_path / "out"
        assert main(["gen", "--spec", str(spec_path), "--out", str(out)]) == 2
        assert not out.exists()

    @staticmethod
    def _workers(tmp_path, monkeypatch, n_cpus):
        """The workers a B=40 gen of two chunks records on n_cpus CPUs."""
        monkeypatch.setattr(forked, "usable_cpus", lambda: n_cpus)
        spec_path = tmp_path / "spec.json"
        _write_spec(spec_path, n_blocks=2 * dataset.CHUNK_BLOCKS)
        out = tmp_path / "data"
        assert main(["gen", "--spec", str(spec_path), "--out", str(out)]) == 0
        return json.loads((out / "gen.manifest.json").read_text())["workers"]

    def test_manifest_records_workers(self, tmp_path, monkeypatch):
        assert self._workers(tmp_path, monkeypatch, 1) == 0

    def test_manifest_records_worker_processes(self, tmp_path, monkeypatch):
        # any block length is made in two processes, 40 included: this
        # one and one forked worker
        assert self._workers(tmp_path, monkeypatch, 2) == 1

    @staticmethod
    def _planted_gen(tmp_path, monkeypatch, capsys, error, in_parent):
        """gen's exit code on two CPUs when _Chunker.fill raises error in
        this process alone, or in the worker alone."""
        monkeypatch.setattr(forked, "usable_cpus", lambda: 2)
        parent, fill = os.getpid(), dataset._Chunker.fill

        def failing(self, chunk, c0):
            if (os.getpid() == parent) == in_parent:
                raise error("planted")
            fill(self, chunk, c0)

        monkeypatch.setattr(dataset._Chunker, "fill", failing)
        spec_path = tmp_path / "spec.json"
        _write_spec(spec_path, n_blocks=4 * dataset.CHUNK_BLOCKS)
        out = tmp_path / "data"
        code = main(["gen", "--spec", str(spec_path), "--out", str(out)])
        assert "planted" in capsys.readouterr().err
        assert not out.exists()
        return code

    @pytest.mark.parametrize("error, code", [(dataset.DatasetError, 3),
                                             (ValueError, 4)])
    def test_worker_error_keeps_exit_code(self, tmp_path, monkeypatch, capsys,
                                          no_hang, clean_exit, error, code):
        # the exception crosses from the worker process with its type
        assert self._planted_gen(tmp_path, monkeypatch, capsys, error,
                                 in_parent=False) == code

    @pytest.mark.parametrize("error, code", [(dataset.DatasetError, 3),
                                             (ValueError, 4)])
    def test_caller_error_keeps_exit_code(self, tmp_path, monkeypatch, capsys,
                                          no_hang, clean_exit, error, code):
        assert self._planted_gen(tmp_path, monkeypatch, capsys, error,
                                 in_parent=True) == code


class TestTrain:
    def test_outputs(self, workspace):
        assert (workspace / "model.ckpt").exists()
        assert (workspace / "model.ckpt.json").exists()
        rows = _read_csv(workspace / "model_loss.csv")
        assert rows[0] == ["epoch", "train_loss", "val_loss"]
        assert len(rows) == 2  # header + 1 epoch

    def test_missing_dataset(self, tmp_path):
        assert main(["train", "--data", str(tmp_path), "--block-len", "40",
                     "--epochs", "1", "--out", str(tmp_path / "m.ckpt")]) == 3

    @pytest.mark.parametrize("case", sorted(BAD_MANIFESTS))
    def test_bad_manifest_is_a_data_error(self, workspace, tmp_path, case):
        data = tmp_path / "data"
        data.mkdir()
        for name in ("blocks40.blocks.bin", "blocks40.manifest.json"):
            (data / name).write_bytes((workspace / "data" / name).read_bytes())
        man = data / "blocks40.manifest.json"
        man.write_text(json.dumps(BAD_MANIFESTS[case](
            json.loads(man.read_text()))))
        out = tmp_path / "out" / "m.ckpt"
        assert main(["train", "--data", str(data), "--block-len", "40",
                     "--epochs", "1", "--out", str(out)]) == 3
        assert not out.exists()

    def test_two_datasets_of_the_block_len(self, workspace, tmp_path,
                                           capsys):
        data = tmp_path / "data"
        data.mkdir()
        for prefix in ("blocks40", "other"):
            for suffix in (".blocks.bin", ".manifest.json"):
                (data / (prefix + suffix)).write_bytes(
                    (workspace / "data" / ("blocks40" + suffix)).read_bytes())
        out = tmp_path / "out" / "m.ckpt"
        assert main(["train", "--data", str(data), "--block-len", "40",
                     "--epochs", "1", "--out", str(out)]) == 3
        assert "['blocks40', 'other']" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_training_partition(self, tmp_path, capsys):
        # one block: floor(0.7 * 1) = 0 of them train
        _write_spec(tmp_path / "spec.json", n_blocks=1)
        assert main(["gen", "--spec", str(tmp_path / "spec.json"),
                     "--out", str(tmp_path / "data")]) == 0
        out = tmp_path / "out" / "m.ckpt"
        assert main(["train", "--data", str(tmp_path / "data"),
                     "--block-len", "40", "--epochs", "1",
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "training partition" in err and "n_blocks 1" in err
        assert not out.exists()

    def test_empty_file_is_an_empty_training_partition(self, tmp_path,
                                                       capsys):
        # a 0-record file passes the record check; split has nothing to
        # train on
        spec = DatasetSpec(block_len=40, n_blocks=1)
        (tmp_path / "data").mkdir()
        dataset.save(np.zeros(0, dataset.record_dtype(40)),
                     tmp_path / "data" / spec.name, spec)
        out = tmp_path / "out" / "m.ckpt"
        assert main(["train", "--data", str(tmp_path / "data"),
                     "--block-len", "40", "--epochs", "1",
                     "--out", str(out)]) == 3
        assert "training partition" in capsys.readouterr().err
        assert not out.exists()

    def test_memory_holds_the_records_once(self, tmp_path):
        # Beyond the loaded payload train holds, per record, the int64
        # index dataset.split returns it in and, for a training or
        # validation record, a float64 target and an int64 shuffle
        # position: at most 24 bytes.  An epoch's network work adds at most
        # a predict chunk's three budgets (test_cnn's MEMORY_BOUND).  The
        # split's own temporaries (under 64 bytes a record, freed before
        # training) fit in the same bound while 40 bytes a record are less
        # than the three budgets.  A copy of the training and validation
        # partitions would add 85% of the payload, more than that slack.
        b, n = 160, 14_000
        rng = np.random.default_rng(3)
        records = np.zeros(n, dataset.record_dtype(b))
        records["amp"] = rng.rayleigh(size=(n, b))
        start = rng.random(n) < 0.5
        records["label"] = np.where(start, rng.integers(0, b, n), -1)
        records["kind"] = np.where(start, dataset.Kind.START,
                                   dataset.Kind.NOISE_ONLY)
        spec = DatasetSpec(block_len=b, n_blocks=n)
        (tmp_path / "data").mkdir()
        dataset.save(records, tmp_path / "data" / spec.name, spec)
        budgets = 3 * nn.PREDICT_BUDGET_BYTES
        assert 0.85 * records.nbytes > budgets + 24 * n > 40 * n
        argv = ["train", "--data", str(tmp_path / "data"), "--block-len",
                str(b), "--epochs", "1", "--out", str(tmp_path / "m.ckpt")]
        assert main(argv) == 0  # one-time allocations stay out
        peak = traced_peak(lambda: main(argv))
        assert peak < records.nbytes + budgets + 24 * n

    @pytest.mark.parametrize("arg", ["--epochs", "--batch-size"])
    def test_zero_epochs_or_batch_rejected(self, workspace, tmp_path, arg):
        out = tmp_path / "out" / "m.ckpt"
        assert main(["train", "--data", str(workspace / "data"),
                     "--block-len", "40", arg, "0", "--out", str(out)]) == 2
        assert not out.parent.exists()

    def test_negative_seed_rejected(self, workspace, tmp_path):
        out = tmp_path / "out" / "m.ckpt"
        assert main(["train", "--data", str(workspace / "data"),
                     "--block-len", "40", "--epochs", "1", "--seed", "-1",
                     "--out", str(out)]) == 2
        assert not out.parent.exists()

    @pytest.mark.parametrize("block_len", ["0", "-4", "36"])
    def test_bad_block_len_rejected(self, workspace, tmp_path, block_len):
        # checked before the dataset is looked up, which has no such length
        out = tmp_path / "out" / "m.ckpt"
        assert main(["train", "--data", str(workspace / "data"),
                     f"--block-len={block_len}", "--out", str(out)]) == 2
        assert not out.parent.exists()


class TestEval:
    def test_model_mode(self, workspace, tmp_path):
        out = tmp_path / "eval.csv"
        assert main(["eval", "--model", str(workspace / "model.ckpt"),
                     "--data", str(workspace / "data"), "--block-len", "40",
                     "--out", str(out)]) == 0
        rows = _read_csv(out)
        assert rows[0] == ["snr_bin_lo", "snr_bin_hi", "mae", "n"]
        assert len(rows) == 6  # header + five 5 dB bins
        summary = _read_csv(tmp_path / "eval_summary.csv")
        assert summary[0] == ["miss_rate", "false_alarm_rate"]

    def test_conventional_mode_is_gone(self, workspace, tmp_path, capsys):
        # the correlator is scored by sweep --conventional alone
        out = tmp_path / "out" / "conv.csv"
        assert main(["eval", "--model", str(workspace / "model.ckpt"),
                     "--data", str(workspace / "data"), "--block-len", "40",
                     "--conventional", "--out", str(out)]) == 2
        assert "unrecognized arguments: --conventional" in (
            capsys.readouterr().err)
        assert not out.parent.exists()

    def test_missing_rate_prints_as_none(self, workspace, tmp_path, capsys):
        # a test split of START blocks alone has no false-alarm rate: None
        # on the console and an empty summary cell, not a perfect 0.0
        spec = replace(DatasetSpec.from_json(
            (workspace / "spec.json").read_text()), frac_no_start=0.0)
        (tmp_path / "spec.json").write_text(spec.to_json())
        assert main(["gen", "--spec", str(tmp_path / "spec.json"),
                     "--out", str(tmp_path / "data")]) == 0
        assert main(["eval", "--model", str(workspace / "model.ckpt"),
                     "--data", str(tmp_path / "data"), "--block-len", "40",
                     "--out", str(tmp_path / "x.csv")]) == 0
        assert "false alarm None" in capsys.readouterr().out
        assert _read_csv(tmp_path / "x_summary.csv")[1][1] == ""

    @pytest.mark.parametrize("missing", ["--data", "--block-len", "--model"])
    def test_model_mode_needs_data_and_block_len(self, workspace, tmp_path,
                                                 monkeypatch, capsys,
                                                 missing):
        def no_load(*args):
            raise AssertionError("loaded before the usage check")

        monkeypatch.setattr(cnn, "load_model", no_load)
        monkeypatch.setattr(dataset, "load", no_load)
        flags = {"--model": str(workspace / "model.ckpt"),
                 "--data": str(workspace / "data"), "--block-len": "40"}
        del flags[missing]
        out = tmp_path / "out" / "x.csv"
        assert main(["eval", *(a for kv in flags.items() for a in kv),
                     "--out", str(out)]) == 2
        assert missing in capsys.readouterr().err
        assert not out.parent.exists()

    def test_empty_test_partition(self, workspace, tmp_path, capsys):
        spec = replace(DatasetSpec.from_json(
            (workspace / "spec.json").read_text()), split=(0.85, 0.15, 0.0))
        (tmp_path / "spec.json").write_text(spec.to_json())
        assert main(["gen", "--spec", str(tmp_path / "spec.json"),
                     "--out", str(tmp_path / "data")]) == 0
        out = tmp_path / "x.csv"
        assert main(["eval", "--model", str(workspace / "model.ckpt"),
                     "--data", str(tmp_path / "data"), "--block-len", "40",
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "test partition" in err and "[0.85, 0.15, 0.0]" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", [40.0, "40", True])
    def test_block_len_not_an_int_is_a_data_error(self, workspace, tmp_path,
                                                  value):
        data = tmp_path / "data"
        data.mkdir()
        for name in ("blocks40.blocks.bin", "blocks40.manifest.json"):
            (data / name).write_bytes((workspace / "data" / name).read_bytes())
        man = data / "blocks40.manifest.json"
        man.write_text(json.dumps({**json.loads(man.read_text()),
                                   "block_len": value}))
        for block_len in ("40", "1"):  # True == 1
            out = tmp_path / f"x{block_len}.csv"
            assert main(["eval", "--model", str(workspace / "model.ckpt"),
                         "--data", str(data), "--block-len", block_len,
                         "--out", str(out)]) == 3
            assert not out.exists()

    def test_block_len_mismatch(self, workspace, tmp_path):
        assert main(["eval", "--model", str(workspace / "model.ckpt"),
                     "--data", str(workspace / "data"), "--block-len", "80",
                     "--out", str(tmp_path / "x.csv")]) == 3

    def test_corrupt_checkpoint(self, workspace, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage")
        assert main(["eval", "--model", str(bad),
                     "--data", str(workspace / "data"), "--block-len", "40",
                     "--out", str(tmp_path / "x.csv")]) == 3

    def test_checkpoint_of_another_network(self, workspace, tmp_path):
        other = tmp_path / "other.ckpt"
        other.write_bytes((workspace / "model.ckpt").read_bytes())
        tamper_checkpoint(other, "conv1_filters", 0)
        assert main(["eval", "--model", str(other),
                     "--data", str(workspace / "data"), "--block-len", "40",
                     "--out", str(tmp_path / "x.csv")]) == 3

    def test_nonpositive_block_len_rejected(self, workspace, tmp_path):
        out = tmp_path / "out" / "x.csv"
        assert main(["eval", "--model", str(workspace / "model.ckpt"),
                     "--data", str(workspace / "data"), "--block-len", "-40",
                     "--out", str(out)]) == 2
        assert not out.parent.exists()


class TestFlops:
    def test_all_with_csv(self, tmp_path, capsys):
        out = tmp_path / "flops.csv"
        assert main(["flops", "--all", "--out", str(out)]) == 0
        rows = _read_csv(out)
        assert rows[0] == ["detector", "muls_per_block", "adds_per_block",
                           "blocks_per_second", "mflops"]
        # header + six CNN rows + the direct and running-sum correlators
        assert len(rows) == 9
        assert [r[0] for r in rows[-2:]] == ["conventional",
                                             "conventional-recursive"]
        assert "MFLOPS" in capsys.readouterr().out

    def test_all_has_running_sum_correlator(self, tmp_path):
        # 31 real FLOPs per incoming sample at 1 MHz: the metric_trace form
        out = tmp_path / "flops.csv"
        assert main(["flops", "--all", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = {r["detector"]: r for r in csv.DictReader(fh)}
        row = rows["conventional-recursive"]
        assert (int(row["muls_per_block"]), int(row["adds_per_block"])) == (16, 15)
        assert float(row["blocks_per_second"]) == 1e6
        assert float(row["mflops"]) == 31.0
        assert float(rows["conventional"]["mflops"]) == 1041.0

    def test_single_block_len(self, capsys):
        assert main(["flops", "--block-len", "160"]) == 0
        assert "cnn-B160" in capsys.readouterr().out

    def test_requires_selection(self):
        assert main(["flops"]) == 2

    @pytest.mark.parametrize("block_len, reason", [
        ("0", "invalid positive_int"), ("-1", "invalid positive_int"),
        ("42", "a multiple of 4 and at least 40"),
        ("36", "a multiple of 4 and at least 40")])
    def test_block_len_the_network_cannot_take(self, capsys, block_len,
                                               reason):
        assert main(["flops", f"--block-len={block_len}"]) == 2
        assert reason in capsys.readouterr().err


class TestConventionalWorkers:
    """sweep --conventional simulates its trials' links in a forked worker
    where streams.worker_count allows one: the manifest records the count
    (0 or 1), and the worker's exception keeps its type, so its exit
    code."""

    @staticmethod
    def _run(tmp_path, command, packets):
        out = tmp_path / "out" / f"{command}.csv"
        argv = [command, "--conventional", "--awgn-only", "--packets",
                str(packets), "--seed", "3", "--out", str(out)]
        return main(argv), out.parent / f"{command}.manifest.json"

    @pytest.mark.parametrize("command", ["sweep"])
    @pytest.mark.parametrize("n_cpus, workers", [(1, 0), (2, 1)])
    def test_manifest_records_workers(self, tmp_path, monkeypatch, command,
                                      n_cpus, workers):
        monkeypatch.setattr(forked, "usable_cpus", lambda: n_cpus)
        code, manifest = self._run(tmp_path, command,
                                   2 * streams.CHUNK_TRIALS)
        assert code == 0
        assert json.loads(manifest.read_text())["workers"] == workers

    @pytest.mark.parametrize("command", ["sweep"])
    @pytest.mark.parametrize("error, code", [(dataset.DatasetError, 3),
                                             (ValueError, 4)])
    def test_worker_error_keeps_exit_code(self, tmp_path, monkeypatch, capsys,
                                          no_hang, command, error, code):
        monkeypatch.setattr(forked, "usable_cpus", lambda: 2)
        parent = os.getpid()
        draw_link = streams.StreamSimulator.draw_link

        def failing(self, *args, **kwargs):
            if os.getpid() != parent:
                raise error("planted in a worker")
            return draw_link(self, *args, **kwargs)

        monkeypatch.setattr(streams.StreamSimulator, "draw_link", failing)
        assert self._run(tmp_path, command,
                         4 * streams.CHUNK_TRIALS)[0] == code
        assert "planted in a worker" in capsys.readouterr().err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestSweep:
    def test_conventional_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--conventional", "--awgn-only",
                     "--snrs", "20", "--packets", "10",
                     "--out", str(out)]) == 0
        rows = _read_csv(out)
        assert rows[0] == ["detector", "snr_db", "mae", "miss_rate",
                           "false_alarm_rate", "n"]
        assert rows[1][0] == "conventional"

    def test_model_sweep(self, workspace, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--model", str(workspace / "model.ckpt"),
                     "--awgn-only", "--snrs", "10,20", "--packets", "30",
                     "--out", str(out)]) == 0
        rows = _read_csv(out)
        assert len(rows) == 3
        assert rows[1][0] == "cnn-B40"

    def test_requires_detector(self, tmp_path):
        assert main(["sweep", "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("seed, empty, other", [
        (0, "miss_rate", "false_alarm_rate"),   # the trial has no packet
        (2, "false_alarm_rate", "miss_rate")])  # the trial has one
    def test_one_trial_leaves_missing_rate_empty(self, tmp_path, seed, empty,
                                                 other):
        # the rate without a denominator is an empty cell, like an MAE
        # without true positives, not a perfect 0.0
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--conventional", "--snrs", "20",
                     "--packets", "1", "--seed", str(seed),
                     "--out", str(out)]) == 0
        row = dict(zip(*_read_csv(out)))
        assert row[empty] == "" and row[other] in ("0.0", "1.0")

    def test_points_scored_on_shared_trials(self, tmp_path):
        # a repeated point sees the same trials, so its row repeats; inf is
        # a noiseless point
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--conventional", "--snrs", "10,inf,10",
                     "--packets", "12", "--seed", "3", "--out", str(out)]) == 0
        rows = _read_csv(out)
        assert [r[1] for r in rows[1:]] == ["10.0", "inf", "10.0"]
        assert rows[1] == rows[3]

    def test_model_sweep_needs_finite_points(self, workspace, tmp_path):
        out = tmp_path / "out" / "sweep.csv"
        assert main(["sweep", "--model", str(workspace / "model.ckpt"),
                     "--conventional", "--snrs", "10,inf", "--packets", "5",
                     "--out", str(out)]) == 2
        assert not out.parent.exists()

    @pytest.mark.parametrize("packets", ["0", "-3"])
    def test_nonpositive_packets_rejected(self, tmp_path, packets):
        out = tmp_path / "out" / "sweep.csv"
        assert main(["sweep", "--conventional", "--snrs", "20",
                     "--packets", packets, "--out", str(out)]) == 2
        assert not out.parent.exists()

    def test_negative_seed_rejected(self, tmp_path):
        out = tmp_path / "out" / "sweep.csv"
        assert main(["sweep", "--conventional", "--snrs", "20",
                     "--packets", "5", "--seed", "-1", "--out", str(out)]) == 2
        assert not out.parent.exists()

    @pytest.mark.parametrize("snrs", ["5,,10", "nan", "10,NaN", "abc",
                                      "5,-inf", ""])
    def test_bad_snr_points_rejected(self, tmp_path, snrs):
        out = tmp_path / "out" / "sweep.csv"
        assert main(["sweep", "--conventional", f"--snrs={snrs}",
                     "--packets", "5", "--out", str(out)]) == 2
        assert not out.parent.exists()


class TestParsing:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required_arg(self):
        assert main(["gen", "--out", "somewhere"]) == 2

    def test_readme_commands_parse(self):
        # every README line that starts with the command is one the parser
        # takes, so a removed or renamed flag cannot linger in the examples
        readme = Path(cli.__file__).parents[2] / "README.md"
        lines = [line for line in readme.read_text().splitlines()
                 if line.startswith("pktdetect ")]
        assert len(lines) >= 10
        parser = cli.build_parser()
        for line in lines:
            try:
                parser.parse_args(shlex.split(line)[1:])
            except SystemExit:
                pytest.fail(f"README.md: {line}")


def test_cli_imports_no_scipy():
    # the package is numpy-only (pyproject.toml), and gen forks its worker
    # itself: importing the CLI in a fresh interpreter must load no scipy,
    # multiprocessing or concurrent.futures module, installed or not, since
    # every CLI call pays for its imports.  Nor may it load mmap, signal,
    # fcntl or traceback, which only the forking path (forked, dataset)
    # needs and imports lazily
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, pktdetect.cli; print(sorted(m for m in sys.modules"
            " if m.partition('.')[0] in ('scipy', 'multiprocessing', 'mmap',"
            " 'signal', 'fcntl', 'traceback')"
            " or m.startswith('concurrent.futures')))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
