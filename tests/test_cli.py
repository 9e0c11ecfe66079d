import csv
import json
from pathlib import Path

import numpy as np
import pytest

from pktdetect import cli, cnn, dataset
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

    def test_invalid_channel_rejected_before_writing(self, tmp_path):
        # zero delay spread with multipath would give NaN taps and amplitudes
        doc = json.loads(DatasetSpec(block_len=40, n_blocks=20).to_json())
        doc["channel"]["rms_delay_spread_ns"] = 0
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["gen", "--spec", str(spec_path), "--out", str(out)]) == 2
        assert not out.exists()


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

    def test_conventional_mode(self, tmp_path):
        out = tmp_path / "conv.csv"
        assert main(["eval", "--conventional", "--awgn-only",
                     "--packets", "20", "--out", str(out)]) == 0
        assert _read_csv(out)[0] == ["snr_bin_lo", "snr_bin_hi", "mae", "n"]

    def test_requires_model_or_conventional(self, tmp_path):
        assert main(["eval", "--out", str(tmp_path / "x.csv")]) == 2

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


class TestFlops:
    def test_all_with_csv(self, tmp_path, capsys):
        out = tmp_path / "flops.csv"
        assert main(["flops", "--all", "--out", str(out)]) == 0
        rows = _read_csv(out)
        assert rows[0] == ["detector", "muls_per_block", "adds_per_block",
                           "blocks_per_second", "mflops"]
        assert len(rows) == 8  # header + six CNN rows + conventional
        assert rows[-1][0] == "conventional"
        assert "MFLOPS" in capsys.readouterr().out

    def test_single_block_len(self, capsys):
        assert main(["flops", "--block-len", "160"]) == 0
        assert "cnn-B160" in capsys.readouterr().out

    def test_requires_selection(self):
        assert main(["flops"]) == 2


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


class TestParsing:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required_arg(self):
        assert main(["gen", "--out", "somewhere"]) == 2
