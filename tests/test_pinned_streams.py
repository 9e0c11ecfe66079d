"""Pinned sha256 digests of the program's random streams.

Any change to a draw, its order or the arithmetic after it changes these
digests, so byte drift fails the suite without a second checkout to compare
against.  A change that alters the streams on purpose updates the digests
in the same commit and says so.  The digests hold for one numpy/BLAS build
(see the pytest header).
"""
import dataclasses
import hashlib
import math

import pytest

from pktdetect.channel import ChannelTemplate
from pktdetect.dataset import DatasetSpec, generate
from pktdetect.streams import StreamTrialConfig, evaluate_conventional

CHANNELS = {
    "awgn": ChannelTemplate(multipath=False, cfo_max_hz=0.0),
    "multipath-cfo": ChannelTemplate(),
    "offset-0.5": ChannelTemplate(fractional_timing_offset=0.5),
}

GENERATE_BLOCKS = 300
GENERATE_DIGESTS = {
    "b40-seed1-awgn":
        "766719ca579ca51efa6834a0071673b4c1dbbabe75e8d5173cf476d018115458",
    "b40-seed1-multipath-cfo":
        "b97b1fe47db143fa26b8d9f6bde57d9b7e3b9c1fe08e4234a430ce15562d5b86",
    "b40-seed1-offset-0.5":
        "2c0951cd1a535228a24107fb7d51d4068f060bacd2eefc90e3fda229b849a46e",
    "b40-seed9001-awgn":
        "79e1d7f46b72a0df1721f0b94951377dd8f85ecefa03646cbc04deeae23526c6",
    "b40-seed9001-multipath-cfo":
        "c224d8d6e590a61d77dd042d808a985a920c0414a78d0d6fb45baac64c33b75f",
    "b40-seed9001-offset-0.5":
        "dbf064c5d2adcb60ee64a982d0abaefd2a5cc98aeafc768cf6255868151de40b",
    "b160-seed1-awgn":
        "4deb97e0a001cccebb9493318af8a50b2bfd29703ecfb5b55e912d8ddfa89dbd",
    "b160-seed1-multipath-cfo":
        "68b58328f22c4b9508b134092966a729f20d3035801f3f83607329f6234147c4",
    "b160-seed1-offset-0.5":
        "c5a5ae39855a0ea59c444a7157cf048cf8cc3f5df2143bfedd5b253b6fa2ff86",
    "b160-seed9001-awgn":
        "1864ad27356c9966fdf6bd7e86f0ae09997cd2f0bb20ddd2040135f678e70131",
    "b160-seed9001-multipath-cfo":
        "bc7308e012993c825c1fff7ed3125a2fb02c15542db9c6c4564aa16a838e4c8a",
    "b160-seed9001-offset-0.5":
        "7f718f127e019d3888e43a66c832f201596f527a4d5754c4ed40715ab950068f",
}

SWEEP_SNRS = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0)
SWEEP_TRIALS = 60
SWEEP_DIGESTS = {
    "awgn": "6d8791486eb698f97ceee549dca61cd94566e918fee0c3ad83f9a6da7e3e9f22",
    "multipath-cfo": "d765b4bf4409d17a2e08f96da28b78a363e3d7f89da906dd28f0a23b0a377912",
}
# evaluate_conventional's two one-point paths, on the multipath-cfo
# channel: a noiseless point, and a finite point, whose stream is noise
# added before the rx filter (sweep --conventional --snrs 20, criterion 3)
MODE_DIGESTS = {
    "inf": "4955c793fa1329a4bf272a0295385820471ee28efb6d5da9318dcb8d3dc94a25",
    "one-point":
        "2d95286cd4275bb29e9d039c851485da8d68c24e65664e5474171604bf650a59",
}
MODES = {"inf": {"snrs_db": (math.inf,)}, "one-point": {"snrs_db": (20.0,)}}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _outcomes_digest(points) -> str:
    outcomes = [[dataclasses.astuple(o) for o in point] for point in points]
    return _sha256(repr(outcomes).encode())


@pytest.mark.parametrize("channel", sorted(CHANNELS))
@pytest.mark.parametrize("seed", [1, 9001])
@pytest.mark.parametrize("block_len", [40, 160])
def test_generate_bytes_pinned(block_len, seed, channel):
    blocks = generate(DatasetSpec(block_len=block_len, seed=seed,
                                  n_blocks=GENERATE_BLOCKS,
                                  channel=CHANNELS[channel]))
    assert (_sha256(blocks.tobytes())
            == GENERATE_DIGESTS[f"b{block_len}-seed{seed}-{channel}"])


@pytest.mark.parametrize("channel", ["awgn", "multipath-cfo"])
def test_sweep_outcomes_pinned(channel):
    points = evaluate_conventional(StreamTrialConfig(channel=CHANNELS[channel]),
                                   SWEEP_TRIALS, seed=1, snrs_db=SWEEP_SNRS)
    assert _outcomes_digest(points) == SWEEP_DIGESTS[channel]


@pytest.mark.parametrize("mode", sorted(MODES))
def test_conventional_mode_outcomes_pinned(mode):
    points = evaluate_conventional(
        StreamTrialConfig(channel=CHANNELS["multipath-cfo"]), SWEEP_TRIALS,
        seed=1, **MODES[mode])
    assert _outcomes_digest(points) == MODE_DIGESTS[mode]
