"""Workload definitions, shared by run.py and worker.py (no numpy here, so
run.py stays light).

Both workloads run the README's whole flow in each round:
gen -> train -> eval (several calls) -> sweep --conventional.  The block
length decides which layer dominates a round.  The seed picks the dataset
spec's seed, the training seed and the sweep seed; sizes and make-up are
fixed, so the work in a round does not depend on the seed.

The sizes follow the program's own traffic where a round can afford it:
the project README's dataset spec (10000 blocks), the CLI's sweep default
(500 trials per SNR point) and its six default SNR points.  Training is
the exception: the README example's 60 epochs over 7000 training blocks
would take about 15 s at B=160, so a round trains 8 epochs (see
README.md, "Workloads", for what that does to the shares).
"""
SNRS = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0)
BATCH_SIZE = 80

ROUND = dict(n_blocks=10000, epochs=8, eval_calls=2, packets=500)

WORKLOADS = {
    # conv layers take most of train; nn changes show here first
    "pipeline-b160": dict(ROUND, block_len=160),
    # tiny conv layers make nn under a tenth of the round (the control for nn),
    # while each 40-sample window is still cut from a 2B+576-sample simulation
    "pipeline-b40": dict(ROUND, block_len=40),
}


def dataset_spec(block_len: int, n_blocks: int, seed: int) -> dict:
    """Multipath + CFO blocks, SNR uniform in [0, 25] dB, half with a start."""
    return {"block_len": block_len, "n_blocks": n_blocks, "frac_no_start": 0.5,
            "frac_noise_within_no_start": 0.5, "snr_range_db": [0.0, 25.0],
            "split": [0.7, 0.15, 0.15], "seed": seed,
            "channel": {"os_factor": 4, "filter_taps": 48, "cfo_max_hz": 18000.0,
                        "multipath": True, "rms_delay_spread_ns": 80.0,
                        "fractional_timing_offset": 0.0},
            "name": f"blocks{block_len}"}
