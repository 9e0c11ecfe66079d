"""Analytic complexity models for both detectors.

Per-layer multiply/add counts for the CNN, FLOPS-per-second at the 1 MHz
base rate (the CNN consumes non-overlapping B-sample blocks, so it
processes rate/B blocks per second), and the sliding-window cost of the
conventional correlator (one new window per incoming sample).

Real-FLOP convention for complex arithmetic: complex multiply = 6 real
FLOPs (4 mul + 2 add), complex add = 2, magnitude-squared = 3 (2 mul +
1 add).  The convention string is embedded in every report.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import cnn
from .corrsync import CorrDetectorConfig
from .preamble import BASE_RATE_HZ

COMPLEX_OP_CONVENTION = "cmul=6, cadd=2, magsq=3 real FLOPs"


@dataclass(frozen=True)
class LayerCost:
    name: str
    muls: int
    adds: int

    def __post_init__(self):
        if self.muls < 0 or self.adds < 0:
            raise ValueError("operation counts must be non-negative")

    @property
    def total(self) -> int:
        return self.muls + self.adds


@dataclass(frozen=True)
class FlopsReport:
    detector: str
    per_layer: tuple  # of LayerCost
    blocks_per_second: float
    convention: str = COMPLEX_OP_CONVENTION

    @property
    def total_muls(self) -> int:
        return sum(c.muls for c in self.per_layer)

    @property
    def total_adds(self) -> int:
        return sum(c.adds for c in self.per_layer)

    @property
    def total_per_block(self) -> int:
        return self.total_muls + self.total_adds

    @property
    def mflops(self) -> float:
        return self.total_per_block * self.blocks_per_second / 1e6


def conv1d_cost(filter_len: int, ch_in: int, ch_out: int, out_width: int,
                name: str = "conv1d") -> LayerCost:
    """Convolution layer cost: muls F*ch_i*ch_o*K, adds F*(ch_i+1)*ch_o*K."""
    if min(filter_len, ch_in, ch_out, out_width) < 1:
        raise ValueError("all dimensions must be positive")
    return LayerCost(name,
                     filter_len * ch_in * ch_out * out_width,
                     filter_len * (ch_in + 1) * ch_out * out_width)


def fc_cost(n_in: int, n_out: int, name: str = "fc") -> LayerCost:
    """Fully-connected layer cost: muls N_i*N_o, adds (N_i+1)*N_o."""
    if min(n_in, n_out) < 1:
        raise ValueError("layer sizes must be positive")
    return LayerCost(name, n_in * n_out, (n_in + 1) * n_out)


def model_flops(cfg: cnn.CnnDetectorConfig) -> FlopsReport:
    """Cost of the CNN detector over non-overlapping consecutive blocks."""
    w = cfg.layer_widths()
    layers = (
        conv1d_cost(cnn.CONV1_FILTER_LEN, cnn.IN_CHANNELS, cnn.CONV1_FILTERS,
                    w["K1"], "conv1"),
        conv1d_cost(cnn.CONV2_FILTER_LEN, cnn.CONV1_FILTERS, cnn.CONV2_FILTERS,
                    w["K2"], "conv2"),
        fc_cost(w["flatten"], cnn.FC_NEURONS, "fc"),
        fc_cost(cnn.FC_NEURONS, 1, "output"),
    )
    return FlopsReport(f"cnn-B{cfg.block_len}", layers,
                       BASE_RATE_HZ / cfg.block_len)


def conventional_flops(cfg: CorrDetectorConfig | None = None) -> FlopsReport:
    """Direct (non-recursive) per-slide cost of the coarse correlator.

    Per slide over a window of L samples: L complex multiplies and L-1
    complex adds for the correlation, L magnitude-squares and L-1 complex
    adds for the power (counted with the complex-add convention), plus
    |corr|^2 (3), power^2 (1) and the divide (1).  Total 13L + 1 real
    FLOPs, one slide per incoming sample; the fine stage runs only on
    detections and is excluded.
    """
    cfg = cfg or CorrDetectorConfig()
    L = cfg.l_window
    layers = (
        LayerCost("autocorr", 4 * L, 2 * L + 2 * (L - 1)),
        LayerCost("window_power", 2 * L, L + 2 * (L - 1)),
        LayerCost("metric", 4, 1),
    )
    return FlopsReport("conventional", layers, BASE_RATE_HZ)


def conventional_flops_recursive(cfg: CorrDetectorConfig | None = None
                                 ) -> FlopsReport:
    """Running-sum cost of the coarse correlator: the form
    `corrsync.metric_trace` runs, 31 real FLOPs per incoming sample.
    `flops --all` reports it next to the direct per-slide model, which
    stays the headline number (criterion 7).

    Each slide adds one new term and removes one old term from both running
    sums: 2 complex multiplies + 2 complex adds for the correlation, 2
    magnitude-squares + 2 adds (complex-add convention) for the power, plus
    the 5 metric ops.  None of that depends on the window, so cfg is not
    read; it is taken for the same call form as conventional_flops.
    """
    layers = (
        LayerCost("autocorr_update", 8, 8),
        LayerCost("window_power_update", 4, 6),
        LayerCost("metric", 4, 1),
    )
    return FlopsReport("conventional-recursive", layers, BASE_RATE_HZ)


def report_rows(report: FlopsReport) -> list[tuple]:
    """CSV-ready (layer, muls, adds) rows plus a totals row."""
    rows = [(c.name, c.muls, c.adds) for c in report.per_layer]
    rows.append(("total", report.total_muls, report.total_adds))
    return rows
