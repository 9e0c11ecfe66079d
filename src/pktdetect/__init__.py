"""Packet-detection workbench: 802.11ah-style preamble synthesis, channel
simulation, a conventional correlation detector, a from-scratch 1D-CNN
detector, and FLOPS complexity models for both."""

__version__ = "0.1.0"

from .preamble import (ComplexSignal, PreambleSpec, build_preamble,
                       default_preamble_spec, ofdm_symbol, upsample_filter,
                       design_interp_filter)
from .channel import (ChannelConfig, apply_channel, draw_model_b_taps,
                      rx_frontend)
from .corrsync import (CorrDetectorConfig, DetectionResult, coarse_detect,
                       fine_detect, plateau_refine)
from .cnn import (CnnDetectorConfig, CnnModel, block_to_channels, build_model,
                  evaluate, load_model, save_model)
from .dataset import DatasetSpec, Kind, generate, record_dtype, split
from .flops import (FlopsReport, LayerCost, conv1d_cost, conventional_flops,
                    fc_cost, model_flops)
