"""Packet-detection workbench: 802.11ah-style preamble synthesis, channel
simulation, a conventional correlation detector, a from-scratch 1D-CNN
detector, and FLOPS complexity models for both."""

__version__ = "0.1.0"
