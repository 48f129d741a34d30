"""Affine filter bank modulation laboratory.

A numpy-based transceiver for the chirp-precoded filter bank waveform,
a prefix-based chirped-multicarrier baseline, a doubly-dispersive
channel simulator, and the measurement stack (PAPR, PSD/OOBE, SIR, BER)
with a config-driven experiment CLI.
"""

__version__ = "0.1.0"

from .transforms import ChirpPair, DaftDims
from .filterbank import prototype_filter
from .modem import WaveformParams
