"""Sketching substrate: hashing, 1-sparse recovery, ℓ0-samplers, reservoirs."""

from repro.sketch.hashing import PolynomialHash
from repro.sketch.onesparse import OneSparseRecovery
from repro.sketch.l0 import L0Bank, L0Sampler
from repro.sketch.reservoir import ReservoirSampler, SingleReservoir

__all__ = [
    "PolynomialHash",
    "OneSparseRecovery",
    "L0Bank",
    "L0Sampler",
    "ReservoirSampler",
    "SingleReservoir",
]
