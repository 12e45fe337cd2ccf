"""Exact spectra of zigzag and armchair nanotube tight-binding models."""

from .core import (
    ArmchairModel,
    PotentialProfile,
    ZigzagModel,
    flat_field_amplitudes,
    load_potential,
    magnetic_phase,
)
from .armchair import (
    decompose_armchair,
    model_from_field,
    tube_geometry,
)
from .spectral import (
    BandStructure,
    flat_band_spectrum,
    full_spectrum,
)
from .oracle import build_full_hamiltonian, compare_decomposition

__all__ = [
    "ArmchairModel",
    "BandStructure",
    "PotentialProfile",
    "ZigzagModel",
    "build_full_hamiltonian",
    "compare_decomposition",
    "decompose_armchair",
    "flat_band_spectrum",
    "flat_field_amplitudes",
    "full_spectrum",
    "load_potential",
    "magnetic_phase",
    "model_from_field",
    "tube_geometry",
]
