"""Exact spectra of zigzag and armchair nanotube tight-binding models."""

from .core import (
    ArmchairModel,
    PotentialProfile,
    ZigzagModel,
    flat_field_amplitudes,
    load_potential,
    magnetic_phase,
)
from .zigzag import ScalarPeriodicJacobi, channel_symmetry_map, decompose_zigzag, gauge_reduce
from .armchair import (
    BlockPeriodicJacobi,
    decompose_armchair,
    model_from_field,
    tube_geometry,
)
from .spectral import (
    BandStructure,
    ChannelBands,
    armchair_unperturbed,
    flat_band_spectrum,
    full_spectrum,
)
from .oracle import build_full_hamiltonian, compare_decomposition
from .asymptotics import shifted_schroedinger_inclusion

__all__ = [
    "ArmchairModel",
    "BandStructure",
    "BlockPeriodicJacobi",
    "ChannelBands",
    "PotentialProfile",
    "ScalarPeriodicJacobi",
    "ZigzagModel",
    "armchair_unperturbed",
    "build_full_hamiltonian",
    "channel_symmetry_map",
    "compare_decomposition",
    "decompose_armchair",
    "decompose_zigzag",
    "flat_band_spectrum",
    "flat_field_amplitudes",
    "full_spectrum",
    "gauge_reduce",
    "load_potential",
    "magnetic_phase",
    "model_from_field",
    "shifted_schroedinger_inclusion",
    "tube_geometry",
]
