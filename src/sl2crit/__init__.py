"""Exact-arithmetic realization of affine sl2 at the critical level -2.

The module V = (bosonic Fock space) ⊗ (restricted semi-infinite wedge
space) ⊗ (rank-one lattice group algebra) carries explicit actions of the
affine generators, built from exponential operators, Clifford-like
oscillators and lattice translations.  Everything is computed over exact
rationals on finite perturbation encodings, so every stated operator
identity can be verified with zero tolerance on explicit bases.
"""

from .fock import FockElement, ONE, e_coeff, h_act, monomial
from .wedge import VACUUM, WedgeBasis, WedgeElement, apply_mode
from .rep import (NotAWeightVector, State, WeightTriple, act, alpha0_eig,
                  basis_state, c_act, chevalley_act, lattice_d_eig, v0, v1,
                  weight_of)
from .zalg import gen_commutator, zop_via_definition
from .harness import CheckSpec, Report, character, d_homogeneity_probe

__version__ = "0.1.0"

__all__ = [
    "FockElement", "ONE", "e_coeff", "h_act", "monomial",
    "WedgeBasis", "WedgeElement", "VACUUM", "apply_mode",
    "alpha0_eig", "lattice_d_eig",
    "State", "WeightTriple", "NotAWeightVector", "basis_state", "v0", "v1",
    "act", "c_act", "chevalley_act", "weight_of",
    "gen_commutator", "zop_via_definition",
    "CheckSpec", "Report", "character", "d_homogeneity_probe",
]
