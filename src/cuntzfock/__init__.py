"""Exact boson/fermion engine on permutative representation spaces."""

from .correspondence import (
    CorrespondencePair,
    enumerate_grade,
    forward,
    forward_operational,
    inverse,
)
from .ladder import (
    BosonMonomial,
    BoundsError,
    FermionSubset,
    apply_boson,
    apply_fermion,
    boson_state,
    fermion_state,
    normal_order_fermion,
    parse_boson_word,
    parse_fermion_word,
)
from .oracles import apply_rho, apply_zeta
from .radical import ONE, ZERO, RadicalScalar, sqrt_of_nat
from .rep import (
    RepSpace,
    SpaceMismatchError,
    State,
    apply_s,
    apply_s_star,
    apply_t,
    apply_t_star,
    gp_vector,
)
from .words import TailWord, index_to_word, word_to_index

__all__ = [
    "BosonMonomial",
    "BoundsError",
    "CorrespondencePair",
    "FermionSubset",
    "ONE",
    "RadicalScalar",
    "RepSpace",
    "SpaceMismatchError",
    "State",
    "TailWord",
    "ZERO",
    "apply_boson",
    "apply_fermion",
    "apply_rho",
    "apply_s",
    "apply_s_star",
    "apply_t",
    "apply_t_star",
    "apply_zeta",
    "boson_state",
    "enumerate_grade",
    "fermion_state",
    "forward",
    "forward_operational",
    "gp_vector",
    "index_to_word",
    "inverse",
    "normal_order_fermion",
    "parse_boson_word",
    "parse_fermion_word",
    "sqrt_of_nat",
    "word_to_index",
]

__version__ = "0.1.0"
