"""Exact boson/fermion engine on permutative representation spaces.

The package root imports a module on the first use of one of its names
(PEP 562), so `import cuntzfock.radical` loads `radical` alone.
"""

import importlib

# each public name, under the module that defines it
_PUBLIC = {
    "correspondence": ("BosonMonomial", "BoundsError", "CorrespondencePair", "FermionSubset",
                       "enumerate_grade", "forward", "forward_operational", "inverse",
                       "normal_order_fermion"),
    "ladder": ("apply", "boson_state", "fermion_state", "parse_boson_word",
               "parse_fermion_word"),
    "oracles": ("apply_rho", "apply_zeta"),
    "radical": ("ONE", "ZERO", "RadicalScalar", "sqrt_of_nat"),
    "rep": ("RepSpace", "SpaceMismatchError", "State", "gp_vector"),
    "words": ("TailWord", "index_to_word", "word_to_index"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name, read from its module on first use and kept here."""
    if name not in _MODULE_OF:
        # not ours: `from cuntzfock import cli` then imports the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
