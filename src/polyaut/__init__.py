"""Exact computation with polynomial automorphisms of affine n-space
over the rationals: sparse polynomial arithmetic, endomorphism algebra,
locally-finite certification with minimal polynomials, tame normal forms,
and conjugation witnesses for the normal closure of the diagonal group.

The names below, and the submodules themselves, are imported on first
use (PEP 562): `import polyaut` loads no submodule, and a command line
call loads only the layers its subcommand needs.
"""

from importlib import import_module

__version__ = "0.1.0"

# each exported name and the submodule it lives in
_EXPORTS = {
    "NEG_INF": "poly",
    "Poly": "poly",
    "Endo": "endo",
    "SquareMatrixPoly": "endo",
    "linear_combination": "endo",
    "verify_inverse_pair": "endo",
    "ParseError": "textio",
    "MapDocument": "textio",
    "parse_poly": "textio",
    "parse_map": "textio",
    "render_poly": "textio",
    "render_map": "textio",
    "UniPoly": "locfin",
    "LFReport": "locfin",
    "InconsistencyError": "poly",
    "lf_certify": "locfin",
    "verify_vanishing": "locfin",
    "minimality_certificate": "locfin",
    "inverse_from_minpoly": "locfin",
    "reversal": "locfin",
    "conjugate": "locfin",
    "Diagonal": "tame",
    "Elementary": "tame",
    "Affine": "tame",
    "TameWord": "tame",
    "NormalForm": "tame",
    "gen_to_endo": "tame",
    "word_to_endo": "tame",
    "generator_determinant": "tame",
    "invert_generator": "tame",
    "invert_word": "tame",
    "affine_to_word": "tame",
    "push_diagonal": "tame",
    "normal_form": "tame",
    "Witness": "witness",
    "VerificationError": "poly",
    "witness_obs2": "witness",
    "witness_obs3": "witness",
    "witness_obs4": "witness",
    "nagata": "witness",
    "nagata_inverse": "witness",
    "verify_witness": "witness",
}

_SUBMODULES = ("poly", "endo", "linalg", "textio", "locfin", "tame", "witness", "cli")

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        # importing a submodule also binds it on this package
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_SUBMODULES))
