"""Exact-arithmetic generator and congruence verifier for generalized
Bernoulli-Hurwitz numbers on cyclotomic-type curves.

The verifier names (from congruence and numtheory) load on first use, so
compute, export and the anchor sequences never compile them."""

from importlib import import_module

from .curves import (
    CurveError,
    CurveSpec,
    parse_curve,
)
from .generator import (
    BHTable,
    CacheError,
    Expansion,
    ExpansionError,
    bernoulli,
    certify,
    expand_checked,
    expand_online,
    extract_numbers,
    hurwitz,
)

# Each lazily exported name -> the module that defines it (PEP 562).
_LAZY = {
    **dict.fromkeys((
        "MissingWeightError", "Residues", "VerifierDomainError", "ap_invariant",
        "integrality_scan", "kummer_check", "kummer_sweep", "kummer_triples", "vsc_decompose",
    ), "congruence"),
    **dict.fromkeys(("is_prime", "padic_valuation", "primes_below", "primes_in_class"),
                    "numtheory"),
}

__all__ = [
    "CurveError", "CurveSpec", "parse_curve",
    "BHTable", "CacheError", "Expansion", "ExpansionError", "bernoulli", "certify",
    "expand_checked", "expand_online", "extract_numbers", "hurwitz",
    *_LAZY,
]

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)


def __dir__():
    return sorted({*globals(), *_LAZY})
