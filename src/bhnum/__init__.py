"""Exact-arithmetic generator and congruence verifier for generalized
Bernoulli-Hurwitz numbers on cyclotomic-type curves."""

from .congruence import (
    MissingWeightError,
    VerifierDomainError,
    ap_invariant,
    integrality_scan,
    kummer_check,
    kummer_sweep,
    kummer_triples,
    vsc_decompose,
)
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
from .numtheory import (
    is_prime,
    padic_valuation,
    primes_below,
    primes_in_class,
)

__version__ = "0.1.0"
