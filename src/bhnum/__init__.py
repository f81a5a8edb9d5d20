"""Exact-arithmetic generator and congruence verifier for generalized
Bernoulli-Hurwitz numbers on cyclotomic-type curves."""

from .congruence import (
    MissingWeightError,
    VerifierDomainError,
    ap_invariant,
    classical_vsc_bernoulli,
    denominator_probe,
    integrality_scan,
    kummer_check,
    vsc_decompose,
)
from .curves import (
    CurveError,
    CurveSpec,
    canonical_exponents,
    differential_pullback,
    parse_curve,
    u_series,
    xy_of_t,
)
from .generator import (
    BHTable,
    CacheError,
    CrossCheckError,
    Expansion,
    ExpansionError,
    UnsupportedMethodError,
    bernoulli,
    certify,
    expand_by_ode,
    expand_by_reversion,
    expand_checked,
    expand_online,
    extract_numbers,
    hurwitz,
)
from .numtheory import (
    NegativeValuationError,
    NonInvertibleError,
    PrimeResidueClass,
    binomial,
    is_prime,
    mod_inverse,
    padic_valuation,
    primes_below,
    primes_in_class,
    rational_residue,
)
from .series import (
    SeriesError,
    TruncSeries,
    binomial_series,
    conv_coeff,
    revert,
    support_modulus,
)

__version__ = "0.1.0"
