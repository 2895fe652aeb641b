"""Exact polynomial machinery and certified bounds for the Gaussian Mills ratio.

Every record, and each row of bounds.FAMILIES, is a NamedTuple, not a frozen
dataclass: dataclasses imports inspect and ast, each definition execs
generated methods, and a frozen __init__ is five times slower.

Importing the package loads no mpmath, and neither does `mills verify`.
OracleValue (value, error_bound) and Certificate (margin, threshold) hold
those fields as raw (sign, man, exp, bc) integer tuples, and the package
reads them as integers; reading one as an attribute gives an mpf, formed
then by numutil.as_mpf, which imports mpmath on its first call.  A record
built with mpf items reads them as they are.  Every other public value
that is an mpf is formed as one when it is returned.
"""

from .contfrac import cf_b, cf_convergent, cf_ladder_eval
from .errors import DomainError, EnvelopeError, IdentityError, MillsError, SingularityError
from .families import (
    PQPair,
    QuadraticTriple,
    a_closed_form,
    discriminant,
    generating_function_residual,
    p_closed_form,
    pq_pair,
    q_closed_form,
    quadratic_triple,
    verify_identities,
)
from .bounds import (
    BetaRoot,
    Certificate,
    Enclosure,
    SecondOrderBound,
    beta,
    certify_grid,
    first_order_enclosure,
    first_order_error_bound,
    komatsu_lower,
    log_convexity_check,
    phi_derivative,
    second_order_bound,
    szarek_werner_upper,
)
from .oracle import OracleValue, phi_quadrature, phi_series
from .poly import IntPolynomial, ONE, X, ZERO

__version__ = "0.1.0"

__all__ = [
    "BetaRoot",
    "Certificate",
    "DomainError",
    "Enclosure",
    "EnvelopeError",
    "IdentityError",
    "IntPolynomial",
    "MillsError",
    "ONE",
    "OracleValue",
    "PQPair",
    "QuadraticTriple",
    "SecondOrderBound",
    "SingularityError",
    "X",
    "ZERO",
    "a_closed_form",
    "beta",
    "certify_grid",
    "cf_b",
    "cf_convergent",
    "cf_ladder_eval",
    "discriminant",
    "first_order_enclosure",
    "first_order_error_bound",
    "generating_function_residual",
    "komatsu_lower",
    "log_convexity_check",
    "p_closed_form",
    "phi_derivative",
    "phi_quadrature",
    "phi_series",
    "pq_pair",
    "q_closed_form",
    "quadratic_triple",
    "second_order_bound",
    "szarek_werner_upper",
    "verify_identities",
]
