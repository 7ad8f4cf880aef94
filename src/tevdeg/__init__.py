"""Exact Tevelev degrees for Fano targets of Picard rank one.

Closed-form virtual counts for projective spaces, low-degree
hypersurfaces, and quadrics; an independent quantum-cohomology
evaluation for projective space; Schubert calculus on Gr(2, d+1) for
geometric counts on the line; enumerativity certification; and a
very-free-curve existence check in positive characteristic. All
arithmetic is exact integer/rational arithmetic.
"""

from .arith import (
    binom,
    factorial,
    is_prime,
    legendre_valuation,
    padic_valuation,
)
from .certify import (
    Certificate,
    Check,
    Status,
    VeryFreeReport,
    certify,
    certify_target,
    check_complete_intersection,
    check_condition_ii,
    check_star2_prime0_hypersurface,
    very_free_search,
)
from .closed_forms import FormulaKind, VTevResult, vtev
from .errors import (
    DegreeUnderflow,
    DomainError,
    HypothesisViolation,
    InvalidTarget,
    LineDomainError,
    MismatchedRank,
    NegativeExponent,
    NegativeN,
    NoKnownFormula,
    NonFano,
    NonIntegerN,
    SpecialClassOutOfBox,
    TargetParseError,
    TevError,
    UnstableRange,
    WellPosednessError,
)
from .quantum import PowerTable, QElement, handle_element, q_mul, tqft_vtev
from .schubert import (
    SchubertCombo,
    integral,
    pieri_special,
    tev_p1_binomial,
    tev_p1_schubert,
)
from .targets import (
    TargetKind,
    TargetSpec,
    TevProblem,
    c1_pairing,
    make_problem,
)

__version__ = "0.1.0"
