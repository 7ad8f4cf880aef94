"""Closed-form virtual degree evaluators.

Three target families have known product formulas for the virtual
count of degree-d maps from a general genus-g curve through the
forced number n of general points:

    projective space P^r      (r + 1)^g
    hypersurface, e >= 3      ((e-1)!)^n * (r+2-e)^g * e^((d-n)e - g + 1)
                              valid for r >= 2e - 3
    quadric, r >= 3           ((2r)^g + (-1)^d (2 delta)^g) / 2
                              delta = 1 for odd r, 2 for even r

Each private evaluator below returns its formula's (base, exponent)
factors, and `vtev` alone multiplies them, so a result's factorization
hint re-multiplies to its value by construction and downstream
valuation work never has to factor the (possibly enormous) integer.

`vtev` is the only entry: it picks the formula by the target's kind,
so each evaluator sees only its own kind. They still check the
hypotheses of their formula (e >= 3 and r >= 2e - 3 for
hypersurfaces, r >= 3 for quadrics), because a `TargetSpec` built
field by field can carry any e and r.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .arith import factorial
from .errors import HypothesisViolation, NegativeExponent, NoKnownFormula
from .targets import TargetKind, TevProblem

__all__ = ["FormulaKind", "VTevResult", "vtev"]


class FormulaKind(Enum):
    PROJECTIVE_SPACE = "projective-space"
    HYPERSURFACE = "hypersurface"
    QUADRIC = "quadric"


@dataclass
class VTevResult:
    """A virtual count together with how it was produced.

    `factorization` is a tuple of (base, exponent) pairs whose product
    equals `value`; for the quadric the value is not naturally a
    product, so the hint is the trivial one. Treated as immutable.
    """

    value: int
    problem: TevProblem
    formula: FormulaKind
    factorization: tuple[tuple[int, int], ...]


def _projective(problem: TevProblem) -> tuple[tuple[int, int], ...]:
    """Factors for P^r: (r + 1)^g."""
    return ((problem.target.r + 1, problem.g),)


def _hypersurface(problem: TevProblem) -> tuple[tuple[int, int], ...]:
    """Factors for a degree-e hypersurface, e >= 3 and r >= 2e - 3:
    ((e-1)!)^n * (r+2-e)^g * e^((d-n)e - g + 1).

    Only a field-built `TargetSpec` reaches the NegativeExponent guard:
    for `TargetSpec.hypersurface`, d is a multiple of r/gcd(e-2, r), so
    the last exponent (e-1)(g-1) + d*e*(e-2)/r is at least 1.
    """
    e, r = problem.target.e, problem.target.r
    if e < 3:
        raise HypothesisViolation(f"hypersurface formula needs e >= 3, got {e}")
    if r < 2 * e - 3:
        raise HypothesisViolation(
            f"hypersurface formula needs r >= 2e - 3 = {2 * e - 3}, got r={r}"
        )
    g, d, n = problem.g, problem.d, problem.n
    exponent = (d - n) * e - g + 1
    if exponent < 0:
        raise NegativeExponent(
            f"exponent (d-n)e - g + 1 = {exponent} is negative"
        )
    return ((factorial(e - 1), n), (r + 2 - e, g), (e, exponent))


def _quadric(problem: TevProblem) -> tuple[tuple[int, int], ...]:
    """The count for a quadric of dimension r >= 3, as ((value, 1),).

    ((2r)^g + (-1)^d (2 delta)^g) / 2 with delta = 1 for odd r and 2
    for even r; the numerator is always even, so the division is exact.
    """
    r, g, d = problem.target.r, problem.g, problem.d
    if r < 3:
        raise HypothesisViolation(f"quadric formula needs r >= 3, got {r}")
    delta = 1 if r % 2 else 2
    sign = -1 if d % 2 else 1
    numerator = (2 * r) ** g + sign * (2 * delta) ** g
    if numerator % 2:
        raise ArithmeticError(f"quadric numerator {numerator} is odd")
    return ((numerator // 2, 1),)


_DISPATCH = {
    TargetKind.PROJECTIVE_SPACE: (FormulaKind.PROJECTIVE_SPACE, _projective),
    TargetKind.HYPERSURFACE: (FormulaKind.HYPERSURFACE, _hypersurface),
    TargetKind.QUADRIC: (FormulaKind.QUADRIC, _quadric),
}


def vtev(problem: TevProblem) -> VTevResult:
    """The closed-form virtual count of a well-posed problem.

    The only entry to the closed forms: it dispatches on the target's
    kind, raises NoKnownFormula for a kind without one, and is the one
    place that multiplies an evaluator's factors into the value.
    """
    entry = _DISPATCH.get(problem.target.kind)
    if entry is None:
        raise NoKnownFormula(
            f"no closed form for {problem.target.describe()}"
        )
    formula, evaluator = entry
    factors = evaluator(problem)
    value = 1
    for base, exp in factors:
        value *= base ** exp
    return VTevResult(value, problem, formula, factors)
