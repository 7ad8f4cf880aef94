"""Closed-form virtual degree evaluators.

Three target families have known product formulas for the virtual
count of degree-d maps from a general genus-g curve through the
forced number n of general points:

    projective space P^r      (r + 1)^g
    hypersurface, e >= 3      ((e-1)!)^n * (r+2-e)^g * e^((d-n)e - g + 1)
                              valid for r >= 2e - 3
    quadric, r >= 3           ((2r)^g + (-1)^d (2 delta)^g) / 2
                              delta = 1 for odd r, 2 for even r

Every result carries a factorization hint whose product re-multiplies
to the value, so downstream valuation work never has to factor the
(possibly enormous) integer.

`vtev` is the only entry: it picks the formula by the target's kind,
so each private evaluator below sees only its own kind. They still
check the hypotheses of their formula (e >= 3 and r >= 2e - 3 for
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


def _projective(problem: TevProblem) -> VTevResult:
    """Virtual count for P^r: (r + 1)^g."""
    base = problem.target.r + 1
    return VTevResult(
        value=base ** problem.g,
        problem=problem,
        formula=FormulaKind.PROJECTIVE_SPACE,
        factorization=((base, problem.g),),
    )


def _hypersurface(problem: TevProblem) -> VTevResult:
    """Virtual count for a degree-e hypersurface with e >= 3, r >= 2e - 3.

    The value is ((e-1)!)^n * (r+2-e)^g * e^((d-n)e - g + 1). For any
    well-posed problem the last exponent works out to
    (e-1)(g-1) + d*e*(e-2)/r >= 0, but the guard stays: the formula is
    only quoted with a nonnegative exponent.
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
    fact = factorial(e - 1)
    index = r + 2 - e
    return VTevResult(
        value=fact ** n * index ** g * e ** exponent,
        problem=problem,
        formula=FormulaKind.HYPERSURFACE,
        factorization=((fact, n), (index, g), (e, exponent)),
    )


def _quadric(problem: TevProblem) -> VTevResult:
    """Virtual count for a quadric of dimension r >= 3.

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
    value = numerator // 2
    return VTevResult(
        value=value,
        problem=problem,
        formula=FormulaKind.QUADRIC,
        factorization=((value, 1),),
    )


_DISPATCH = {
    TargetKind.PROJECTIVE_SPACE: _projective,
    TargetKind.HYPERSURFACE: _hypersurface,
    TargetKind.QUADRIC: _quadric,
}


def vtev(problem: TevProblem) -> VTevResult:
    """The closed-form virtual count of a well-posed problem.

    The only entry to the closed forms: it dispatches on the target's
    kind and raises NoKnownFormula for a kind without one.
    """
    evaluator = _DISPATCH.get(problem.target.kind)
    if evaluator is None:
        raise NoKnownFormula(
            f"no closed form for {problem.target.describe()}"
        )
    return evaluator(problem)
