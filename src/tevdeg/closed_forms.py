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
so each evaluator sees only its own kind. A spec of these kinds comes
only from its `TargetSpec` factory, so its e, r and index fit the
kind: a quadric has r >= 3, and a hypersurface has e >= 3 and index
r + 2 - e. The hypersurface evaluator still checks r >= 2e - 3, the
one hypothesis of its formula that a factory-built spec can miss.

Each kind's row in `_DISPATCH` also holds a bound on the bit length
of its formula's values over a grid, known before any value is
computed; `value_bits` reads it, and it returns None exactly for the
kinds `vtev` has no formula for.
"""

from __future__ import annotations

from enum import Enum

from .arith import _integer, factorial
from .errors import HypothesisViolation, NoKnownFormula
from .targets import TargetKind, TargetSpec, TevProblem, ValueObject

__all__ = ["FormulaKind", "VTevResult", "value_bits", "vtev"]


class FormulaKind(Enum):
    PROJECTIVE_SPACE = "projective-space"
    HYPERSURFACE = "hypersurface"
    QUADRIC = "quadric"


class VTevResult(ValueObject):
    """A virtual count together with how it was produced.

    `factorization` is a tuple of (base, exponent) pairs whose product
    equals `value`; for the quadric the value is not naturally a
    product, so the hint is the trivial one. Treated as immutable.
    """

    __slots__ = _fields = ("value", "problem", "formula", "factorization")

    def __init__(
        self,
        value: int,
        problem: TevProblem,
        formula: FormulaKind,
        factorization: tuple[tuple[int, int], ...],
    ) -> None:
        self.value = value
        self.problem = problem
        self.formula = formula
        self.factorization = factorization


def _projective(problem: TevProblem) -> tuple[tuple[int, int], ...]:
    """Factors for P^r: index^g, the index of P^r being r + 1."""
    return ((problem.target.index, problem.g),)


def check_hypersurface_range(e: int, r: int) -> None:
    """Raise HypothesisViolation unless r >= 2e - 3, the range where the
    formula for a degree-e >= 3 hypersurface holds. `very_free_search`
    shares this guard, so it reports no count the formula does not
    back."""
    if r < 2 * e - 3:
        raise HypothesisViolation(
            f"hypersurface formula needs r >= 2e - 3 = {2 * e - 3}, got r={r}"
        )


def _hypersurface(problem: TevProblem) -> tuple[tuple[int, int], ...]:
    """Factors for a degree-e hypersurface, e >= 3 and r >= 2e - 3:
    ((e-1)!)^n * (r+2-e)^g * e^((d-n)e - g + 1).

    The last exponent is at least 1: the index is r + 2 - e, so
    (d-n)e - g + 1 = (e-1)(g-1) + e*k with k = d(e-2)/r, a positive
    integer because n is one, and that is at least e - (e-1).
    """
    target = problem.target
    e = target.e
    check_hypersurface_range(e, target.r)
    g, d, n = problem.g, problem.d, problem.n
    return ((factorial(e - 1), n), (target.index, g), (e, (d - n) * e - g + 1))


def _quadric(problem: TevProblem) -> tuple[tuple[int, int], ...]:
    """The count for a quadric of dimension r >= 3, as ((value, 1),).

    ((2r)^g + (-1)^d (2 delta)^g) / 2 with delta = 1 for odd r and 2
    for even r; the numerator is always even, so the division is exact.
    """
    r, g, d = problem.target.r, problem.g, problem.d
    delta = 1 if r % 2 else 2
    sign = -1 if d % 2 else 1
    numerator = (2 * r) ** g + sign * (2 * delta) ** g
    if numerator % 2:
        raise ArithmeticError(f"quadric numerator {numerator} is odd")
    return ((numerator // 2, 1),)


def _projective_bits(target: TargetSpec, g_max: int, d_max: int) -> int:
    """The bound for P^r, which also bounds the line's count (at most
    2^g): (r + 1)^g does not grow with d, and log2(r + 1) is at most
    r.bit_length()."""
    return g_max * target.r.bit_length()


def _degree_bits(target: TargetSpec, g_max: int, d_max: int) -> int:
    """The bound for quadrics (e = 2) and hypersurfaces, whose values
    grow with d as well as g; it is about twice their size."""
    return max(g_max, d_max) * target.r * target.e


# kind -> (formula, its evaluator, its bound on the values' bit length)
_DISPATCH = {
    TargetKind.PROJECTIVE_SPACE: (FormulaKind.PROJECTIVE_SPACE, _projective, _projective_bits),
    TargetKind.HYPERSURFACE: (FormulaKind.HYPERSURFACE, _hypersurface, _degree_bits),
    TargetKind.QUADRIC: (FormulaKind.QUADRIC, _quadric, _degree_bits),
}


def value_bits(target: TargetSpec, g_max: int, d_max: int) -> int | None:
    """A bound on the bit length of the closed-form values of `target`
    over the grid g <= g_max, d <= d_max, or None if its kind has no
    closed form. Every such value has at most this many bits plus one,
    and the bound is known before any value is computed."""
    g_max, d_max = _integer(g_max, "g_max"), _integer(d_max, "d_max")
    entry = _DISPATCH.get(target.kind)
    return None if entry is None else entry[2](target, g_max, d_max)


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
    formula, evaluator, _bits = entry
    factors = evaluator(problem)
    value = 1
    for base, exp in factors:
        value *= base ** exp
    return VTevResult(value, problem, formula, factors)
