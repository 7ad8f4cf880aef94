"""Enumerativity certification and very-free-curve existence.

A virtual count is *enumerative* when it equals the honest set-theoretic
count of maps; the certifier classifies each well-posed problem into

    Enumerative               equality is guaranteed at this (g, d)
    AsymptoticallyEnumerative equality holds for all large d at this
                              genus; no explicit bound is certified,
                              and the status is never upgraded to
                              Enumerative at a specific d
    NotEnumerative            the counts provably differ
    Unknown                   no implemented criterion applies
    NotWellPosed              the triple fails well-posedness

Every certificate records the numeric inequalities it checked, with
both sides evaluated, plus a short tag naming the criterion used.

The thresholds implemented:

    line (r = 1)      enumerative iff d >= g + 1; below that the
                      closed form and 2^g are attached, and they differ
    P^r, r >= 2       enumerative for d >= r(g + 1); at the minimal
                      classical degree d = r + gr/(r+1) with g > 0 the
                      virtual count exceeds the geometric one
    hypersurface      enumerative for g = 0 when r > (e+2)(e-2);
    (e >= 3)          asymptotically enumerative for g >= 1 when
                      r > (e+1)(e-2)
    quadric and       asymptotically enumerative at every fixed genus
    homogeneous
    custom            asymptotically enumerative when the boundary
                      condition s + t >= r + 1 holds together with
                      excess control (s > r, or the complete
                      intersection inequality I > (r - s) * sum(e_i))

The very-free search certifies, for a degree-e hypersurface over an
algebraically closed field of characteristic p > e with e >= 3 and
r > (e+2)(e-2), that a general hypersurface carries a very free
rational curve, by exhibiting a genus-0 count not divisible by p.
"""

from __future__ import annotations

import operator
from enum import Enum

from .arith import _integer, is_prime, legendre_valuation, padic_valuation
from .closed_forms import check_hypersurface_range, vtev
from .errors import (
    DomainError,
    HypothesisViolation,
    NonFano,
    TevError,
    WellPosednessError,
)
from .schubert import tev_p1_binomial
from .targets import (
    TargetKind,
    TargetSpec,
    TevProblem,
    ValueObject,
    degree_step,
    make_problem,
)

__all__ = [
    "Certificate",
    "Check",
    "Status",
    "VeryFreeReport",
    "certify",
    "certify_target",
    "check_complete_intersection",
    "check_condition_ii",
    "check_star2_prime0_hypersurface",
    "very_free_search",
]


class Status(Enum):
    ENUMERATIVE = "Enumerative"
    ASYMPTOTICALLY_ENUMERATIVE = "AsymptoticallyEnumerative"
    NOT_ENUMERATIVE = "NotEnumerative"
    UNKNOWN = "Unknown"
    NOT_WELL_POSED = "NotWellPosed"


_RELATIONS = {
    "==": operator.eq,
    "!=": operator.ne,
    ">=": operator.ge,
    ">": operator.gt,
    "<=": operator.le,
    "<": operator.lt,
}


class Check(ValueObject):
    """One evaluated inequality: description, both sides, verdict.
    Treated as immutable."""

    __slots__ = _fields = ("description", "left", "relation", "right", "holds")

    def __init__(
        self, description: str, left: int, relation: str, right: int, holds: bool
    ) -> None:
        self.description = description
        self.left = left
        self.relation = relation
        self.right = right
        self.holds = holds

    def recompute(self) -> bool:
        """Re-evaluate the relation; must agree with `holds`."""
        return _RELATIONS[self.relation](self.left, self.right)


def _check(description: str, left: int, relation: str, right: int) -> Check:
    return Check(description, left, relation, right, _RELATIONS[relation](left, right))


class Certificate(ValueObject):
    """Outcome of certification with its supporting arithmetic.

    `geometric_value` is only ever attached for the line, the one
    target with an implemented geometric formula. An Enumerative
    status requires every listed check to hold. Treated as immutable.
    """

    __slots__ = _fields = (
        "status", "cited_result", "checks", "vtev_value", "geometric_value"
    )

    def __init__(
        self,
        status: Status,
        cited_result: str,
        checks: tuple[Check, ...],
        vtev_value: int | None = None,
        geometric_value: int | None = None,
    ) -> None:
        self.status = status
        self.cited_result = cited_result
        self.checks = checks
        self.vtev_value = vtev_value
        self.geometric_value = geometric_value


class VeryFreeReport(ValueObject):
    """Very-free existence evidence for a hypersurface in char p.
    Treated as immutable."""

    __slots__ = _fields = (
        "e", "r", "p", "n", "d", "vtev_valuation", "conditions", "conclusion"
    )

    def __init__(
        self,
        e: int,
        r: int,
        p: int,
        n: int,
        d: int,
        vtev_valuation: int,
        conditions: tuple[Check, ...],
        conclusion: bool,
    ) -> None:
        self.e = e
        self.r = r
        self.p = p
        self.n = n
        self.d = d
        self.vtev_valuation = vtev_valuation
        self.conditions = conditions
        self.conclusion = conclusion


CITE_P1_THRESHOLD = "line threshold: enumerative iff d >= g+1"
CITE_PR_THRESHOLD = "projective-space threshold: enumerative for d >= r(g+1)"
CITE_PR_CASTELNUOVO = (
    "minimal classical degree d = r + gr/(r+1): virtual exceeds geometric count"
)
CITE_HOMOGENEOUS = "homogeneous targets: asymptotically enumerative at fixed genus"
CITE_HYP_GENUS0 = "genus-0 hypersurface criterion: r > (e+2)(e-2)"
CITE_HYP_ASYMPTOTIC = "hypersurface asymptotic criterion: r > (e+1)(e-2)"
CITE_GENERAL_ASYMPTOTIC = (
    "excess control plus boundary condition s + t >= r + 1"
)
CITE_VERY_FREE = (
    "very free rational curves from a p-indivisible genus-0 count"
)
CITE_NONE = "no applicable criterion"


# One constructor per criterion inequality. The certifiers, the
# very-free search and the public `check_*` predicates all build their
# checks here, so each inequality is written once.


def _boundary_check(s: int, t: int, r: int) -> Check:
    return _check("s + t >= r + 1", s + t, ">=", r + 1)


def _complete_intersection_check(index: int, s: int, r: int, degrees) -> Check:
    return _check(
        "I > (r - s) * sum(degrees)", index, ">", (r - s) * sum(degrees)
    )


def _genus0_hypersurface_check(e: int, r: int) -> Check:
    return _check("r > (e+2)(e-2)", r, ">", (e + 2) * (e - 2))


def _asymptotic_hypersurface_check(e: int, r: int) -> Check:
    return _check("r > (e+1)(e-2)", r, ">", (e + 1) * (e - 2))


def check_condition_ii(s: int, t: int, r: int) -> bool:
    """Boundary-node condition s + t >= r + 1.

    s and t are the minimal anticanonical pairings over curve classes
    with surjective one- and two-point evaluation maps; s >= t >= 1.
    """
    s, t, r = _integer(s, "s"), _integer(t, "t"), _integer(r, "r")
    if not s >= t >= 1:
        raise DomainError(f"need s >= t >= 1, got s={s}, t={t}")
    if r < 1:
        raise DomainError(f"need r >= 1, got {r}")
    return _boundary_check(s, t, r).holds


def check_complete_intersection(index: int, s: int, r: int, degrees) -> bool:
    """Excess-control inequality I > (r - s) * sum(e_i) for a complete
    intersection of the given degrees in projective space.

    Accepts any integers for index and s so the inequality can be
    probed across whole parameter grids, including degenerate corners.
    """
    index, s, r = _integer(index, "index"), _integer(s, "s"), _integer(r, "r")
    degrees = tuple([_integer(e_i, "degree") for e_i in degrees])
    if any(e_i < 1 for e_i in degrees):
        raise DomainError(f"degrees must be >= 1, got {degrees}")
    return _complete_intersection_check(index, s, r, degrees).holds


def check_star2_prime0_hypersurface(e: int, r: int) -> bool:
    """Genus-0 criterion r > (e+2)(e-2) for degree-e hypersurfaces."""
    e, r = _integer(e, "e"), _integer(r, "r")
    if e < 3:
        raise HypothesisViolation(f"criterion needs e >= 3, got {e}")
    return _genus0_hypersurface_check(e, r).holds


def _try_vtev(problem: TevProblem) -> int | None:
    try:
        return vtev(problem).value
    except TevError:
        return None


def certify(problem: TevProblem) -> Certificate:
    """Certify enumerativity of the virtual count for a well-posed problem."""
    target = problem.target
    if target.kind is TargetKind.PROJECTIVE_SPACE and target.r == 1:
        return _certify_line(problem)
    if target.kind is TargetKind.CUSTOM:
        return _certify_custom(problem)
    if target.kind is TargetKind.PROJECTIVE_SPACE:
        status, cited, checks = _certify_projective(problem)
    elif target.kind is TargetKind.HYPERSURFACE:
        status, cited, checks = _certify_hypersurface(problem)
    else:  # quadric and homogeneous targets
        status, cited, checks = Status.ASYMPTOTICALLY_ENUMERATIVE, CITE_HOMOGENEOUS, ()
    return Certificate(status, cited, checks, vtev_value=_try_vtev(problem))


def certify_target(target: TargetSpec, g: int, d: int) -> Certificate:
    """Like `certify`, but folds well-posedness failures into the status."""
    try:
        problem = make_problem(target, g, d)
    except WellPosednessError as exc:
        return Certificate(
            status=Status.NOT_WELL_POSED,
            cited_result=f"not well-posed: {exc.kind}",
            checks=(),
        )
    return certify(problem)


def _certify_line(problem: TevProblem) -> Certificate:
    g, d = problem.g, problem.d
    threshold = _check("d >= g + 1", d, ">=", g + 1)
    virtual = 2 ** g
    if 2 * d - 2 - g >= 0:
        geometric = tev_p1_binomial(g, d)
        status = Status.ENUMERATIVE if threshold.holds else Status.NOT_ENUMERATIVE
        return Certificate(
            status=status,
            cited_result=CITE_P1_THRESHOLD,
            checks=(threshold,),
            vtev_value=virtual,
            geometric_value=geometric,
        )
    # Well-posed, but below the domain where the geometric formula is
    # quoted; nothing is certified either way.
    domain = _check("2d - 2 - g >= 0", 2 * d - 2 - g, ">=", 0)
    return Certificate(
        status=Status.UNKNOWN,
        cited_result=CITE_NONE,
        checks=(threshold, domain),
        vtev_value=virtual,
    )


def _certify_projective(problem: TevProblem) -> tuple[Status, str, tuple[Check, ...]]:
    r, g, d = problem.target.r, problem.g, problem.d
    threshold = _check("d >= r(g + 1)", d, ">=", r * (g + 1))
    if threshold.holds:
        return Status.ENUMERATIVE, CITE_PR_THRESHOLD, (threshold,)
    # n = 1 - g + d(r+1)/r is r + 2 exactly at d = r + gr/(r+1), which
    # meets the threshold at g = 0 and is no integer at g = 1
    if problem.n == r + 2:
        minimal = _check("d == r + gr/(r+1)", d, "==", r + g * r // (r + 1))
        return Status.NOT_ENUMERATIVE, CITE_PR_CASTELNUOVO, (threshold, minimal)
    return Status.UNKNOWN, CITE_NONE, (threshold,)


def _certify_hypersurface(problem: TevProblem) -> tuple[Status, str, tuple[Check, ...]]:
    e, r = problem.target.e, problem.target.r
    if problem.g == 0:
        bound = _genus0_hypersurface_check(e, r)
        status, cited = Status.ENUMERATIVE, CITE_HYP_GENUS0
    else:
        bound = _asymptotic_hypersurface_check(e, r)
        status = Status.ASYMPTOTICALLY_ENUMERATIVE
        cited = CITE_HYP_ASYMPTOTIC
    if not bound.holds:
        status, cited = Status.UNKNOWN, CITE_NONE
    return status, cited, (bound,)


def _certify_custom(problem: TevProblem) -> Certificate:
    target = problem.target
    s, t, r = target.s_bound, target.t_bound, target.r
    if s is None or t is None:
        return Certificate(Status.UNKNOWN, CITE_NONE, ())
    boundary = _boundary_check(s, t, r)
    excess = _check("s > r", s, ">", r)
    checks = [boundary, excess]
    controlled = excess.holds
    if not controlled and target.ci_degrees:
        ci = _complete_intersection_check(target.index, s, r, target.ci_degrees)
        checks.append(ci)
        controlled = ci.holds
    if boundary.holds and controlled:
        status = Status.ASYMPTOTICALLY_ENUMERATIVE
        cited = CITE_GENERAL_ASYMPTOTIC
    else:
        status, cited = Status.UNKNOWN, CITE_NONE
    return Certificate(status, cited, tuple(checks))


def very_free_search(e: int, r: int, p: int) -> VeryFreeReport:
    """Find the smallest usable marking count and test p-divisibility.

    n and d come from the target, not from a search: `degree_step`
    gives the degrees with an integral n = 1 + d(r+2-e)/r, d is the
    least of them with d >= 3 and n >= 3 (n grows with d, and n >= 3
    is d >= 2r/(r+2-e)), and `make_problem` gives n at genus 0. Then
    computes the p-adic valuation of the genus-0 count

        ((e-1)!)^n * e^((d-n)e + 1)

    from its factorization (the integer itself is never factored).
    Below r = 2e - 3 that count has no proven formula, so the search
    raises the hypersurface formula's own HypothesisViolation there.
    The conclusion is True when r > (e+2)(e-2), p > e, and the
    valuation is 0; a True conclusion certifies a very free rational
    curve on a general degree-e hypersurface in characteristic p.

    The valuation only reports: it is 0 exactly when p > e, which is
    already a condition. At the d chosen here, d - n = d(e-2)/r - 1 is
    a nonnegative integer, since d is a multiple of r/gcd(e-2, r). So
    for p <= e the count has a factor p: from (e-1)! when p < e (and
    n >= 3), and from e^((d-n)e + 1) when p = e. For p > e neither
    (e-1)! nor e has one.
    """
    e, r, p = _integer(e, "e"), _integer(r, "r"), _integer(p, "p")
    if e < 3:
        raise HypothesisViolation(f"very-free search needs e >= 3, got {e}")
    if r < 1:
        raise DomainError(f"need r >= 1, got {r}")
    index = r + 2 - e
    if index <= 0:
        raise NonFano(f"degree {e} hypersurface of dimension {r} is not Fano")
    check_hypersurface_range(e, r)
    if not is_prime(p):
        raise HypothesisViolation(f"characteristic must be prime, got {p}")
    target = TargetSpec.hypersurface(e, r)
    unit = degree_step(target)
    least = max(3, -(-2 * r // index))  # ceil(2r/index) is n >= 3
    d = -(-least // unit) * unit
    n = make_problem(target, 0, d).n
    valuation = n * legendre_valuation(e - 1, p)
    valuation += ((d - n) * e + 1) * padic_valuation(e, p)
    conditions = (_genus0_hypersurface_check(e, r), _check("p > e", p, ">", e))
    conclusion = all(c.holds for c in conditions) and valuation == 0
    return VeryFreeReport(e, r, p, n, d, valuation, conditions, conclusion)
