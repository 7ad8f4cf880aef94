"""Fano targets of Picard rank one and well-posedness of point counts.

A target is described by the handful of integers every degree formula
consumes: the dimension r, the hypersurface degree e where meaningful,
the index I (anticanonical pairing with the generator curve class),
and the minimal-pairing bounds s and t when known or asserted. Curve
classes are a single integer d, the degree against the ample generator.

For genus g and degree d the marking count is forced by dimensions:

    n = 1 - g + d * I / r

A triple is well-posed when n is a nonnegative integer and (g, n) is
in the stable range 2g - 2 + n > 0. Each check lives in one place:
`TargetSpec` checks the target, `make_problem` computes n and rejects
a non-integral one, and the `TevProblem` constructor checks the rest.
So every constructed problem is well-posed, and one built directly
with the forced n raises exactly what `make_problem` raises.
"""

from __future__ import annotations

from enum import Enum
from math import gcd

from .arith import _integer
from .errors import (
    DomainError,
    InvalidTarget,
    NegativeN,
    NonFano,
    NonIntegerN,
    UnstableRange,
)

__all__ = [
    "TargetKind",
    "TargetSpec",
    "TevProblem",
    "c1_pairing",
    "degree_step",
    "make_problem",
]


class TargetKind(Enum):
    PROJECTIVE_SPACE = "projective-space"
    HYPERSURFACE = "hypersurface"
    QUADRIC = "quadric"
    HOMOGENEOUS = "homogeneous"
    CUSTOM = "custom"


class ValueObject:
    """Base of the value classes: `==` by field and a field-by-field
    repr, over the names a subclass lists in `_fields`.

    Instances are treated as immutable and compare by value, so they
    are unhashable. A plain base rather than `dataclasses`, whose import
    chain (`inspect`, `ast`, `dis`) and per-class code generation cost
    every CLI start far more than a single point's computation.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name) for name in self._fields
        )

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class TargetSpec(ValueObject):
    """A Picard-rank-1 Fano target.

    `index` is the pairing of c1 with the generator curve class, so it
    must be positive. `s_bound` and `t_bound` are the minimal c1
    pairings over curve classes with surjective one-point (resp.
    two-point) evaluation; for homogeneous and custom targets they are
    recorded as asserted by the caller, never derived. A non-integer
    invariant raises InvalidTarget rather than being truncated. Treated
    as immutable: nothing changes a spec after the constructor.
    """

    __slots__ = _fields = (
        "kind", "r", "e", "index", "s_bound", "t_bound", "ci_degrees"
    )

    def __init__(
        self,
        kind: TargetKind,
        r: int,
        e: int,
        index: int,
        s_bound: int | None = None,
        t_bound: int | None = None,
        ci_degrees: tuple[int, ...] | None = None,
    ) -> None:
        self.kind = kind
        self.r = r = _integer(r, "dimension r", InvalidTarget)
        self.e = e = _integer(e, "degree e", InvalidTarget)
        self.index = index = _integer(index, "index", InvalidTarget)
        if r < 1:
            raise InvalidTarget(f"dimension must be >= 1, got r={r}")
        if e < 1:
            raise InvalidTarget(f"degree must be >= 1, got e={e}")
        if index <= 0:
            raise NonFano(
                f"anticanonical degree {index} is not positive; "
                "the target is not Fano"
            )
        if s_bound is not None:
            s_bound = _integer(s_bound, "s bound", InvalidTarget)
            if s_bound < 1:
                raise InvalidTarget(f"s bound must be >= 1, got {s_bound}")
        if t_bound is not None:
            t_bound = _integer(t_bound, "t bound", InvalidTarget)
            if t_bound < 1:
                raise InvalidTarget(f"t bound must be >= 1, got {t_bound}")
            if s_bound is not None and s_bound < t_bound:
                raise InvalidTarget("s bound cannot be smaller than t bound")
        if ci_degrees is not None:
            ci_degrees = tuple([
                _integer(e_i, "complete intersection degree", InvalidTarget)
                for e_i in ci_degrees
            ])
            if any(e_i < 1 for e_i in ci_degrees):
                raise InvalidTarget("complete intersection degrees must be >= 1")
        self.s_bound = s_bound
        self.t_bound = t_bound
        self.ci_degrees = ci_degrees

    @classmethod
    def projective_space(cls, r: int) -> "TargetSpec":
        """P^r; lines realize both minimal pairings, so s = t = r + 1."""
        r = _integer(r, "dimension r", InvalidTarget)
        if r < 1:
            raise InvalidTarget(f"projective space needs r >= 1, got {r}")
        return cls(
            TargetKind.PROJECTIVE_SPACE,
            r=r,
            e=1,
            index=r + 1,
            s_bound=r + 1,
            t_bound=r + 1,
        )

    @classmethod
    def hypersurface(cls, e: int, r: int) -> "TargetSpec":
        """Smooth degree-e hypersurface of dimension r in P^{r+1}.

        Degree 1 is a hyperplane and normalizes to projective space;
        degree 2 normalizes to the quadric kind, which has its own
        closed form. The index is r + 2 - e, which is also t, and s is
        the conservative choice s = t.
        """
        e = _integer(e, "degree e", InvalidTarget)
        if e < 1:
            raise InvalidTarget(f"hypersurface degree must be >= 1, got {e}")
        r = _integer(r, "dimension r", InvalidTarget)
        if e == 1:
            return cls.projective_space(r)
        if e == 2:
            return cls.quadric(r)
        if r < 1:
            raise InvalidTarget(f"hypersurface needs r >= 1, got {r}")
        index = r + 2 - e
        if index <= 0:
            raise NonFano(
                f"degree {e} hypersurface of dimension {r} has "
                f"anticanonical degree {index} <= 0"
            )
        return cls(
            TargetKind.HYPERSURFACE, r=r, e=e, index=index, s_bound=index, t_bound=index
        )

    @classmethod
    def quadric(cls, r: int) -> "TargetSpec":
        """Smooth quadric of dimension r >= 3 (Picard rank 1, index r)."""
        r = _integer(r, "dimension r", InvalidTarget)
        if r < 3:
            raise InvalidTarget(
                f"quadric targets need dimension >= 3, got {r}"
            )
        return cls(
            TargetKind.QUADRIC, r=r, e=2, index=r, s_bound=r, t_bound=r
        )

    @classmethod
    def homogeneous(
        cls,
        r: int,
        index: int,
        s_bound: int | None = None,
        t_bound: int | None = None,
    ) -> "TargetSpec":
        """Homogeneous space of Picard rank 1 with the given invariants."""
        return cls(
            TargetKind.HOMOGENEOUS,
            r=r,
            e=1,
            index=index,
            s_bound=s_bound,
            t_bound=t_bound,
        )

    @classmethod
    def custom(
        cls,
        r: int,
        index: int,
        s_bound: int | None = None,
        t_bound: int | None = None,
        ci_degrees: tuple[int, ...] | None = None,
    ) -> "TargetSpec":
        """Arbitrary rank-1 Fano target described by asserted invariants.

        `ci_degrees` lists hypersurface degrees when the target is a
        complete intersection in projective space; the certifier can
        then use the excess-control inequality.
        """
        return cls(
            TargetKind.CUSTOM,
            r=r,
            e=1,
            index=index,
            s_bound=s_bound,
            t_bound=t_bound,
            ci_degrees=ci_degrees,
        )

    def describe(self) -> str:
        """Short human-readable name."""
        if self.kind is TargetKind.PROJECTIVE_SPACE:
            return f"P^{self.r}"
        if self.kind is TargetKind.HYPERSURFACE:
            return f"degree-{self.e} hypersurface in P^{self.r + 1}"
        if self.kind is TargetKind.QUADRIC:
            return f"quadric of dimension {self.r}"
        if self.kind is TargetKind.HOMOGENEOUS:
            return f"homogeneous space, dim {self.r}, index {self.index}"
        return f"custom target, dim {self.r}, index {self.index}"


class TevProblem(ValueObject):
    """A well-posed counting problem: target, genus, degree, markings.

    Construction decides well-posedness once n is known: integers
    g >= 0, d >= 1 and n (DomainError), the dimension constraint
    d * index = r * (n + g - 1) (DomainError), n >= 0 (NegativeN), and
    2g - 2 + n > 0 (UnstableRange). Treated as immutable.
    """

    __slots__ = _fields = ("target", "g", "d", "n")

    def __init__(self, target: TargetSpec, g: int, d: int, n: int) -> None:
        self.target = target
        self.g = g = _check_genus(g)
        self.d = d
        lhs = c1_pairing(target, d)
        self.n = n = _integer(n, "marking count")
        rhs = target.r * (n + g - 1)
        if lhs != rhs:
            raise DomainError(
                f"dimension constraint violated: d*I = {lhs} but "
                f"r*(n+g-1) = {rhs}"
            )
        if n < 0:
            raise NegativeN(f"marking count {n} is negative (g={g}, d={d})")
        if 2 * g - 2 + n <= 0:
            raise UnstableRange(
                f"(g, n) = ({g}, {n}) lies outside the stable range "
                "2g - 2 + n > 0"
            )


def c1_pairing(target: TargetSpec, d: int) -> int:
    """Pairing of c1 of the target with a degree-d curve class."""
    d = _integer(d, "curve degree")
    if d < 1:
        raise DomainError(f"curve degree must be >= 1, got {d}")
    return d * target.index


def _check_genus(g: int) -> int:
    g = _integer(g, "genus")
    if g < 0:
        raise DomainError(f"genus must be >= 0, got {g}")
    return g


def degree_step(target: TargetSpec) -> int:
    """The least degree d >= 1 with an integral marking count.

    n = 1 - g + d*I/r is an integer exactly when r divides d*I, that
    is, at the multiples of r / gcd(I, r), whatever g is; so a caller
    that wants only well-posed cells can skip all other degrees. For
    P^r this is r.
    """
    return target.r // gcd(target.index, target.r)


def make_problem(target: TargetSpec, g: int, d: int) -> TevProblem:
    """Compute the forced marking count and build the problem instance.

    Raises NonIntegerN when n is not an integer, and DomainError when
    g or d is not an integer, g < 0 or d < 1; the `TevProblem`
    constructor then raises NegativeN or UnstableRange. NonFano cannot
    survive TargetSpec construction, but a spec's fields can be
    reassigned, so it is re-checked here.
    Everything is decided in integers, the NonIntegerN message too: it
    spells the marking count as the reduced fraction num/den.
    """
    if target.index <= 0:
        raise NonFano(f"target has anticanonical degree {target.index} <= 0")
    g = _check_genus(g)
    c1 = c1_pairing(target, d)
    quotient, remainder = divmod(c1, target.r)
    if remainder:
        num = (1 - g) * target.r + c1
        k = gcd(num, target.r)
        raise NonIntegerN(
            f"marking count 1 - g + d*I/r = {num // k}/{target.r // k} "
            f"is not an integer (g={g}, d={d}, I={target.index}, r={target.r})"
        )
    return TevProblem(target=target, g=g, d=d, n=1 - g + quotient)
