"""Fano targets of Picard rank one and well-posedness of point counts.

A target is described by the handful of integers every degree formula
consumes: the dimension r, the hypersurface degree e where meaningful,
the index I (anticanonical pairing with the generator curve class),
and the minimal-pairing bounds s and t when known or asserted. Curve
classes are a single integer d, the degree against the ample generator.

For genus g and degree d the marking count is forced by dimensions:

    n = 1 - g + d * I / r

A triple is well-posed when n is a nonnegative integer and (g, n) is
in the stable range 2g - 2 + n > 0. So a problem is fixed by the
target, g and d alone, and there is one door to it: `TargetSpec`
checks the target, and `TevProblem(target, g, d)` derives n and
decides the rest. `make_problem` is that call by name. Every
constructed problem is well-posed.

Only this module decides whether a target is valid, and each kind
has one door, its factory; `TargetSpec(...)` itself raises
InvalidTarget. A P^r, hypersurface or quadric spec comes only from
`projective_space`, `hypersurface` or `quadric`: each converts and
range-checks its own arguments, then builds the spec from the
invariants it derived (index, s and t) without checking them again.
So the closed forms only ever see an index and degree that fit their
kind. A homogeneous or custom spec comes only from `homogeneous` or
`custom`, which build through `_asserted`, the one copy of their
conversions and range checks: every argument is converted before any
range is checked. A spec is immutable: assigning to or deleting any
of its fields raises AttributeError, so what its factory checked
stays true.
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
    repr, over the names a subclass lists in `_fields`. The engines'
    `quantum.QElement` and `schubert.SchubertCombo` share its equality
    and keep their own algebraic reprs.

    Instances are treated as immutable (a TargetSpec is frozen) and
    compare by value, so they are unhashable. A plain base rather than
    `dataclasses`, whose import chain (`inspect`, `ast`, `dis`) and
    per-class code generation cost every CLI start far more than a
    single point's computation.
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
    invariant raises InvalidTarget rather than being truncated.

    Immutable: assigning to or deleting a field raises AttributeError.
    The five factories are the only public way to build a spec; the
    constructor raises InvalidTarget naming them. The P^r, hypersurface
    and quadric factories check only their arguments: the invariants
    they derive from them hold by arithmetic, so they go to `_new`
    unchecked. `homogeneous` and `custom` build through `_asserted`,
    which converts all their arguments, then checks every range. `_new`
    alone fills the slots, and pickle and `copy` rebuild a spec through
    it.
    """

    __slots__ = _fields = (
        "kind", "r", "e", "index", "s_bound", "t_bound", "ci_degrees"
    )

    def __init__(self, *args, **kwargs) -> None:
        raise InvalidTarget(
            "a target comes only from TargetSpec.projective_space, "
            ".hypersurface, .quadric, .homogeneous or .custom"
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"TargetSpec is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"TargetSpec is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return self._new, tuple([getattr(self, name) for name in self._fields])

    @classmethod
    def _new(cls, kind, r, e, index, s_bound, t_bound, ci_degrees) -> "TargetSpec":
        """The spec with these seven fields, unchecked: the one place
        that fills the slots, through their descriptors' own setters,
        which bypass `__setattr__`."""
        spec = object.__new__(cls)
        _set_kind(spec, kind)
        _set_r(spec, r)
        _set_e(spec, e)
        _set_index(spec, index)
        _set_s_bound(spec, s_bound)
        _set_t_bound(spec, t_bound)
        _set_ci_degrees(spec, ci_degrees)
        return spec

    @classmethod
    def _asserted(cls, kind, r, index, s_bound, t_bound, ci_degrees) -> "TargetSpec":
        """A homogeneous or custom spec: every argument converted (each
        bound kept as None when not given, `ci_degrees` made a tuple),
        then every range checked, then `_new`. e is always 1."""
        r = _integer(r, "dimension r", InvalidTarget)
        index = _integer(index, "index", InvalidTarget)
        if s_bound is not None:
            s_bound = _integer(s_bound, "s bound", InvalidTarget)
        if t_bound is not None:
            t_bound = _integer(t_bound, "t bound", InvalidTarget)
        if ci_degrees is not None:
            ci_degrees = tuple([
                _integer(e_i, "complete intersection degree", InvalidTarget)
                for e_i in ci_degrees
            ])
        if r < 1:
            raise InvalidTarget(f"dimension must be >= 1, got r={r}")
        if index <= 0:
            raise NonFano(
                f"anticanonical degree {index} is not positive; "
                "the target is not Fano"
            )
        if s_bound is not None and s_bound < 1:
            raise InvalidTarget(f"s bound must be >= 1, got {s_bound}")
        if t_bound is not None:
            if t_bound < 1:
                raise InvalidTarget(f"t bound must be >= 1, got {t_bound}")
            if s_bound is not None and s_bound < t_bound:
                raise InvalidTarget("s bound cannot be smaller than t bound")
        if ci_degrees is not None and any(e_i < 1 for e_i in ci_degrees):
            raise InvalidTarget("complete intersection degrees must be >= 1")
        return cls._new(kind, r, 1, index, s_bound, t_bound, ci_degrees)

    @classmethod
    def projective_space(cls, r: int) -> "TargetSpec":
        """P^r; lines realize both minimal pairings, so s = t = r + 1."""
        r = _integer(r, "dimension r", InvalidTarget)
        if r < 1:
            raise InvalidTarget(f"projective space needs r >= 1, got {r}")
        return cls._new(TargetKind.PROJECTIVE_SPACE, r, 1, r + 1, r + 1, r + 1, None)

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
        if e == 1:
            return cls.projective_space(r)
        if e == 2:
            return cls.quadric(r)
        r = _integer(r, "dimension r", InvalidTarget)
        if r < 1:
            raise InvalidTarget(f"hypersurface needs r >= 1, got {r}")
        index = r + 2 - e
        if index <= 0:
            raise NonFano(
                f"degree {e} hypersurface of dimension {r} has "
                f"anticanonical degree {index} <= 0"
            )
        return cls._new(TargetKind.HYPERSURFACE, r, e, index, index, index, None)

    @classmethod
    def quadric(cls, r: int) -> "TargetSpec":
        """Smooth quadric of dimension r >= 3 (Picard rank 1, index r)."""
        r = _integer(r, "dimension r", InvalidTarget)
        if r < 3:
            raise InvalidTarget(
                f"quadric targets need dimension >= 3, got {r}"
            )
        return cls._new(TargetKind.QUADRIC, r, 2, r, r, r, None)

    @classmethod
    def homogeneous(
        cls,
        r: int,
        index: int,
        s_bound: int | None = None,
        t_bound: int | None = None,
    ) -> "TargetSpec":
        """Homogeneous space of Picard rank 1 with the given invariants."""
        return cls._asserted(
            TargetKind.HOMOGENEOUS, r, index, s_bound, t_bound, None
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
        return cls._asserted(
            TargetKind.CUSTOM, r, index, s_bound, t_bound, ci_degrees
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


# the slot descriptors' setters, which `_new` calls directly: they skip
# the refusing `__setattr__` at less cost than `object.__setattr__`
_set_kind, _set_r, _set_e, _set_index, _set_s_bound, _set_t_bound, _set_ci_degrees = [
    vars(TargetSpec)[name].__set__ for name in TargetSpec._fields
]


class TevProblem(ValueObject):
    """A well-posed counting problem: target, genus, degree, and the
    marking count n = 1 - g + d*I/r that dimensions force.

    The constructor is the one well-posedness decision, in integers and
    in this order: DomainError unless g >= 0 and d >= 1 are integers,
    NonIntegerN (spelling n as a reduced fraction), NegativeN when
    n < 0, and UnstableRange unless 2g - 2 + n > 0. The target's index
    is positive, as its factory checked and its immutability keeps.
    g, d and n are stored as ints. Treated as immutable, but not
    frozen: a problem is built per cell, and nothing shares one.
    """

    __slots__ = _fields = ("target", "g", "d", "n")

    def __init__(self, target: TargetSpec, g: int, d: int) -> None:
        self.target = target
        self.g = g = _check_genus(g)
        self.d = d = _check_degree(d)
        c1 = d * target.index
        quotient, remainder = divmod(c1, target.r)
        if remainder:
            num = (1 - g) * target.r + c1
            k = gcd(num, target.r)
            raise NonIntegerN(
                f"marking count 1 - g + d*I/r = {num // k}/{target.r // k} "
                f"is not an integer (g={g}, d={d}, I={target.index}, r={target.r})"
            )
        self.n = n = 1 - g + quotient
        if n < 0:
            raise NegativeN(f"marking count {n} is negative (g={g}, d={d})")
        if 2 * g - 2 + n <= 0:
            raise UnstableRange(
                f"(g, n) = ({g}, {n}) lies outside the stable range "
                "2g - 2 + n > 0"
            )


def c1_pairing(target: TargetSpec, d: int) -> int:
    """Pairing of c1 of the target with a degree-d curve class."""
    return _check_degree(d) * target.index


def _check_genus(g: int) -> int:
    g = _integer(g, "genus")
    if g < 0:
        raise DomainError(f"genus must be >= 0, got {g}")
    return g


def _check_degree(d: int) -> int:
    d = _integer(d, "curve degree")
    if d < 1:
        raise DomainError(f"curve degree must be >= 1, got {d}")
    return d


def degree_step(target: TargetSpec) -> int:
    """The least degree d >= 1 with an integral marking count.

    n = 1 - g + d*I/r is an integer exactly when r divides d*I, that
    is, at the multiples of r / gcd(I, r), whatever g is; so a caller
    that wants only well-posed cells can skip all other degrees. For
    P^r this is r.
    """
    return target.r // gcd(target.index, target.r)


def make_problem(target: TargetSpec, g: int, d: int) -> TevProblem:
    """The problem of genus g and degree d on `target`, with its forced
    marking count; raises what the `TevProblem` constructor raises."""
    return TevProblem(target, g, d)
