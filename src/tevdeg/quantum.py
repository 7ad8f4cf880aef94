"""Small quantum cohomology of P^r and its genus-g evaluation.

The ring is Z[q][h] / (h^(r+1) - q) with free Z[q]-basis
1, h, ..., h^r. Grading: deg h = 1 and deg q = r + 1; products of
homogeneous elements are homogeneous.

The relation only eliminates q, so q -> h^(r+1) is an isomorphism of
graded rings onto Z[h]: the basis monomial q^s * h^i (0 <= i <= r)
is h^N with N = s*(r+1) + i, its degree. An element is stored under
these keys, as one sparse dict from N to a nonzero integer
coefficient, and multiplication is the plain convolution of those
dicts. Nothing folds: h^(r+1+j) and q * h^j have the same key. So
everything stays exact and sparse, and a homogeneous element has
exactly one key, its degree.

The ring is a Frobenius algebra over Z[q]: the counit reads off the
h^r coefficient, and the handle element

    H = sum_i h^i * h^(r-i) = (r+1) h^r

raises genus in the associated two-dimensional field theory. The
genus-g, degree-d count of maps through n general points is then the
q^d coefficient of the h^r component of (h^r)^n * H^g, the coefficient
of key r + d*(r+1). The normalization of H (a plain sum of
basis-times-dual-basis products, with no extra scaling) is pinned by
the rank-1 checks in the test suite, where the genus-g counts on the
line must come out 2^g.

`handle_element` is deliberately computed with `q_mul` rather than
written down in closed form: this module is the independent
cross-check for the closed-form evaluators, so it performs the ring
arithmetic for real.

`tqft_vtev` reads both powers, (h^r)^n and H^g, off a `PowerTable`,
which memoizes the powers of h^r and of H by square-and-multiply, and
then reads the one h^r, q^d coefficient of their product without
forming the product. A caller that evaluates many cells of one P^r
(as `qh-check` does) builds one table and passes it to each call, so
H and every power are computed once for the whole grid, and a cell
whose powers are in the table takes no product at all. Powers are
shared within one table only: no table outlives its caller, and
nothing is cached across calls at module level.

Validation happens at the public boundary only. `QElement(r, coeffs)`
checks the rank, the slot count, that every q-exponent and coefficient
is an integer and that no q-exponent is negative, and copies every
term; `zero`, `one`, `h_power`, `PowerTable` and `tqft_vtev` check
that their own arguments are integers in range, through
`arith._integer`, the package's one integer check. Ring operations
(`q_mul`, `+`) build terms that are free of zero coefficients by
construction and wrap them unchecked.
"""

from __future__ import annotations

from .arith import _integer
from .errors import DomainError, MismatchedRank
from .targets import ValueObject

__all__ = ["PowerTable", "QElement", "handle_element", "q_mul", "tqft_vtev"]


def _check_rank(r) -> int:
    """The rank `r` as an int, which must be at least 1."""
    r = _integer(r, "rank")
    if r < 1:
        raise DomainError(f"ambient projective space needs r >= 1, got {r}")
    return r


class QElement(ValueObject):
    """Element of Z[q][h]/(h^(r+1) - q).

    `terms` maps the degree N = s*(r+1) + i of each monomial
    q^s * h^i (0 <= i <= r) to its nonzero integer coefficient; it is
    the element's image in Z[h] under q -> h^(r+1). `coeffs` is a
    read-only view of the same element in the Z[q]-basis: a fresh
    tuple of r + 1 dicts, `coeffs[i]` mapping each q-exponent s to the
    coefficient of q^s * h^i. Treated as immutable: all operations
    return fresh elements. A `ValueObject`: equal by `r` and `terms`,
    so unhashable, with its own algebraic repr.
    """

    __slots__ = _fields = ("r", "terms")

    def __init__(self, r: int, coeffs=None):
        r = _check_rank(r)
        terms: dict[int, int] = {}
        if coeffs is not None:
            if len(coeffs) != r + 1:
                raise DomainError(f"expected {r + 1} coefficient slots, got {len(coeffs)}")
            for i, slot in enumerate(coeffs):
                for qe, c in slot.items():
                    qe = _integer(qe, "q-exponent")
                    c = _integer(c, "coefficient")
                    if qe < 0:
                        raise DomainError("negative q-exponents are not allowed")
                    if c:
                        terms[qe * (r + 1) + i] = c
        self.r = r
        self.terms = terms

    @classmethod
    def _trusted(cls, r: int, terms: dict) -> "QElement":
        """Wrap a dict of nonnegative keys and nonzero coefficients
        unchecked."""
        element = object.__new__(cls)
        element.r = r
        element.terms = terms
        return element

    @property
    def coeffs(self) -> tuple:
        """The r + 1 slots of the Z[q]-basis view, built afresh."""
        m = self.r + 1
        slots = [{} for _ in range(m)]
        for key, c in self.terms.items():
            slots[key % m][key // m] = c
        return tuple(slots)

    @classmethod
    def zero(cls, r: int) -> "QElement":
        return cls._trusted(_check_rank(r), {})

    @classmethod
    def one(cls, r: int) -> "QElement":
        return cls.h_power(r, 0)

    @classmethod
    def h_power(cls, r: int, i: int, q_exp: int = 0) -> "QElement":
        """The basis monomial q^q_exp * h^i with 0 <= i <= r."""
        r = _check_rank(r)
        i = _integer(i, "h-power")
        q_exp = _integer(q_exp, "q-exponent")
        if not 0 <= i <= r:
            raise DomainError(f"h-power must satisfy 0 <= i <= r, got {i}")
        if q_exp < 0:
            raise DomainError("negative q-exponents are not allowed")
        return cls._trusted(r, {q_exp * (r + 1) + i: 1})

    def __add__(self, other: "QElement") -> "QElement":
        if not isinstance(other, QElement):
            return NotImplemented
        if self.r != other.r:
            raise MismatchedRank(f"cannot add elements over P^{self.r} and P^{other.r}")
        return _sum_terms(self.r, (self.terms, other.terms))

    def __repr__(self) -> str:
        parts = []
        for i, slot in enumerate(self.coeffs):
            for qe in sorted(slot):
                c = slot[qe]
                factors = []
                if qe:
                    factors.append("q" if qe == 1 else f"q^{qe}")
                if i:
                    factors.append("h" if i == 1 else f"h^{i}")
                if not factors:
                    parts.append(str(c))
                elif c == 1:
                    parts.append("*".join(factors))
                elif c == -1:
                    parts.append("-" + "*".join(factors))
                else:
                    parts.append("*".join([str(c)] + factors))
        return " + ".join(parts) if parts else "0"


def q_mul(a: QElement, b: QElement) -> QElement:
    """Product in Z[q][h]/(h^(r+1) - q).

    The sparse convolution of the two elements' `terms`: the monomials
    of keys na and nb multiply to key na + nb, because the ring is
    Z[h] under q -> h^(r+1). No fold is needed, since h^(r+1+j) and
    q * h^j share a key.

    Zero coefficients are dropped only when some key was hit twice; a
    key hit once holds the product of two nonzero integers, which is
    not zero.

    Both factors are trusted: `QElement(...)` validated them when they
    entered the ring, and the result is wrapped without re-checking.
    """
    if a.r != b.r:
        raise MismatchedRank(f"cannot multiply elements over P^{a.r} and P^{b.r}")
    out: dict[int, int] = {}
    items_b = b.terms.items()
    hit_twice = False
    for na, ca in a.terms.items():
        for nb, cb in items_b:
            key = na + nb
            if key in out:
                out[key] += ca * cb
                hit_twice = True
            else:
                out[key] = ca * cb
    if hit_twice:
        out = {key: c for key, c in out.items() if c}
    return QElement._trusted(a.r, out)


def _counit_coefficient(a: QElement, b: QElement, d: int) -> int:
    """The q^d coefficient of the h^r slot of `q_mul(a, b)`, read
    without forming the product: the coefficient of key
    r + d*(r+1), the sum over a's keys na of a[na] * b[r + d*(r+1) - na].

    This is every pair `q_mul` adds to that key.
    """
    r = a.r
    target = r + d * (r + 1)
    get = b.terms.get
    total = 0
    for na, ca in a.terms.items():
        total += ca * get(target - na, 0)
    return total


def handle_element(r: int) -> QElement:
    """Genus-raising element: sum over i of h^i * h^(r-i).

    Every product is computed through `q_mul`, one per basis pair, from
    r + 1 basis monomials built once; the products are summed into one
    dict and wrapped once. For P^r the result is (r+1) * h^r with no
    quantum correction, because each product has degree exactly r.
    """
    r = _check_rank(r)
    basis = [QElement.h_power(r, i) for i in range(r + 1)]
    return _sum_terms(
        r, [q_mul(basis[i], basis[r - i]).terms for i in range(r + 1)]
    )


def _sum_terms(r: int, term_dicts) -> QElement:
    """The element over P^r whose terms are the sum of `term_dicts`,
    with the zero coefficients dropped, wrapped unchecked."""
    out: dict[int, int] = {}
    for terms in term_dicts:
        for key, c in terms.items():
            out[key] = out.get(key, 0) + c
    return QElement._trusted(r, {key: c for key, c in out.items() if c})


class PowerTable:
    """Powers of the point class h^r and of the handle H over one P^r.

    `point(n)` is (h^r)^n and `handle(g)` is H^g. Every power the table
    computes is kept: power k is power k // 2 squared, times the base
    when k is odd, so a new exponent costs at most two products once
    its half is known, and a first power costs O(log k) products. Each
    base is built on the first call that needs it, H through
    `handle_element`, so a grid with no well-posed cell costs nothing.

    A table lives as long as its caller keeps it; `tqft_vtev` builds a
    fresh one unless it is handed one, and nothing is kept at module
    level.
    """

    __slots__ = ("r", "_point", "_handle")

    def __init__(self, r: int):
        self.r = _check_rank(r)
        self._point: dict[int, QElement] | None = None
        self._handle: dict[int, QElement] | None = None

    def point(self, n: int) -> QElement:
        if self._point is None:
            self._point = {0: QElement.one(self.r), 1: QElement.h_power(self.r, self.r)}
        return _memo_power(self._point, n)

    def handle(self, g: int) -> QElement:
        if self._handle is None:
            self._handle = {0: QElement.one(self.r), 1: handle_element(self.r)}
        return _memo_power(self._handle, g)


def _memo_power(memo: dict[int, QElement], k: int) -> QElement:
    """memo[k] by square-and-multiply, adding each missing exponent on
    the chain k, k // 2, ... to `memo`, which holds 0 and 1."""
    k = _integer(k, "exponent")
    if k < 0:
        raise DomainError(f"exponent must be >= 0, got {k}")
    missing = []
    e = k
    while e not in memo:
        missing.append(e)
        e >>= 1
    for e in reversed(missing):
        half = memo[e >> 1]
        square = q_mul(half, half)
        memo[e] = q_mul(square, memo[1]) if e & 1 else square
    return memo[k]


def tqft_vtev(
    r: int, g: int, d: int, n: int, *, powers: PowerTable | None = None
) -> int:
    """Genus-g, degree-d count of maps to P^r through n general points.

    The q^d coefficient of the h^r component of (h^r)^n * H^g in the
    quantum ring, read off the two powers by `_counit_coefficient`
    without forming their product. The ring grading enforces the
    dimension constraint d*(r+1) = r*(n+g-1): tuples violating it
    return 0, so no well-posedness check is performed here.

    Both powers come from `powers`, a `PowerTable` over the same P^r
    that a caller evaluating many cells passes to every call; without
    one, a fresh table serves this call alone. When both powers are
    already in the table, the call takes no product.
    """
    r = _check_rank(r)
    g = _integer(g, "g")
    d = _integer(d, "d")
    n = _integer(n, "n")
    if g < 0 or d < 0 or n < 0:
        raise DomainError(f"g, d, n must be >= 0, got ({g}, {d}, {n})")
    if powers is None:
        powers = PowerTable(r)
    elif powers.r != r:
        raise MismatchedRank(
            f"power table over P^{powers.r} used for a count on P^{r}"
        )
    return _counit_coefficient(powers.point(n), powers.handle(g), d)
