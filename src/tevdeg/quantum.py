"""Small quantum cohomology of P^r and its genus-g evaluation.

The ring is Z[q][h] / (h^(r+1) - q) with free Z[q]-basis
1, h, ..., h^r. Multiplication is ordinary polynomial multiplication
followed by the reduction h^(r+1+j) -> q * h^j, so everything stays
exact and sparse. Grading: deg h = 1 and deg q = r + 1; products of
homogeneous elements are homogeneous.

The ring is a Frobenius algebra over Z[q]: the counit reads off the
h^r coefficient, and the handle element

    H = sum_i h^i * h^(r-i) = (r+1) h^r

raises genus in the associated two-dimensional field theory. The
genus-g, degree-d count of maps through n general points is then the
q^d coefficient of the h^r component of (h^r)^n * H^g. The
normalization of H (a plain sum of basis-times-dual-basis products,
with no extra scaling) is pinned by the rank-1 checks in the test
suite, where the genus-g counts on the line must come out 2^g.

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
slot; `zero`, `one` and `h_power` check their own arguments. Ring
operations (`q_mul`, `+`) build slots that are reduced and free
of zero coefficients by construction and wrap them unchecked.
"""

from __future__ import annotations

import operator

from .errors import DomainError, MismatchedRank

__all__ = ["PowerTable", "QElement", "handle_element", "q_mul", "tqft_vtev"]


def _check_rank(r: int) -> None:
    if r < 1:
        raise DomainError(f"ambient projective space needs r >= 1, got {r}")


def _integer(value, what: str) -> int:
    """`value` as an int through `__index__`, so that a float or a
    string raises instead of being truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None


def _add_into(out: list, coeffs) -> None:
    """Add the slots `coeffs` into the slot dicts `out`, in place."""
    for bucket, slot in zip(out, coeffs):
        for qe, c in slot.items():
            bucket[qe] = bucket.get(qe, 0) + c


def _nonzero(slots) -> tuple:
    """Slots with zero coefficients dropped, as an element's `coeffs`."""
    return tuple([
        {qe: c for qe, c in slot.items() if c} if 0 in slot.values() else slot
        for slot in slots
    ])


class QElement:
    """Element of Z[q][h]/(h^(r+1) - q).

    `coeffs[i]` is the sparse q-polynomial multiplying h^i, stored as
    a dict mapping q-exponent to nonzero integer coefficient. Treated
    as immutable: all operations return fresh elements.
    """

    __slots__ = ("r", "coeffs")

    def __init__(self, r: int, coeffs=None):
        _check_rank(r)
        if coeffs is None:
            coeffs = [{} for _ in range(r + 1)]
        if len(coeffs) != r + 1:
            raise DomainError(f"expected {r + 1} coefficient slots, got {len(coeffs)}")
        self.r = r
        self.coeffs = _nonzero([
            {
                _integer(qe, "q-exponent"): _integer(c, "coefficient")
                for qe, c in slot.items()
            }
            for slot in coeffs
        ])
        for slot in self.coeffs:
            if any(qe < 0 for qe in slot):
                raise DomainError("negative q-exponents are not allowed")

    @classmethod
    def _trusted(cls, r: int, coeffs: tuple) -> "QElement":
        """Wrap a tuple of r + 1 slots with nonnegative q-exponents and
        nonzero coefficients unchecked."""
        element = object.__new__(cls)
        element.r = r
        element.coeffs = coeffs
        return element

    @classmethod
    def zero(cls, r: int) -> "QElement":
        _check_rank(r)
        return cls._trusted(r, tuple({} for _ in range(r + 1)))

    @classmethod
    def one(cls, r: int) -> "QElement":
        return cls.h_power(r, 0)

    @classmethod
    def h_power(cls, r: int, i: int, q_exp: int = 0) -> "QElement":
        """The basis monomial q^q_exp * h^i with 0 <= i <= r."""
        _check_rank(r)
        if not 0 <= i <= r:
            raise DomainError(f"h-power must satisfy 0 <= i <= r, got {i}")
        if q_exp < 0:
            raise DomainError("negative q-exponents are not allowed")
        coeffs = [{} for _ in range(r + 1)]
        coeffs[i] = {q_exp: 1}
        return cls._trusted(r, tuple(coeffs))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QElement)
            and self.r == other.r
            and self.coeffs == other.coeffs
        )

    def __add__(self, other: "QElement") -> "QElement":
        if not isinstance(other, QElement):
            return NotImplemented
        if self.r != other.r:
            raise MismatchedRank(f"cannot add elements over P^{self.r} and P^{other.r}")
        out = [dict(slot) for slot in self.coeffs]
        _add_into(out, other.coeffs)
        return QElement._trusted(self.r, _nonzero(out))

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

    Convolves the sparse coefficients and folds in the same pass: the
    product of slots i and j lands in slot k = i + j, or, when k > r,
    in slot k - r - 1 one power of q higher (h^(r+1+j) = q * h^j).
    Inputs have h-degree <= r, so k <= 2r and one fold suffices. A
    monic relation h^(r+1) = c * q * h^b with b > 0 would need the fold
    to repeat until the h-degree is at most r.

    Only nonzero slots are paired: b's are listed once, so the inner
    loop never walks an empty slot. Zero coefficients are dropped only
    when some bucket key was hit twice; a key hit once holds the
    product of two nonzero integers, which is not zero.

    Both factors are trusted: `QElement(...)` validated them when they
    entered the ring, and the result is wrapped without re-checking.
    """
    if a.r != b.r:
        raise MismatchedRank(f"cannot multiply elements over P^{a.r} and P^{b.r}")
    r = a.r
    out: list[dict[int, int]] = [{} for _ in range(r + 1)]
    slots_b = [(j, slot.items()) for j, slot in enumerate(b.coeffs) if slot]
    hit_twice = False
    for i, slot_a in enumerate(a.coeffs):
        if not slot_a:
            continue
        items_a = slot_a.items()
        for j, items_b in slots_b:
            k = i + j
            if k > r:
                bucket, shift = out[k - r - 1], 1
            else:
                bucket, shift = out[k], 0
            for qa, ca in items_a:
                for qb, cb in items_b:
                    key = qa + qb + shift
                    if key in bucket:
                        bucket[key] += ca * cb
                        hit_twice = True
                    else:
                        bucket[key] = ca * cb
    return QElement._trusted(r, _nonzero(out) if hit_twice else tuple(out))


def _counit_coefficient(a: QElement, b: QElement, d: int) -> int:
    """The q^d coefficient of the h^r slot of `q_mul(a, b)`, read
    without forming the product: sum over i and qa of
    a_i[qa] * b_(r-i)[d - qa].

    This is exactly what `q_mul` puts in slot r. Slots i and j land
    there unfolded when i + j = r; a fold lands in slot i + j - r - 1,
    which is r only when i + j = 2r + 1, and inputs have i + j <= 2r.
    Beauville's relation h^(r+1) = e^e * q * h^(e-1) for a degree-e
    hypersurface (ROADMAP item 2) folds h^(r+1+j) into h^(e-1+j),
    which does reach slot r, so that ring must add those terms here.
    """
    total = 0
    for slot_a, slot_b in zip(a.coeffs, reversed(b.coeffs)):
        if slot_a and slot_b:
            for qa, ca in slot_a.items():
                total += ca * slot_b.get(d - qa, 0)
    return total


def handle_element(r: int) -> QElement:
    """Genus-raising element: sum over i of h^i * h^(r-i).

    Every product is computed through `q_mul`, one per basis pair, from
    r + 1 basis monomials built once; the products are summed into one
    set of slots and wrapped once. For P^r the result is (r+1) * h^r
    with no quantum correction, because each product has h-degree
    exactly r.
    """
    basis = [QElement.h_power(r, i) for i in range(r + 1)]
    out: list[dict[int, int]] = [{} for _ in range(r + 1)]
    for i in range(r + 1):
        _add_into(out, q_mul(basis[i], basis[r - i]).coeffs)
    return QElement._trusted(r, _nonzero(out))


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
        _check_rank(r)
        self.r = r
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
    if r < 1:
        raise DomainError(f"need r >= 1, got {r}")
    if g < 0 or d < 0 or n < 0:
        raise DomainError(f"g, d, n must be >= 0, got ({g}, {d}, {n})")
    if powers is None:
        powers = PowerTable(r)
    elif powers.r != r:
        raise MismatchedRank(
            f"power table over P^{powers.r} used for a count on P^{r}"
        )
    return _counit_coefficient(powers.point(n), powers.handle(g), d)
