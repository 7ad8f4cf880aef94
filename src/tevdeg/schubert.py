"""Schubert calculus on Gr(2, m) and geometric degrees of the line.

Schubert classes sigma_(a,b) are indexed by partitions in the
2 x (m-2) box, m-2 >= a >= b >= 0. Multiplication by a special class
sigma_a follows the two-row Pieri rule: sigma_a * sigma_(x,y) is the
sum of sigma_(x',y') over x' + y' = x + y + a with the interlacing
x' >= x >= y' >= y and x' <= m - 2. Integration reads off the
multiplicity of the top class sigma_(m-2,m-2), and Poincare duality
pairs sigma_(x,y) with sigma_(m-2-y, m-2-x) and with no other class of
complementary codimension.

The count of degree-d maps from a general genus-g curve to the line
through the forced number of general points is the P^1 Tevelev degree
of Cela, Pandharipande and Schmitt ("Tevelev degrees and Hurwitz
moduli spaces"). This module evaluates both of their expressions:

    tev_p1_schubert  - the integral over Gr(2, d+1) of sigma_1^g times
                       the sum of sigma_a * sigma_b over all ordered
                       pairs a + b = 2d - 2 - g, evaluated by duality
                       from one Pieri product, whose class sigma_(x,y)
                       lies in exactly x - y + 1 of the pairs' products,
                       and sigma_1^g from g/2 + 1 binomial ratio steps;
    tev_p1_binomial  - the closed form 2^g minus binomial corrections
                       controlled by l = d - g - 1, which vanish
                       exactly when d >= g + 1.

The two routes share no code beyond the domain check (no `arith.binom`
on the Schubert side) and are cross-checked over a grid in the test
suite. Both reject 2d - 2 - g < 0 (DegreeUnderflow): no claim is made
for that range, even though such triples can be well-posed.

`SchubertCombo(m, terms)` and `SchubertCombo.sigma` check every
partition they are given. The classes this module builds itself, the
Pieri products and the Schubert route's basis class, lie in the box
by construction and are wrapped unchecked by `SchubertCombo._trusted`.
"""

from __future__ import annotations

from .arith import _integer, binom
from .errors import (
    DegreeUnderflow,
    DomainError,
    LineDomainError,
    SpecialClassOutOfBox,
)
from .targets import ValueObject

__all__ = [
    "SchubertCombo",
    "integral",
    "pieri_special",
    "tev_p1_binomial",
    "tev_p1_schubert",
]


class SchubertCombo(ValueObject):
    """Integer combination of Schubert classes on Gr(2, m).

    `terms` maps partitions (a, b) to nonzero multiplicities; zero
    multiplicities are never stored, and no argument is truncated to
    an integer. Treated as immutable. A `ValueObject`: equal by `m` and
    `terms`, so unhashable, with its own algebraic repr.
    """

    __slots__ = _fields = ("m", "terms")

    def __init__(self, m: int, terms=None):
        self.m = m = _integer(m, "m")
        if m < 2:
            raise DomainError(f"Gr(2, m) needs m >= 2, got {m}")
        box = m - 2
        clean: dict[tuple[int, int], int] = {}
        for (a, b), mult in (terms or {}).items():
            a, b = _integer(a, "partition entry"), _integer(b, "partition entry")
            if not box >= a >= b >= 0:
                raise DomainError(
                    f"partition ({a}, {b}) outside the 2 x {box} box"
                )
            mult = _integer(mult, "multiplicity")
            if mult:
                clean[(a, b)] = mult
        self.terms = clean

    @classmethod
    def _trusted(cls, m: int, terms: dict) -> "SchubertCombo":
        """Wrap in-box partitions with nonzero multiplicities unchecked."""
        combo = object.__new__(cls)
        combo.m = m
        combo.terms = terms
        return combo

    @classmethod
    def sigma(cls, m: int, a: int, b: int = 0) -> "SchubertCombo":
        """The basis class sigma_(a,b)."""
        return cls(m, {(a, b): 1})

    def __add__(self, other: "SchubertCombo") -> "SchubertCombo":
        if not isinstance(other, SchubertCombo):
            return NotImplemented
        if self.m != other.m:
            raise DomainError(
                f"cannot combine classes on Gr(2, {self.m}) and Gr(2, {other.m})"
            )
        out = dict(self.terms)
        for key, mult in other.terms.items():
            out[key] = out.get(key, 0) + mult
        return SchubertCombo(self.m, out)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (a, b) in sorted(self.terms):
            mult = self.terms[(a, b)]
            body = f"s[{a},{b}]"
            if mult == 1:
                parts.append(body)
            elif mult == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{mult}*{body}")
        return " + ".join(parts)


def pieri_special(c: SchubertCombo, a: int) -> SchubertCombo:
    """Multiply by the special class sigma_a via the two-row Pieri rule.

    Partitions leaving the box are dropped, which is exactly the
    truncation the finite Grassmannian imposes.
    """
    box = c.m - 2
    a = _integer(a, "special class index")
    if a < 0 or a > box:
        raise SpecialClassOutOfBox(
            f"sigma_{a} is not a class on Gr(2, {c.m})"
        )
    out: dict[tuple[int, int], int] = {}
    for (x, y), mult in c.terms.items():
        # interlacing x' >= x >= y' >= y with x' + y' = x + y + a
        lo = max(y, x + y + a - box)
        hi = min(x, y + a)
        for yp in range(lo, hi + 1):
            key = (x + y + a - yp, yp)
            out[key] = out.get(key, 0) + mult
    # interlacing keeps every product inside the box; only zero
    # multiplicities (cancellation) need dropping
    return SchubertCombo._trusted(
        c.m, {key: mult for key, mult in out.items() if mult}
    )


def integral(c: SchubertCombo) -> int:
    """Multiplicity of the top class sigma_(m-2, m-2)."""
    box = c.m - 2
    return c.terms.get((box, box), 0)


def tev_p1_schubert(g: int, d: int) -> int:
    """Degree count for the line as an integral over Gr(2, d+1).

    The integrand is sigma_1^g times S, the sum of sigma_a * sigma_b
    over ordered pairs a + b = w = 2d - 2 - g with both classes in the
    box. By duality the integral of sigma_1^g * sigma_(x,y) is the
    multiplicity of sigma_(box-y, box-x) in sigma_1^g, so the count is
    S's multiplicities weighted by those of sigma_1^g, which
    `_sigma1_power` counts as standard tableaux.

    S needs one Pieri product. The two-row rule puts sigma_(x,y) in
    sigma_a * sigma_b, with multiplicity 1, exactly when y <= a <= x:
    x - y + 1 ordered pairs, each inside the box as a, b <= x. Every
    such class is one of the widest product's, a = w // 2, so S sums
    (x - y + 1) * sigma_(x,y) over that product's terms. A call costs
    g/2 + 1 ratio steps for sigma_1^g plus one pass over the <= d/2 + 1
    terms of one Pieri product, and keeps nothing between calls.
    """
    g, d = _check_line_domain(g, d)
    m = d + 1
    box = m - 2
    power = _sigma1_power(g)
    weight = 2 * d - 2 - g
    half = weight // 2
    # 0 <= w <= 2d - 2 puts sigma_(w // 2) in the box (w // 2 <= d - 1),
    # so it skips the checks of `SchubertCombo.sigma`
    start = SchubertCombo._trusted(m, {(half, 0): 1})
    terms = pieri_special(start, weight - half).terms
    total = 0
    for (x, y), mult in terms.items():
        # power[box - x] is the multiplicity of sigma_(box-y, box-x)
        total += mult * (x - y + 1) * power[box - x]
    return total


def _sigma1_power(g: int) -> list:
    """sigma_1^g as a list: entry y is the multiplicity of
    sigma_(g-y, y).

    Each sigma_1 step adds one box to a two-row diagram, so that
    multiplicity counts the saturated chains from the empty partition
    to (g-y, y) in Young's lattice: the standard tableaux of that
    shape, C(g, y) - C(g, y-1) by the hook length formula. The binomial
    steps by the exact ratio C(g, y+1) = C(g, y) * (g-y) / (y+1). The
    box is not imposed: sigma_1 never shortens the first row, so a
    chain that leaves the box never re-enters it, and the duality
    pairing reads only classes inside it.
    """
    power = []
    below, c = 0, 1  # C(g, y-1) and C(g, y)
    for y in range(g // 2 + 1):
        power.append(c - below)
        below, c = c, c * (g - y) // (y + 1)
    return power


def tev_p1_binomial(g: int, d: int) -> int:
    """Closed form for the degree count of the line.

    With l = d - g - 1:

        2^g - 2 * sum_{i=0}^{-l-2} binom(g, i)
            + (-l - 2) * binom(g, -l - 1) + l * binom(g, -l)

    where out-of-range binomials vanish. Equals 2^g iff d >= g + 1.
    """
    g, d = _check_line_domain(g, d)
    l = d - g - 1
    correction = -2 * sum(binom(g, i) for i in range(0, -l - 1))
    correction += (-l - 2) * binom(g, -l - 1)
    correction += l * binom(g, -l)
    return 2 ** g + correction


def _check_line_domain(g: int, d: int) -> tuple[int, int]:
    """(g, d) as ints, once both lie in the line routes' domain."""
    g = _integer(g, "genus", LineDomainError)
    if g < 0:
        raise LineDomainError(f"genus must be >= 0, got {g}")
    d = _integer(d, "degree", LineDomainError)
    if d < 1:
        raise LineDomainError(f"degree must be >= 1, got {d}")
    if 2 * d - 2 - g < 0:
        raise DegreeUnderflow(
            f"2d - 2 - g = {2 * d - 2 - g} is negative for (g, d) = ({g}, {d})"
        )
    return g, d
