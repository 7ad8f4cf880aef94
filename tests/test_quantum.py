"""Quantum ring arithmetic and its genus-g point-count evaluation.

The expected values for single products are written out from the
defining relation h^(r+1) = q by hand, so they do not depend on the
multiplication routine under test.
"""

from __future__ import annotations

import math
import random

import pytest

from tevdeg import (
    DomainError,
    MismatchedRank,
    PowerTable,
    QElement,
    WellPosednessError,
    TargetSpec,
    handle_element,
    make_problem,
    q_mul,
    quantum,
    tqft_vtev,
)
from tevdeg.cli import run_qh_check


def _random_element(rng, r, q_max=3, coeff_max=5):
    coeffs = []
    for _ in range(r + 1):
        slot = {}
        for qe in range(q_max + 1):
            if rng.random() < 0.4:
                slot[qe] = rng.randint(-coeff_max, coeff_max)
        coeffs.append(slot)
    return QElement(r, coeffs)


def _two_pass_q_mul(a, b):
    """The former product: convolve into 2r + 1 raw slots, then fold
    h^(r+1+j) into q * h^j. Kept as a reference for `q_mul`."""
    r = a.r
    raw = [{} for _ in range(2 * r + 1)]
    for i, slot_a in enumerate(a.coeffs):
        for j, slot_b in enumerate(b.coeffs):
            bucket = raw[i + j]
            for qa, ca in slot_a.items():
                for qb, cb in slot_b.items():
                    bucket[qa + qb] = bucket.get(qa + qb, 0) + ca * cb
    out = [{} for _ in range(r + 1)]
    for k, bucket in enumerate(raw):
        target, shift = (k, 0) if k <= r else (k - (r + 1), 1)
        for qe, c in bucket.items():
            out[target][qe + shift] = out[target].get(qe + shift, 0) + c
    return QElement(r, out)


def _assert_canonical(element):
    # what the validating constructor would have stored
    assert isinstance(element.coeffs, tuple)
    assert len(element.coeffs) == element.r + 1
    assert all(c for slot in element.coeffs for c in slot.values())
    assert all(qe >= 0 for slot in element.coeffs for qe in slot)
    assert QElement(element.r, element.coeffs) == element


def test_q_mul_matches_two_pass_reference():
    rng = random.Random(4242)
    cancelled = 0
    for r in range(1, 9):
        for _ in range(50):
            a = _random_element(rng, r, coeff_max=3)
            b = _random_element(rng, r, coeff_max=3)
            product = q_mul(a, b)
            assert product == _two_pass_q_mul(a, b)
            _assert_canonical(product)
            total = a + b
            _assert_canonical(total)
            cancelled += sum(
                1
                for i in range(r + 1)
                for qe in set(a.coeffs[i]) & set(b.coeffs[i])
                if a.coeffs[i][qe] + b.coeffs[i][qe] == 0
            )
    # negative coefficients must have made some slots cancel
    assert cancelled > 0


def test_q_mul_drops_cancelled_slots():
    # (1 + h) * (1 - h) = 1 - h^2 = 1 - q on the line: the h slot cancels
    one_plus_h = QElement(1, [{0: 1}, {0: 1}])
    one_minus_h = QElement(1, [{0: 1}, {0: -1}])
    product = q_mul(one_plus_h, one_minus_h)
    assert product.coeffs == ({0: 1, 1: -1}, {})
    # h + (-h) is the zero element, not a slot holding a zero
    minus_h = QElement(1, [{}, {0: -1}])
    assert (QElement.h_power(1, 1) + minus_h).coeffs == ({}, {})
    assert QElement.h_power(1, 1) + minus_h == QElement.zero(1)
    # (1 + h)(1 - h + h^2 - q) = 1 - q + h^3 - q*h = 1 - q*h on the plane:
    # slot 0 loses its q term (q from 1 * (-q), h * h^2 = q) and keeps 1,
    # and slot 2 (h^2 from 1 * h^2 and h * (-h)) cancels entirely
    a = QElement(2, [{0: 1}, {0: 1}, {}])
    b = QElement(2, [{0: 1, 1: -1}, {0: -1}, {0: 1}])
    product = q_mul(a, b)
    assert product.coeffs == ({0: 1}, {1: -1}, {})
    _assert_canonical(product)


def test_public_constructor_still_validates():
    with pytest.raises(ValueError):
        QElement(2, [{}, {}])
    with pytest.raises(ValueError):
        QElement(2, [{}, {-1: 1}, {}])
    for r in (0, -1):
        with pytest.raises(ValueError):
            QElement(r)
        with pytest.raises(ValueError):
            QElement.zero(r)
        with pytest.raises(ValueError):
            QElement.one(r)
    # zero coefficients are dropped on the way in
    assert QElement(1, [{0: 0}, {2: 0}]) == QElement.zero(1)
    # exponents and coefficients must be integers: nothing is truncated,
    # so 0.4 cannot become a stored zero nor 2.5 a 2
    for coeffs in ([{0: 0.4}, {}], [{0: 2.5}, {}], [{1.7: 1}, {}], [{0: "3"}, {}]):
        with pytest.raises(DomainError):
            QElement(1, coeffs)
    # a negative exponent is refused even when its coefficient is zero
    with pytest.raises(DomainError, match="negative q-exponents"):
        QElement(1, [{-1: 0}, {}])
    # the rank must be an integer too; a bool is an int
    for r in (1.5, 2.0, "2"):
        with pytest.raises(DomainError, match=f"rank must be an integer, got {r!r}"):
            QElement(r)
        with pytest.raises(DomainError):
            QElement.zero(r)
    assert QElement(True, [{0: 1}, {}]) == QElement.one(1)


def test_h_power_checks_its_arguments():
    with pytest.raises(ValueError):
        QElement.h_power(2, 1, q_exp=-1)
    with pytest.raises(ValueError):
        QElement.h_power(2, 3)
    with pytest.raises(ValueError):
        QElement.h_power(2, -1)
    # nothing is truncated: q^0.5*h is not an element
    for args in ((2, 1.0), (2, 1, 0.5), (2.0, 1), (2, "1")):
        with pytest.raises(DomainError):
            QElement.h_power(*args)
    assert QElement.h_power(2, True, q_exp=True) == QElement(2, [{}, {1: 1}, {}])
    assert QElement.h_power(2, 1, q_exp=3) == QElement(2, [{}, {3: 1}, {}])


def test_defining_relation_on_the_line():
    h = QElement.h_power(1, 1)
    assert q_mul(h, h) == QElement.h_power(1, 0, q_exp=1)


def test_reduction_on_the_plane():
    h2 = QElement.h_power(2, 2)
    # h^2 * h^2 = h^4 = q * h
    assert q_mul(h2, h2) == QElement.h_power(2, 1, q_exp=1)


def test_one_is_neutral():
    rng = random.Random(11)
    for r in (1, 2, 4):
        a = _random_element(rng, r)
        assert q_mul(QElement.one(r), a) == a
        assert q_mul(a, QElement.one(r)) == a


def test_zero_annihilates():
    rng = random.Random(12)
    a = _random_element(rng, 3)
    assert q_mul(QElement.zero(3), a) == QElement.zero(3)


def test_mismatched_rank_rejected():
    with pytest.raises(MismatchedRank):
        q_mul(QElement.one(1), QElement.one(2))
    with pytest.raises(MismatchedRank):
        QElement.one(1) + QElement.one(3)


def test_commutativity_and_associativity():
    rng = random.Random(5150)
    for _ in range(60):
        r = rng.choice((1, 2, 3))
        a = _random_element(rng, r)
        b = _random_element(rng, r)
        c = _random_element(rng, r)
        assert q_mul(a, b) == q_mul(b, a)
        assert q_mul(q_mul(a, b), c) == q_mul(a, q_mul(b, c))


def test_distributivity():
    rng = random.Random(5151)
    for _ in range(40):
        r = rng.choice((1, 2, 3))
        a = _random_element(rng, r)
        b = _random_element(rng, r)
        c = _random_element(rng, r)
        assert q_mul(a, b + c) == q_mul(a, b) + q_mul(a, c)


def test_coeffs_view_round_trips():
    # `coeffs` is rebuilt from the stored terms: it must read what the
    # constructor was given, less zeros, and rebuild the same element
    rng = random.Random(1618)
    for r in range(1, 9):
        for _ in range(20):
            slots = [
                {qe: rng.randint(-5, 5) for qe in range(4) if rng.random() < 0.4}
                for _ in range(r + 1)
            ]
            x = QElement(r, slots)
            assert x.coeffs == tuple(
                {qe: c for qe, c in slot.items() if c} for slot in slots
            )
            again = QElement(x.r, x.coeffs)
            assert again == x
            assert repr(again) == repr(x)
    # signed terms print slot by slot, q-exponents ascending
    x = QElement(2, [{2: 3, 0: -1}, {1: 1}, {1: -1, 0: -2}])
    assert repr(x) == "-1 + 3*q^2 + q*h + -2*h^2 + -q*h^2"


def _random_homogeneous(rng, r, degree):
    coeffs = [{} for _ in range(r + 1)]
    hit = False
    for i in range(r + 1):
        qe, rem = divmod(degree - i, r + 1)
        if rem == 0 and qe >= 0 and rng.random() < 0.7:
            coeffs[i] = {qe: rng.randint(1, 5)}
            hit = True
    if not hit:
        i = degree % (r + 1)
        coeffs[i] = {(degree - i) // (r + 1): 1}
    return QElement(r, coeffs)


def _degrees(element):
    """The set of degrees of the element's monomials (deg h = 1,
    deg q = r + 1)."""
    return {
        i + qe * (element.r + 1)
        for i, slot in enumerate(element.coeffs)
        for qe in slot
    }


def test_products_of_homogeneous_elements_are_homogeneous():
    # deg h = 1 and deg q = r + 1
    rng = random.Random(77)
    for _ in range(60):
        r = rng.choice((1, 2, 3, 4))
        da = rng.randrange(0, 3 * (r + 1))
        db = rng.randrange(0, 3 * (r + 1))
        a = _random_homogeneous(rng, r, da)
        b = _random_homogeneous(rng, r, db)
        assert _degrees(a) == {da}
        product = q_mul(a, b)
        assert product != QElement.zero(r)
        assert _degrees(product) == {da + db}


def test_keys_of_homogeneous_elements_are_their_degrees():
    # under q -> h^(r+1) a homogeneous element is one power of h
    rng = random.Random(78)
    for _ in range(60):
        r = rng.randint(1, 8)
        da = rng.randrange(0, 3 * (r + 1))
        db = rng.randrange(0, 3 * (r + 1))
        a = _random_homogeneous(rng, r, da)
        b = _random_homogeneous(rng, r, db)
        assert set(a.terms) == {da}
        assert set(q_mul(a, b).terms) == {da + db}
    for r in (1, 2, 5, 8):
        powers = PowerTable(r)
        for k in (0, 1, 2, 7, 12):
            assert set(powers.point(k).terms) == {r * k}
            assert set(powers.handle(k).terms) == {r * k}


def _handle_by_additions(r):
    """The handle as a chain of `+` over fresh monomials."""
    handle = QElement.zero(r)
    for i in range(r + 1):
        handle = handle + q_mul(QElement.h_power(r, i), QElement.h_power(r, r - i))
    return handle


def test_handle_element_shape():
    # each h^i * h^(r-i) lands on h^r with no quantum correction
    for r in range(1, 9):
        expected = QElement(r, [{} if i < r else {0: r + 1} for i in range(r + 1)])
        assert handle_element(r) == expected == _handle_by_additions(r)
        _assert_canonical(handle_element(r))


def test_counit_coefficient_is_slot_r_of_the_product():
    rng = random.Random(2718)
    for r in range(1, 9):
        for _ in range(30):
            a = _random_element(rng, r)
            b = _random_element(rng, r)
            product = q_mul(a, b)
            # q-exponents of a and b are at most 3, one fold adds 1
            for d in range(9):
                assert quantum._counit_coefficient(a, b, d) == product.coeffs[r].get(d, 0)


def test_tqft_spot_values_on_the_line():
    # h^3 = q*h, so one map of degree 1 through 3 points
    assert tqft_vtev(1, 0, 1, 3) == 1
    # h^4 * (2h) = 2*q^2*h: genus 1, degree 2, 4 points
    assert tqft_vtev(1, 1, 2, 4) == 2
    # h^4 = q^2 has no h-component
    assert tqft_vtev(1, 0, 1, 4) == 0


def test_tqft_agrees_with_closed_form_on_small_grid():
    for r in (1, 2, 3):
        target = TargetSpec.projective_space(r)
        for g in range(0, 5):
            for d in range(1, 13):
                try:
                    problem = make_problem(target, g, d)
                except WellPosednessError:
                    continue
                assert tqft_vtev(r, g, d, problem.n) == (r + 1) ** g, (r, g, d)


def test_tqft_vanishes_off_the_dimension_constraint():
    rng = random.Random(31337)
    found = 0
    while found < 30:
        r = rng.randint(1, 4)
        g = rng.randint(0, 5)
        d = rng.randint(0, 12)
        n = rng.randint(0, 12)
        if d * (r + 1) == r * (n + g - 1):
            continue
        assert tqft_vtev(r, g, d, n) == 0, (r, g, d, n)
        found += 1


def test_tqft_input_validation():
    with pytest.raises(ValueError):
        tqft_vtev(0, 0, 1, 3)
    with pytest.raises(ValueError):
        tqft_vtev(1, -1, 1, 3)
    for args in ((0, 0, 1, 3), (1, -1, 1, 3), (1, 0, -1, 3), (1, 0, 1, -1)):
        with pytest.raises(DomainError):
            tqft_vtev(*args)


def test_repr_is_readable():
    assert repr(QElement.zero(2)) == "0"
    assert repr(QElement.h_power(1, 1, q_exp=2)) == "q^2*h"
    assert repr(handle_element(2)) == "3*h^2"


def _binary_power(x, k):
    result = QElement.one(x.r)
    while k:
        if k & 1:
            result = q_mul(result, x)
        k >>= 1
        if k:
            x = q_mul(x, x)
    return result


def _per_cell_reference(r, g, d, n):
    """The former evaluation: a fresh handle and fresh binary powers
    over `q_mul` for every cell. Kept as a reference for `PowerTable`."""
    handle = _handle_by_additions(r)
    point = QElement.h_power(r, r)
    element = q_mul(_binary_power(point, n), _binary_power(handle, g))
    return element.coeffs[r].get(d, 0)


# the ring-oracle benchmark's sweeps: rank -> (g_max, d_max)
_BENCH_WINDOWS = {1: (19, 60), 2: (23, 50), 3: (24, 48), 5: (29, 40), 8: (19, 60)}


@pytest.mark.parametrize("r", sorted(_BENCH_WINDOWS))
def test_qh_check_matches_per_cell_reference(r):
    g_max, d_max = _BENCH_WINDOWS[r]
    *cells, summary = run_qh_check(r, g_max, d_max, per_case=True)
    target = TargetSpec.projective_space(r)
    expected = []
    for g in range(g_max + 1):
        for d in range(1, d_max + 1):
            try:
                n = make_problem(target, g, d).n
            except WellPosednessError:
                continue
            expected.append((g, d, _per_cell_reference(r, g, d, n)))
    got = [
        (int(c.inputs["g"]), int(c.inputs["d"]), int(c.outputs["ring"]))
        for c in cells
    ]
    assert got == expected
    assert summary.outputs == {"cases": str(len(expected)), "mismatches": "0"}


def _count_calls(monkeypatch, name):
    calls = [0]
    original = getattr(quantum, name)

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(quantum, name, counted)
    return calls


def test_lone_evaluation_takes_logarithmically_many_products(monkeypatch):
    products = _count_calls(monkeypatch, "q_mul")
    r, g, d, n = 1, 2000, 3000, 4001
    assert tqft_vtev(r, g, d, n) == 2 ** g
    # squarings and multiplications for both powers and the r + 1
    # products of the handle; the count is read without a final product
    bound = 2 * (math.log2(n) + math.log2(g)) + r + 1
    assert products[0] <= bound, (products[0], bound)


def test_evaluation_from_built_powers_takes_no_product(monkeypatch):
    powers = PowerTable(3)
    powers.point(13)
    powers.handle(4)
    products = _count_calls(monkeypatch, "q_mul")
    assert tqft_vtev(3, 4, 12, 13, powers=powers) == 4 ** 4
    assert products[0] == 0


def test_qh_check_builds_the_handle_once_per_call(monkeypatch):
    handles = _count_calls(monkeypatch, "handle_element")
    for r, (g_max, d_max) in _BENCH_WINDOWS.items():
        before = handles[0]
        run_qh_check(r, g_max, d_max)
        assert handles[0] - before == 1, r


def test_nothing_is_cached_across_calls(monkeypatch):
    products = _count_calls(monkeypatch, "q_mul")

    def cost(call):
        start = products[0]
        call()
        return products[0] - start

    def sweep():
        run_qh_check(3, 24, 48, per_case=True)

    assert cost(sweep) == cost(sweep) > 0
    # a lone call costs what a call on a fresh table costs, every time,
    # however often other calls have asked for the same powers
    fresh = cost(lambda: tqft_vtev(2, 3, 6, 7, powers=PowerTable(2)))
    assert fresh > 1
    lone = [cost(lambda: tqft_vtev(2, 3, 6, 7)) for _ in range(2)]
    assert lone == [fresh, fresh]


def test_power_table_powers():
    for r in (1, 2, 5):
        powers = PowerTable(r)
        handle = handle_element(r)
        for k in (0, 1, 2, 7, 12, 31, 6, 3):
            # (h^r)^k = q^(rk // (r+1)) * h^(rk mod (r+1))
            q_exp, h_exp = divmod(r * k, r + 1)
            assert powers.point(k) == QElement.h_power(r, h_exp, q_exp=q_exp)
            assert powers.handle(k) == _binary_power(handle, k)


def test_power_table_rejects_bad_input():
    with pytest.raises(ValueError):
        PowerTable(0)
    with pytest.raises(DomainError):
        PowerTable(2).point(-1)
    with pytest.raises(DomainError):
        PowerTable(2).handle(-3)
    with pytest.raises(MismatchedRank):
        tqft_vtev(2, 3, 6, 7, powers=PowerTable(3))
    assert tqft_vtev(2, 3, 6, 7, powers=PowerTable(2)) == 27
    # ranks and exponents must be integers, not values that compare or
    # hash like one
    with pytest.raises(DomainError):
        PowerTable(2.0)
    with pytest.raises(DomainError):
        handle_element(1.5)
    for k in (2.5, 2.0):
        with pytest.raises(DomainError):
            PowerTable(2).point(k)
    with pytest.raises(DomainError):
        PowerTable(2).handle(1.0)
    for args in ((2, 3.0, 6, 7), (2.0, 3, 6, 7), (2, 3, 6.0, 7), (2, 3, 6, "7")):
        with pytest.raises(DomainError):
            tqft_vtev(*args)
        with pytest.raises(DomainError):
            tqft_vtev(*args, powers=PowerTable(2))
    assert tqft_vtev(True, 0, True, 3) == 1
