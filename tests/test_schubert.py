"""Pieri products on Gr(2, m) and the two line-count routes.

Hand-expanded products (straight from the interlacing conditions) pin
the Pieri rule; Poincare duality and the binomial/Schubert agreement
grid then exercise it structurally. The expansion of a general class
sigma_(a,b) used for duality goes through the classical two-row
determinant sigma_(a,b) = sigma_a*sigma_b - sigma_(a+1)*sigma_(b-1),
so general products are iterated special-class products.
"""

from __future__ import annotations

import pytest

from tevdeg import (
    DegreeUnderflow,
    SchubertCombo,
    SpecialClassOutOfBox,
    integral,
    pieri_special,
    tev_p1_binomial,
    tev_p1_schubert,
)
from tevdeg.schubert import _check_line_domain, _sigma1_power


def _mult_partition(combo, a, b):
    """Multiply by sigma_(a,b) via the two-row determinant."""
    box = combo.m - 2
    if b == 0:
        return pieri_special(combo, a)
    out = pieri_special(pieri_special(combo, a), b)
    if a + 1 <= box:
        terms = dict(out.terms)
        correction = pieri_special(pieri_special(combo, a + 1), b - 1)
        for key, mult in correction.terms.items():
            terms[key] = terms.get(key, 0) - mult
        out = SchubertCombo(combo.m, terms)
    return out


def _degrees(combo):
    """The set of codimensions a + b of the combo's terms."""
    return {a + b for (a, b) in combo.terms}


def test_pieri_hand_expansions():
    # Gr(2,4): sigma_1 * sigma_1 = sigma_2 + sigma_(1,1)
    got = pieri_special(SchubertCombo.sigma(4, 1), 1)
    assert got == SchubertCombo(4, {(2, 0): 1, (1, 1): 1})
    # Gr(2,5): sigma_1 * sigma_(1,1) = sigma_(2,1)
    got = pieri_special(SchubertCombo.sigma(5, 1, 1), 1)
    assert got == SchubertCombo(5, {(2, 1): 1})
    # Gr(2,5): sigma_2 * sigma_1 = sigma_3 + sigma_(2,1)
    got = pieri_special(SchubertCombo.sigma(5, 1), 2)
    assert got == SchubertCombo(5, {(3, 0): 1, (2, 1): 1})
    # box truncation, Gr(2,4): sigma_2 * sigma_1 = sigma_(2,1) only
    got = pieri_special(SchubertCombo.sigma(4, 1), 2)
    assert got == SchubertCombo(4, {(2, 1): 1})


def test_sigma_zero_is_neutral():
    combo = SchubertCombo(6, {(3, 1): 4, (2, 2): -1})
    assert pieri_special(combo, 0) == combo


def test_pieri_rejects_class_outside_box():
    with pytest.raises(SpecialClassOutOfBox):
        pieri_special(SchubertCombo.sigma(4, 1), 3)
    with pytest.raises(SpecialClassOutOfBox):
        pieri_special(SchubertCombo.sigma(4, 1), -1)


def test_combo_rejects_bad_partition():
    with pytest.raises(ValueError):
        SchubertCombo(4, {(3, 0): 1})
    with pytest.raises(ValueError):
        SchubertCombo(4, {(1, 2): 1})


def test_integral_reads_top_class():
    assert integral(SchubertCombo.sigma(5, 3, 3)) == 1
    assert integral(SchubertCombo.sigma(5, 3, 2)) == 0
    assert integral(SchubertCombo(4, {(2, 2): 7, (1, 0): 3})) == 7


def test_degree_additivity_of_pieri():
    combo = SchubertCombo(7, {(2, 1): 2, (3, 0): 1})
    assert _degrees(combo) == {3}
    for a in range(0, 4):
        out = pieri_special(combo, a)
        assert _degrees(out) == {3 + a}


def test_poincare_duality_up_to_m_8():
    for m in range(3, 9):
        box = m - 2
        classes = [
            (a, b) for a in range(box + 1) for b in range(a + 1)
        ]
        for (a, b) in classes:
            for (c, dd) in classes:
                if a + b + c + dd != 2 * box:
                    continue
                value = integral(
                    _mult_partition(SchubertCombo.sigma(m, a, b), c, dd)
                )
                dual = (c, dd) == (box - b, box - a)
                assert value == (1 if dual else 0), (m, (a, b), (c, dd))


def test_tev_p1_schubert_worked_example():
    # g = 3, d = 4 on Gr(2,5): sum over a+b = 3 is 4*sigma_3 + 2*sigma_(2,1);
    # three sigma_1 multiplications leave 8 * sigma_(3,3)
    assert tev_p1_schubert(3, 4) == 8


def test_tev_p1_schubert_spot_values():
    assert tev_p1_schubert(2, 2) == 1
    assert tev_p1_schubert(0, 1) == 1
    assert tev_p1_schubert(3, 3) == 4


def test_tev_p1_binomial_spot_values():
    assert tev_p1_binomial(3, 4) == 8
    assert tev_p1_binomial(2, 2) == 1
    assert tev_p1_binomial(3, 3) == 4
    assert tev_p1_binomial(0, 1) == 1


def _schubert_by_pieri(g, d):
    """The line integral by Pieri products alone, without duality."""
    m = d + 1
    box = m - 2
    weight = 2 * d - 2 - g
    total = SchubertCombo(m)
    for a in range(max(0, weight - box), min(weight, box) + 1):
        total = total + pieri_special(SchubertCombo.sigma(m, a), weight - a)
    for _ in range(g):
        total = pieri_special(total, 1)
    return integral(total)


def _sigma1_power_by_entry(g):
    """sigma_1^g by a per-term sigma_1 loop: entry y is the multiplicity
    of sigma_(g-y, y), and sigma_(x, y) steps to (x + 1, y) and, while
    y < x, to (x, y + 1)."""
    power = [1]
    for k in range(g):
        step = [0] * ((k + 1) // 2 + 1)
        for y, mult in enumerate(power):
            step[y] += mult
            if y < k - y:
                step[y + 1] += mult
        power = step
    return power


def _schubert_per_pair(g, d):
    """The duality route with one Pieri product per unordered pair and
    a per-term sigma_1 loop: a reference for tev_p1_schubert, which
    reads every pair's product as a prefix of the widest one."""
    _check_line_domain(g, d)
    m = d + 1
    box = m - 2
    power = _sigma1_power_by_entry(g)
    weight = 2 * d - 2 - g
    total = 0
    for a in range(max(0, weight - box), weight // 2 + 1):
        b = weight - a
        product = pieri_special(SchubertCombo.sigma(m, a), b)
        paired = sum(
            mult * power[box - x] for (x, _), mult in product.terms.items()
        )
        total += paired if a == b else 2 * paired
    return total


def _value_or_error_kind(route, g, d):
    try:
        return route(g, d)
    except Exception as exc:  # the kind is what is compared
        return type(exc)


def test_kernel_matches_per_pair_route():
    for g in range(0, 61):
        for d in range(1, 61):
            assert _value_or_error_kind(tev_p1_schubert, g, d) == (
                _value_or_error_kind(_schubert_per_pair, g, d)
            ), (g, d)


def test_pair_products_are_prefixes_of_the_widest():
    for box in range(0, 41):
        m = box + 2
        for w in range(0, 2 * box + 1):
            half = w // 2
            widest = pieri_special(SchubertCombo.sigma(m, half), w - half)
            # tev_p1_schubert weights each class of the widest product
            # by the number of ordered pairs whose product holds it; a
            # class outside the widest product would raise KeyError
            pairs = dict.fromkeys(widest.terms, 0)
            for a in range(max(0, w - box), min(w, box) + 1):
                product = pieri_special(SchubertCombo.sigma(m, a), w - a)
                for key in product.terms:
                    pairs[key] += 1
                if a <= half:
                    prefix = {
                        key: mult for key, mult in widest.terms.items()
                        if key[1] <= a
                    }
                    assert product.terms == prefix, (box, w, a)
            assert pairs == {(x, y): x - y + 1 for x, y in widest.terms}, (box, w)


def test_sigma1_power_list_matches_pieri_steps():
    for g in range(0, 31):
        # a box of width g truncates nothing in sigma_1^g
        combo = SchubertCombo.sigma(g + 2, 0)
        for _ in range(g):
            combo = pieri_special(combo, 1)
        expected = {(g - y, y): mult for y, mult in enumerate(_sigma1_power(g))}
        assert combo.terms == expected, g


def test_sigma1_power_matches_per_entry_steps():
    # up to g = 200, where entries reach 193 bits and the binomial the
    # ratio steps carry 196: exact division past one and two machine
    # words
    for g in range(0, 201):
        assert _sigma1_power(g) == _sigma1_power_by_entry(g), g


@pytest.mark.parametrize("g", [127, 128, 129, 255, 256, 300, 500, 701, 1000, 4000])
def test_routes_agree_at_large_genus(g):
    # the least degree with 2d - 2 - g >= 0, the diagonal, and the first
    # degree where the count is 2^g
    for d in ((g + 3) // 2, g, g + 1):
        assert tev_p1_schubert(g, d) == tev_p1_binomial(g, d), (g, d)


def test_schubert_route_calls_no_binomial_helper(monkeypatch):
    # the two routes check each other only if the Schubert one never
    # reaches the binomials of the closed form
    def refuse(n, k):
        raise AssertionError(f"binom({n}, {k}) called")

    monkeypatch.setattr("tevdeg.schubert.binom", refuse)
    with pytest.raises(AssertionError):
        tev_p1_binomial(3, 4)
    for g in range(0, 21):
        for d in range((g + 3) // 2, 22):
            assert tev_p1_schubert(g, d) == _schubert_per_pair(g, d), (g, d)


def test_routes_agree_and_threshold_characterizes_2_to_g():
    # holds every cell of perfbench's line-oracle windows
    for g in range(0, 101):
        for d in range(1, 101):
            if 2 * d - 2 - g < 0:
                continue
            binomial = tev_p1_binomial(g, d)
            schubert = tev_p1_schubert(g, d)
            assert binomial == schubert, (g, d)
            assert (binomial == 2 ** g) == (d >= g + 1), (g, d)
            if g <= 12 and d <= 13:
                assert schubert == _schubert_by_pieri(g, d), (g, d)


def test_counts_are_nonnegative_and_bounded_by_2_to_g():
    for g in range(0, 13):
        for d in range(1, 14):
            if 2 * d - 2 - g < 0:
                continue
            value = tev_p1_binomial(g, d)
            assert 0 <= value <= 2 ** g


def test_degree_underflow_rejected_by_both_routes():
    with pytest.raises(DegreeUnderflow):
        tev_p1_schubert(3, 2)
    with pytest.raises(DegreeUnderflow):
        tev_p1_binomial(3, 2)


def test_line_domain_validation():
    with pytest.raises(ValueError):
        tev_p1_binomial(-1, 4)
    with pytest.raises(ValueError):
        tev_p1_schubert(0, 0)


def test_combo_algebra():
    a = SchubertCombo(5, {(2, 1): 1})
    b = SchubertCombo(5, {(2, 1): 2, (3, 0): 1})
    assert a + a == SchubertCombo(5, {(2, 1): 2})
    assert a + b == SchubertCombo(5, {(2, 1): 3, (3, 0): 1})
    assert repr(SchubertCombo(5, {(2, 1): -1, (3, 3): 2})) == "-s[2,1] + 2*s[3,3]"
