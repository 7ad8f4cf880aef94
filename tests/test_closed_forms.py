"""Closed-form evaluators: worked values, hypotheses, factorizations."""

from __future__ import annotations

import pytest

from tevdeg import (
    FormulaKind,
    HypothesisViolation,
    NegativeExponent,
    NoKnownFormula,
    TargetKind,
    TargetSpec,
    WellPosednessError,
    make_problem,
    padic_valuation,
    vtev,
)


def _problem(target, g, d):
    return make_problem(target, g, d)


def _product(factorization):
    out = 1
    for base, exp in factorization:
        out *= base ** exp
    return out


def test_projective_space_values():
    result = vtev(_problem(TargetSpec.projective_space(1), 2, 3))
    assert result.value == 4
    assert result.formula is FormulaKind.PROJECTIVE_SPACE
    assert vtev(_problem(TargetSpec.projective_space(1), 0, 1)).value == 1
    # P^2, g = 3, d = 6: n = 7 and the count is 3^3
    assert vtev(_problem(TargetSpec.projective_space(2), 3, 6)).value == 27


def test_hypersurface_worked_example():
    # e = 3, r = 7, g = 1, d = 7: n = 6 and
    # (2!)^6 * 6^1 * 3^((7-6)*3 - 1 + 1) = 64 * 6 * 27
    problem = _problem(TargetSpec.hypersurface(3, 7), 1, 7)
    result = vtev(problem)
    assert problem.n == 6
    assert result.value == 10368
    assert result.value == 64 * 6 * 27
    assert result.factorization == ((2, 6), (6, 1), (3, 3))
    assert _product(result.factorization) == result.value


def test_hypersurface_genus_zero_example():
    # e = 3, r = 3, g = 0, d = 3: n = 3 and (2!)^3 * 2^0 * 3^1 = 24
    problem = _problem(TargetSpec.hypersurface(3, 3), 0, 3)
    result = vtev(problem)
    assert problem.n == 3
    assert result.value == 24


def test_hypersurface_dimension_boundary():
    # r = 2e - 3 is allowed ...
    problem = _problem(TargetSpec.hypersurface(4, 5), 0, 5)
    result = vtev(problem)
    assert result.value == _product(result.factorization)
    # ... r = 2e - 4 is not
    with pytest.raises(HypothesisViolation) as exc:
        vtev(_problem(TargetSpec.hypersurface(4, 4), 0, 4))
    assert str(exc.value) == "hypersurface formula needs r >= 2e - 3 = 5, got r=4"


def test_quadric_values():
    quadric3 = TargetSpec.quadric(3)
    # ((2*3)^1 + (-1)^d * 2^1) / 2 for d = 2, 3
    assert vtev(_problem(quadric3, 1, 2)).value == 4
    assert vtev(_problem(quadric3, 1, 3)).value == 2
    # even dimension, genus 0, odd degree: (1 - 1) / 2 = 0
    assert vtev(_problem(TargetSpec.quadric(4), 0, 3)).value == 0


def test_quadric_delta_depends_on_parity():
    # r = 5: delta = 1; r = 6: delta = 2; both at g = 2, even d
    assert vtev(_problem(TargetSpec.quadric(5), 2, 4)).value == (100 + 4) // 2
    assert vtev(_problem(TargetSpec.quadric(6), 2, 4)).value == (144 + 16) // 2


def test_quadric_consecutive_degrees_pair_up():
    for r in range(3, 9):
        target = TargetSpec.quadric(r)
        for g in range(0, 7):
            d = max(1, g - 1, 2 - g)
            first = vtev(_problem(target, g, d)).value
            second = vtev(_problem(target, g, d + 1)).value
            assert first + second == (2 * r) ** g, (r, g, d)


def test_dispatch_covers_all_formula_kinds():
    assert vtev(_problem(TargetSpec.projective_space(1), 5, 6)).value == 32
    assert vtev(_problem(TargetSpec.quadric(6), 2, 4)).value == 80
    hyp = vtev(_problem(TargetSpec.hypersurface(3, 7), 1, 7))
    assert hyp.formula is FormulaKind.HYPERSURFACE


def test_formula_hypotheses_hold_for_targets_built_field_by_field():
    # the constructor accepts any e, r and index for a kind, so each
    # formula still checks its own hypotheses
    cases = [
        (TargetSpec(TargetKind.HYPERSURFACE, r=5, e=2, index=5), 1, 2,
         HypothesisViolation, "hypersurface formula needs e >= 3, got 2"),
        (TargetSpec(TargetKind.QUADRIC, r=2, e=2, index=2), 1, 2,
         HypothesisViolation, "quadric formula needs r >= 3, got 2"),
        # index 100 forces n = 101 at g = 0, d = 7, so the last exponent
        # is negative; no constructor pairs e, r and index like this
        (TargetSpec(TargetKind.HYPERSURFACE, r=7, e=3, index=100), 0, 7,
         NegativeExponent, "exponent (d-n)e - g + 1 = -281 is negative"),
    ]
    for target, g, d, error, message in cases:
        with pytest.raises(error) as exc:
            vtev(make_problem(target, g, d))
        assert str(exc.value) == message


def test_dispatch_rejects_targets_without_formulas():
    with pytest.raises(NoKnownFormula):
        vtev(_problem(TargetSpec.homogeneous(4, 3), 1, 4))
    with pytest.raises(NoKnownFormula):
        vtev(_problem(TargetSpec.custom(4, 3), 1, 4))


def test_factorization_hints_remultiply():
    cases = [
        (TargetSpec.projective_space(3), 2, 9),
        (TargetSpec.hypersurface(3, 7), 2, 14),
        (TargetSpec.hypersurface(5, 9), 1, 9),
        (TargetSpec.quadric(4), 3, 4),
        (TargetSpec.quadric(7), 0, 2),
    ]
    for target, g, d in cases:
        result = vtev(make_problem(target, g, d))
        assert _product(result.factorization) == result.value, (target.kind, g, d)


def test_hypersurface_counts_avoid_large_primes():
    # primes p > e prime to r + 2 - e never divide the count
    for (e, r) in ((3, 7), (5, 9)):
        target = TargetSpec.hypersurface(e, r)
        for g in range(0, 3):
            for d in range(1, 15):
                try:
                    problem = make_problem(target, g, d)
                except WellPosednessError:
                    continue
                value = vtev(problem).value
                for p in (11, 13, 101):
                    if (r + 2 - e) % p == 0:
                        continue
                    assert padic_valuation(value, p) == 0, (e, r, g, d, p)


def test_values_are_positive_outside_quadric_cancellation():
    # projective and hypersurface formulas are products of positives
    assert vtev(_problem(TargetSpec.projective_space(4), 0, 4)).value == 1
    result = vtev(_problem(TargetSpec.hypersurface(3, 5), 0, 5))
    assert result.value > 0
