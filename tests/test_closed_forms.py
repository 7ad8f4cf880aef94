"""Closed-form evaluators: worked values, hypotheses, factorizations."""

from __future__ import annotations

import pytest

from tevdeg import (
    FormulaKind,
    HypothesisViolation,
    InvalidTarget,
    NoKnownFormula,
    TargetKind,
    TargetSpec,
    WellPosednessError,
    degree_step,
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


def test_derived_kinds_come_only_from_their_factories():
    # the constructor refuses every spec, so no spec that reaches `vtev`
    # carries an e, r or index its formula does not fit: not a degree-2
    # "hypersurface", a quadric surface, a cubic 7-fold of index 100 or
    # 7 (it has 6), nor P^2 with index 5. Consistent specs of every
    # kind are refused too, and so is a kind that is no TargetKind.
    cases = [
        (TargetKind.HYPERSURFACE, 5, 2, 5),
        (TargetKind.QUADRIC, 2, 2, 2),
        (TargetKind.HYPERSURFACE, 7, 3, 100),
        (TargetKind.HYPERSURFACE, 7, 3, 7),
        (TargetKind.PROJECTIVE_SPACE, 2, 1, 5),
        (TargetKind.PROJECTIVE_SPACE, 2, 1, 3),
        (TargetKind.QUADRIC, 5, 2, 5),
        (TargetKind.HOMOGENEOUS, 6, 1, 4),
        (TargetKind.CUSTOM, 5, 1, 2),
        ("custom", 3, 1, 2),
    ]
    # each kind's factory, with arguments it accepts
    factories = {
        TargetKind.PROJECTIVE_SPACE: ("projective_space", (2,)),
        TargetKind.HYPERSURFACE: ("hypersurface", (3, 7)),
        TargetKind.QUADRIC: ("quadric", (5,)),
        TargetKind.HOMOGENEOUS: ("homogeneous", (6, 4)),
        TargetKind.CUSTOM: ("custom", (5, 2)),
    }
    message = (
        "a target comes only from TargetSpec.projective_space, "
        ".hypersurface, .quadric, .homogeneous or .custom"
    )
    for kind, r, e, index in cases:
        for bounds in ({}, {"s_bound": index, "t_bound": index}):
            calls = [
                lambda: TargetSpec(kind, r=r, e=e, index=index, **bounds),
                lambda: TargetSpec(kind, r, e, index, *bounds.values()),
            ]
            for call in calls:
                with pytest.raises(InvalidTarget) as exc:
                    call()
                assert str(exc.value) == message, (kind, bounds)
    with pytest.raises(InvalidTarget) as exc:
        TargetSpec()
    assert str(exc.value) == message
    assert set(factories) == set(TargetKind)
    for kind, (name, args) in factories.items():
        assert f".{name}" in message
        assert getattr(TargetSpec, name)(*args).kind is kind


def test_hypersurface_exponent_is_at_least_one_on_every_cell():
    # the last exponent (d-n)e - g + 1 of the hypersurface formula is
    # (e-1)(g-1) + e*d(e-2)/r, which the factory's index r + 2 - e
    # keeps at 1 or more; the evaluator has no guard for it
    exponents = []
    for e in range(3, 13):
        for r in range(2 * e - 3, 2 * e + 31):
            target = TargetSpec.hypersurface(e, r)
            step = degree_step(target)
            for g in range(11):
                for d in range(step, 6 * step + 1, step):
                    try:
                        problem = make_problem(target, g, d)
                    except WellPosednessError:
                        continue
                    base, exponent = vtev(problem).factorization[-1]
                    assert base == e
                    assert exponent == (d - problem.n) * e - g + 1
                    exponents.append(exponent)
    assert len(exponents) == 21925
    assert min(exponents) == 1


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
