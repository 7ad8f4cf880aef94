"""Target construction, normalization, and well-posedness gatekeeping."""

from __future__ import annotations

from fractions import Fraction

import pytest

from tevdeg import (
    DomainError,
    InvalidTarget,
    LineDomainError,
    NegativeN,
    NonFano,
    NonIntegerN,
    TargetKind,
    TargetSpec,
    TevError,
    TevProblem,
    UnstableRange,
    c1_pairing,
    make_problem,
    marking_count,
)
from tevdeg.targets import degree_step


def test_c1_pairing_examples():
    assert c1_pairing(TargetSpec.projective_space(1), 3) == 6
    assert c1_pairing(TargetSpec.hypersurface(3, 7), 7) == 42
    assert c1_pairing(TargetSpec.quadric(3), 2) == 6


def test_c1_pairing_rejects_nonpositive_degree():
    with pytest.raises(ValueError):
        c1_pairing(TargetSpec.projective_space(2), 0)


def test_marking_count_examples():
    assert marking_count(TargetSpec.projective_space(1), 2, 3) == 5
    assert marking_count(TargetSpec.quadric(3), 1, 4) == 4
    assert marking_count(TargetSpec.projective_space(2), 0, 1) == Fraction(5, 2)


def test_make_problem_accepts_and_stores_n():
    problem = make_problem(TargetSpec.projective_space(1), 2, 3)
    assert problem.n == 5
    problem = make_problem(TargetSpec.hypersurface(3, 7), 1, 7)
    assert problem.n == 6


def test_make_problem_rejects_non_integer_n():
    with pytest.raises(NonIntegerN):
        make_problem(TargetSpec.projective_space(2), 0, 1)


@pytest.mark.parametrize(
    "target, g, d, count",
    [
        (TargetSpec.projective_space(2), 0, 1, "5/2"),
        # negative numerators, written as Fraction spells them
        (TargetSpec.projective_space(8), 30, 1, "-223/8"),
        (TargetSpec.projective_space(3), 5, 1, "-8/3"),
        # (1 - 10) * 4 + 2 = -34 over 4 reduces to -17/2
        (TargetSpec.custom(4, 2), 10, 1, "-17/2"),
    ],
)
def test_non_integer_n_message(target, g, d, count):
    with pytest.raises(NonIntegerN) as exc:
        make_problem(target, g, d)
    assert str(exc.value) == (
        f"marking count 1 - g + d*I/r = {count} is not an integer "
        f"(g={g}, d={d}, I={target.index}, r={target.r})"
    )
    assert str(marking_count(target, g, d)) == count


def test_make_problem_rejects_negative_n():
    # P^1 with g = 5, d = 1: n = 1 - 5 + 2 = -2
    with pytest.raises(NegativeN):
        make_problem(TargetSpec.projective_space(1), 5, 1)


def test_make_problem_rejects_unstable_range():
    # index-1 target with d = r: n = 2 and 2g - 2 + n = 0
    target = TargetSpec.custom(5, 1)
    with pytest.raises(UnstableRange):
        make_problem(target, 0, 5)


def test_dimension_constraint_holds_on_constructed_problems():
    for r in range(1, 9):
        for index in (1, r, r + 1, 2 * r + 3):
            target = TargetSpec.custom(r, index)
            for g in range(0, 9):
                for d in range(1, 51):
                    n = marking_count(target, g, d)
                    well_posed = (
                        n.denominator == 1
                        and n >= 0
                        and 2 * g - 2 + int(n) > 0
                    )
                    if well_posed:
                        problem = make_problem(target, g, d)
                        assert problem.d * index == r * (problem.n + g - 1)
                    else:
                        with pytest.raises(Exception):
                            make_problem(target, g, d)


def _rational_gate(target, g, d):
    """The former well-posedness gate, decided on the rational marking
    count; returns n or raises. Kept as a reference for `make_problem`."""
    n = marking_count(target, g, d)
    if n.denominator != 1:
        raise NonIntegerN(
            f"marking count 1 - g + d*I/r = {n} is not an integer "
            f"(g={g}, d={d}, I={target.index}, r={target.r})"
        )
    if n < 0:
        raise NegativeN(f"marking count {int(n)} is negative (g={g}, d={d})")
    if 2 * g - 2 + n <= 0:
        raise UnstableRange(
            f"(g, n) = ({g}, {int(n)}) lies outside the stable range "
            "2g - 2 + n > 0"
        )
    return int(n)


GATE_TARGETS = [TargetSpec.projective_space(r) for r in range(1, 9)] + [
    TargetSpec.hypersurface(3, 7),
    TargetSpec.quadric(5),
    TargetSpec.custom(5, 2, 3, 3, (2, 3)),
]


def test_integer_gate_matches_rational_gate():
    kinds = set()
    for target in GATE_TARGETS:
        for g in range(0, 31):
            for d in range(1, 61):
                try:
                    expected = _rational_gate(target, g, d)
                except TevError as exc:
                    with pytest.raises(type(exc)) as got:
                        make_problem(target, g, d)
                    assert got.value.kind == exc.kind
                    assert str(got.value) == str(exc)
                    kinds.add(exc.kind)
                else:
                    problem = make_problem(target, g, d)
                    assert problem.n == expected
                    assert (problem.g, problem.d) == (g, d)
                    kinds.add("ok")
    # every branch of the gate was exercised
    assert kinds == {"ok", "NonIntegerN", "NegativeN", "UnstableRange"}


def test_degree_step_marks_exactly_the_integral_degrees():
    # custom:6:4 has gcd(I, r) = 2, strictly between 1 and r
    targets = [*GATE_TARGETS, TargetSpec.custom(6, 4)]
    assert [degree_step(t) for t in targets] == [*range(1, 9), 7, 1, 5, 3]
    for target in targets:
        step = degree_step(target)
        for g in range(0, 31):
            for d in range(1, 61):
                try:
                    make_problem(target, g, d)
                    fractional = False
                except NonIntegerN:
                    fractional = True
                except (NegativeN, UnstableRange):
                    fractional = False
                assert fractional == (d % step != 0), (target, g, d)


def test_domain_errors_are_tev_errors():
    target = TargetSpec.projective_space(2)
    for g, d in ((-1, 3), (0, 0), (-1, 0)):
        with pytest.raises(DomainError):
            make_problem(target, g, d)
        with pytest.raises(DomainError):
            marking_count(target, g, d)
    # the genus is checked before the degree, as before
    with pytest.raises(DomainError, match="genus"):
        make_problem(target, -1, 0)
    assert issubclass(DomainError, ValueError)
    assert issubclass(LineDomainError, DomainError)
    assert LineDomainError("x").kind == "LineDomainError"


def test_tev_problem_rejects_inconsistent_n():
    target = TargetSpec.projective_space(1)
    with pytest.raises(ValueError):
        TevProblem(target=target, g=2, d=3, n=4)


def test_projective_space_invariants():
    target = TargetSpec.projective_space(4)
    assert target.kind is TargetKind.PROJECTIVE_SPACE
    assert target.index == 5
    assert target.s_bound == target.t_bound == 5


def test_hypersurface_invariants():
    target = TargetSpec.hypersurface(3, 7)
    assert target.kind is TargetKind.HYPERSURFACE
    assert target.index == 7 + 2 - 3
    assert target.t_bound == target.index
    assert target.s_bound >= target.t_bound


def test_degree_two_normalizes_to_quadric():
    target = TargetSpec.hypersurface(2, 5)
    assert target.kind is TargetKind.QUADRIC
    assert target == TargetSpec.quadric(5)
    assert target.index == 5


def test_degree_one_normalizes_to_projective_space():
    # a hyperplane in P^{r+1} is P^r
    target = TargetSpec.hypersurface(1, 4)
    assert target.kind is TargetKind.PROJECTIVE_SPACE
    assert target == TargetSpec.projective_space(4)


def test_quadric_index_and_dimension_guard():
    assert TargetSpec.quadric(3).index == 3
    with pytest.raises(InvalidTarget):
        TargetSpec.quadric(2)


def test_non_fano_hypersurface_rejected_at_construction():
    # e = 9 on dimension 5 gives index 5 + 2 - 9 < 0
    with pytest.raises(NonFano):
        TargetSpec.hypersurface(9, 5)
    with pytest.raises(NonFano):
        TargetSpec.custom(3, 0)


def test_homogeneous_records_asserted_bounds():
    target = TargetSpec.homogeneous(6, 4, s_bound=5, t_bound=4)
    assert target.kind is TargetKind.HOMOGENEOUS
    assert (target.s_bound, target.t_bound) == (5, 4)
    with pytest.raises(InvalidTarget):
        TargetSpec.homogeneous(6, 4, s_bound=3, t_bound=4)


def test_custom_records_ci_degrees():
    target = TargetSpec.custom(7, 6, s_bound=6, t_bound=6, ci_degrees=(3,))
    assert target.ci_degrees == (3,)
    with pytest.raises(InvalidTarget):
        TargetSpec.custom(7, 6, ci_degrees=(0,))


def test_describe_is_human_readable():
    assert "P^3" in TargetSpec.projective_space(3).describe()
    assert "hypersurface" in TargetSpec.hypersurface(4, 9).describe()
