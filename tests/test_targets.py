"""Target construction, normalization, and well-posedness gatekeeping."""

from __future__ import annotations

import copy
import hashlib
import inspect
import pickle
import typing
from fractions import Fraction

import pytest

import tevdeg
from tevdeg import (
    DomainError,
    InvalidTarget,
    LineDomainError,
    NegativeN,
    NonFano,
    NonIntegerN,
    QElement,
    SchubertCombo,
    TargetKind,
    TargetSpec,
    TevError,
    TevProblem,
    UnstableRange,
    binom,
    c1_pairing,
    check_complete_intersection,
    check_condition_ii,
    check_star2_prime0_hypersurface,
    factorial,
    is_prime,
    legendre_valuation,
    make_problem,
    padic_valuation,
    pieri_special,
    tev_p1_binomial,
    tev_p1_schubert,
    value_bits,
    very_free_search,
)
from tevdeg.arith import _integer
from tevdeg.cli import RunRecord, parse_target, run_vtev
from tevdeg.targets import ValueObject, degree_step


def _marking_count(target, g, d):
    """The forced marking count 1 - g + d*I/r as an exact rational:
    the reference the integer gate in `make_problem` is checked against."""
    return 1 - g + Fraction(d * target.index, target.r)


def test_c1_pairing_examples():
    assert c1_pairing(TargetSpec.projective_space(1), 3) == 6
    assert c1_pairing(TargetSpec.hypersurface(3, 7), 7) == 42
    assert c1_pairing(TargetSpec.quadric(3), 2) == 6


def test_c1_pairing_rejects_nonpositive_degree():
    with pytest.raises(ValueError):
        c1_pairing(TargetSpec.projective_space(2), 0)


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
    assert str(_marking_count(target, g, d)) == count


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
                    n = _marking_count(target, g, d)
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
    n = _marking_count(target, g, d)
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
    # the genus is checked before the degree, as before
    with pytest.raises(DomainError, match="genus"):
        make_problem(target, -1, 0)
    assert issubclass(DomainError, ValueError)
    assert issubclass(LineDomainError, DomainError)
    assert LineDomainError("x").kind == "LineDomainError"


# Non-integer arguments and the error each raises: nothing is truncated,
# so no zero multiplicity is stored and no "exact" value is a float.
NON_INTEGER_CALLS = [
    (lambda: SchubertCombo(5, {(1, 0): 0.5}), DomainError),
    (lambda: SchubertCombo(5.0, {(1, 0): 1}), DomainError),
    (lambda: SchubertCombo(5, {(1.0, 0): 1}), DomainError),
    (lambda: pieri_special(SchubertCombo.sigma(5, 1), 1.0), DomainError),
    (lambda: tev_p1_schubert(3.0, 4), LineDomainError),
    (lambda: tev_p1_binomial(3, 4.0), LineDomainError),
    (lambda: TargetSpec.projective_space(2.0), InvalidTarget),
    (lambda: TargetSpec.homogeneous(3, 2, s_bound=2.5), InvalidTarget),
    (lambda: TargetSpec.custom(5, 2, 3, 3, ci_degrees=(2, 3.0)), InvalidTarget),
    # well-posedness: g and d, through the constructor and by name
    (lambda: make_problem(TargetSpec.projective_space(2), 2.0, 2), DomainError),
    (lambda: make_problem(TargetSpec.projective_space(2), 2, "2"), DomainError),
    (lambda: TevProblem(TargetSpec.projective_space(2), 2, 2.0), DomainError),
    (lambda: TevProblem(TargetSpec.projective_space(2), "2", 2), DomainError),
    (lambda: c1_pairing(TargetSpec.projective_space(2), 2.5), DomainError),
    # a factory converts before its own range check
    (lambda: TargetSpec.projective_space("2"), InvalidTarget),
    (lambda: TargetSpec.quadric("5"), InvalidTarget),
    (lambda: TargetSpec.hypersurface("3", 7), InvalidTarget),
    (lambda: TargetSpec.hypersurface(3, "7"), InvalidTarget),
    # the public criteria, primality and the very-free search
    (lambda: check_condition_ii(3.5, 2, 4), DomainError),
    (lambda: check_condition_ii(3, "2", 4), DomainError),
    (lambda: check_star2_prime0_hypersurface(3.0, 8), DomainError),
    (lambda: check_star2_prime0_hypersurface(3, "8"), DomainError),
    (lambda: check_complete_intersection(2.5, 1, 3, [2.0]), DomainError),
    (lambda: check_complete_intersection(2, 1, 3, ["2"]), DomainError),
    (lambda: is_prime(5.0), DomainError),
    (lambda: is_prime("7"), DomainError),
    (lambda: very_free_search("3", 8, 5), DomainError),
    # the closed forms' bound on a grid's values
    (lambda: value_bits(TargetSpec.projective_space(2), 4.0, 6), DomainError),
    (lambda: value_bits(TargetSpec.quadric(5), 4, "6"), DomainError),
    # the exact combinatorics, also where k > n once returned 0
    (lambda: binom(4.0, 2), DomainError),
    (lambda: factorial(3.0), DomainError),
    (lambda: binom("4", 2), DomainError),
    (lambda: binom(4, 5.5), DomainError),
    (lambda: binom(4.0, 5), DomainError),
]


@pytest.mark.parametrize(
    "call",
    [
        lambda: QElement(0),
        lambda: QElement.zero(-1),
        lambda: QElement(2, [{}, {}]),
        lambda: QElement(2, [{}, {-1: 1}, {}]),
        lambda: QElement.h_power(2, 3),
        lambda: QElement.h_power(2, 1, q_exp=-1),
        lambda: SchubertCombo(1),
        lambda: SchubertCombo(4, {(3, 0): 1}),
        lambda: SchubertCombo(4, {(1, 2): 1}),
        lambda: SchubertCombo.sigma(4, 1) + SchubertCombo.sigma(5, 1),
        lambda: TevProblem(TargetSpec.projective_space(1), 5, 1),
        lambda: check_complete_intersection(1, 1, 1, [0]),
        lambda: check_star2_prime0_hypersurface(2, 10),
        *(call for call, _ in NON_INTEGER_CALLS),
    ],
)
def test_public_constructors_and_criteria_raise_tev_errors(call):
    # a caller catching TevError, as the CLI does, catches every one
    with pytest.raises(TevError):
        call()


@pytest.mark.parametrize("call, kind", NON_INTEGER_CALLS)
def test_non_integers_raise_instead_of_truncating(call, kind):
    with pytest.raises(kind, match="must be an integer, got"):
        call()


def test_very_free_search_names_a_float_characteristic():
    with pytest.raises(DomainError, match=r"^p must be an integer, got 5\.0$"):
        very_free_search(3, 8, 5.0)


class Index:
    """An integer-like object that offers only `__index__`, as NumPy
    integers do."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_a_problem_stores_ints_for_integer_like_arguments():
    target = TargetSpec.hypersurface(3, 7)
    for build in (make_problem, TevProblem):
        problem = build(target, Index(1), Index(7))
        assert problem == make_problem(target, 1, 7)
        assert [type(v) for v in (problem.g, problem.d, problem.n)] == [int] * 3
        assert tevdeg.vtev(problem).value == 10368
    assert type(make_problem(TargetSpec.projective_space(1), 0, True).d) is int


def test_line_routes_compute_with_converted_arguments():
    assert tev_p1_schubert(Index(80), 100) == 2**80
    assert tev_p1_binomial(80, Index(100)) == 2**80
    assert tev_p1_schubert(Index(3), Index(4)) == 8
    assert tev_p1_binomial(Index(3), Index(4)) == 8


def test_valuations_compute_with_converted_arguments():
    assert legendre_valuation(Index(10), 2) == legendre_valuation(10, Index(2)) == 8
    assert padic_valuation(Index(8), 2) == padic_valuation(-24, Index(2)) == 3
    assert binom(Index(4), Index(2)) == 6
    assert binom(4, True) == 4
    assert factorial(Index(4)) == factorial(4) == 24
    assert type(binom(Index(4), Index(5))) is int


def test_binomial_names_the_argument_that_is_not_an_integer():
    for args, message in [
        ((4, 5.5), "k must be an integer, got 5.5"),
        ((4.0, 5), "n must be an integer, got 4.0"),
        (("4", 2.0), "n must be an integer, got '4'"),
    ]:
        with pytest.raises(DomainError) as exc:
            binom(*args)
        assert str(exc.value) == message


def test_a_bool_passes_the_integer_check():
    assert TargetSpec.projective_space(True) == TargetSpec.projective_space(1)
    assert SchubertCombo(5, {(True, False): True}) == SchubertCombo.sigma(5, 1)
    assert tev_p1_schubert(True, 2) == tev_p1_binomial(1, 2) == 2


def test_tev_problem_rejects_what_make_problem_rejects():
    # a negative forced n (-3) and a negative genus
    with pytest.raises(NegativeN, match="marking count -3 is negative"):
        TevProblem(TargetSpec.hypersurface(3, 7), 10, 7)
    with pytest.raises(DomainError, match="genus must be >= 0, got -1"):
        TevProblem(TargetSpec.projective_space(1), -1, 2)


DIRECT_TARGETS = [TargetSpec.projective_space(r) for r in range(1, 5)] + [
    TargetSpec.hypersurface(3, 7),
    TargetSpec.hypersurface(4, 6),
    TargetSpec.quadric(5),
]


def _outcome(build):
    try:
        return build()
    except TevError as exc:
        return type(exc), str(exc)


def test_direct_construction_with_the_forced_n_matches_make_problem():
    cells = 0
    kinds = set()
    for target in DIRECT_TARGETS:
        r = target.r
        for g in range(-2, 13):
            for d in range(-1, 31):
                numerator = (1 - g) * r + d * target.index
                if numerator % r:
                    continue
                cells += 1
                direct = _outcome(lambda: TevProblem(target, g, d))
                assert direct == _outcome(lambda: make_problem(target, g, d))
                if isinstance(direct, TevProblem):
                    assert direct.n == numerator // r
                    assert type(tevdeg.vtev(direct).value) is int
                    kinds.add("ok")
                else:
                    kinds.add(direct[0].__name__)
    assert cells == 1725
    assert kinds == {"ok", "DomainError", "NegativeN", "UnstableRange"}


def _outcome_digest(build):
    """sha256 over `build(target, g, d)`'s outcome on every cell of
    DIRECT_TARGETS x [-2, 12] x [-1, 30], non-integral cells included:
    the error's class name and message, or (g, d, n) with their types."""
    lines = []
    for target in DIRECT_TARGETS:
        for g in range(-2, 13):
            for d in range(-1, 31):
                try:
                    problem = build(target, g, d)
                except TevError as exc:
                    lines.append(f"{type(exc).__name__}: {exc}")
                else:
                    fields = (problem.g, problem.d, problem.n)
                    lines.append(repr([(v, type(v).__name__) for v in fields]))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# 3360 cells, recorded while `make_problem` decided each check before
# passing the forced n to `TevProblem`, so both doors keep its outcomes
OUTCOME_DIGEST = "6313e6f2eb25275d9d44d3f886729d460a665454a72a3a88bb877842c64f2b0c"


def test_make_problem_outcomes_are_pinned():
    assert _outcome_digest(make_problem) == OUTCOME_DIGEST


def test_tev_problem_outcomes_match_the_pin():
    # the constructor derives n and decides everything itself
    assert _outcome_digest(TevProblem) == OUTCOME_DIGEST


def test_make_problem_converts_each_argument_once(monkeypatch):
    calls = []

    def counting(value, what, error=DomainError):
        calls.append(what)
        return _integer(value, what, error)

    monkeypatch.setattr("tevdeg.targets._integer", counting)
    for target in DIRECT_TARGETS:
        for g in range(0, 13):
            for d in range(1, 31):
                calls.clear()
                try:
                    make_problem(target, g, d)
                except TevError:
                    pass
                assert calls == ["genus", "curve degree"], (target, g, d)


def test_derived_targets_convert_each_argument_once(monkeypatch):
    calls = []

    def counting(value, what, error=DomainError):
        calls.append(what)
        return _integer(value, what, error)

    monkeypatch.setattr("tevdeg.targets._integer", counting)
    for r in range(-1, 41):
        builds = [
            (TargetSpec.projective_space, (r,), ["dimension r"]),
            (TargetSpec.quadric, (r,), ["dimension r"]),
        ] + [
            (TargetSpec.hypersurface, (e, r), ["degree e", "dimension r"])
            for e in range(1, 13)
        ]
        for build, args, expected in builds:
            calls.clear()
            _outcome(lambda: build(*args))
            assert calls == expected, (build.__name__, args)


def _reference_target(e, r):
    """The fields (kind, r, e, index, s, t, ci_degrees) of the degree-e
    hypersurface of dimension r, written out literally, or the error
    class a factory raises for it: the reference the factories'
    one-step build is checked against."""
    if e < 1:
        return InvalidTarget
    if e == 1:
        kind, index, least_r = TargetKind.PROJECTIVE_SPACE, r + 1, 1
    elif e == 2:
        kind, index, least_r = TargetKind.QUADRIC, r, 3
    else:
        kind, index, least_r = TargetKind.HYPERSURFACE, r + 2 - e, 1
    if r < least_r:
        return InvalidTarget
    if index <= 0:
        return NonFano
    return (kind, r, e, index, index, index, None)


def _integer_likes(value):
    """`value` as an int, as an `__index__`-only object and, for 0 and
    1, as a bool."""
    return [value, Index(value)] + ([bool(value)] if value in (0, 1) else [])


def test_derived_targets_equal_the_validated_construction():
    # degrees 1 and 2 normalize to P^r and the quadric, which have
    # one-argument factories of their own
    one_argument = {1: TargetSpec.projective_space, 2: TargetSpec.quadric}
    for e in range(-1, 13):
        for r in range(-1, 41):
            expected = _reference_target(e, r)
            for r_arg in _integer_likes(r):
                got = [_outcome(lambda: TargetSpec.hypersurface(e_arg, r_arg))
                       for e_arg in _integer_likes(e)]
                if e in one_argument:
                    got.append(_outcome(lambda: one_argument[e](r_arg)))
                for spec in got:
                    if isinstance(expected, type):
                        assert type(spec) is tuple and spec[0] is expected, (e, r, spec)
                        continue
                    fields = tuple(getattr(spec, name) for name in spec._fields)
                    assert fields == expected, (e, r, spec)
                    assert [type(v) for v in fields[1:6]] == [int] * 5, (e, r)


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
    # a degree of 1 (a hyperplane) is the least allowed
    assert TargetSpec.custom(5, 2, 3, 3, (1, 2)).ci_degrees == (1, 2)
    for degrees in ((0,), (0, 2), (1, 0)):
        with pytest.raises(InvalidTarget, match="degrees must be >= 1"):
            TargetSpec.custom(7, 6, ci_degrees=degrees)


@pytest.mark.parametrize("build, message", [
    (lambda: TargetSpec.custom(0, 0, s_bound=2.5), "s bound must be an integer"),
    (lambda: TargetSpec.homogeneous(5, 2, s_bound=0, t_bound="3"), "t bound must be an integer"),
    (lambda: TargetSpec.custom(5, 2, 1, 2, ci_degrees=(2.0,)),
     "complete intersection degree must be an integer"),
])
def test_asserted_kinds_convert_every_argument_before_any_range_check(build, message):
    # each call also holds an out-of-range argument that comes earlier
    with pytest.raises(InvalidTarget, match=message):
        build()


def test_describe_is_human_readable():
    # the exact text of every kind; a hypersurface of dimension r lies
    # in P^(r+1)
    for target, text in [
        (TargetSpec.projective_space(3), "P^3"),
        (TargetSpec.hypersurface(3, 7), "degree-3 hypersurface in P^8"),
        (TargetSpec.hypersurface(4, 9), "degree-4 hypersurface in P^10"),
        (TargetSpec.quadric(5), "quadric of dimension 5"),
        (TargetSpec.homogeneous(6, 4, 5, 4), "homogeneous space, dim 6, index 4"),
        (TargetSpec.custom(5, 2, 3, 3, (2, 3)), "custom target, dim 5, index 2"),
    ]:
        assert target.describe() == text


def _public_callables():
    for name in dir(tevdeg):
        obj = getattr(tevdeg, name)
        if name.startswith("_") or not callable(obj):
            continue
        yield name, obj
        if inspect.isclass(obj):
            # a value class declares its fields only in `__init__`
            if inspect.isfunction(vars(obj).get("__init__")):
                yield f"{name}.__init__", obj.__init__
            for attr, member in vars(obj).items():
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{name}.{attr}", member


PUBLIC_CALLABLES = dict(_public_callables())


@pytest.mark.parametrize("name", sorted(PUBLIC_CALLABLES))
def test_type_hints_resolve(name):
    # every annotation names something bound at run time, although the
    # modules write them as strings (from __future__ import annotations)
    typing.get_type_hints(PUBLIC_CALLABLES[name])


def test_ci_degrees_are_normalized_to_a_tuple():
    assert TargetSpec.custom(5, 2, ci_degrees=[3, 2]).ci_degrees == (3, 2)


def test_value_classes_compare_by_field():
    first = TargetSpec.custom(5, 2, ci_degrees=[3, 2])
    second = TargetSpec.custom(5, 2, ci_degrees=(3, 2))
    assert first == second
    assert repr(first) == repr(second)
    assert first != TargetSpec.custom(5, 2, ci_degrees=(2, 3))


def test_vtev_result_builds_by_keyword_and_compares_by_field():
    result = tevdeg.vtev(make_problem(TargetSpec.projective_space(2), 1, 2))
    assert result.value == 3
    rebuilt = tevdeg.VTevResult(
        factorization=result.factorization,
        formula=result.formula,
        problem=result.problem,
        value=3,
    )
    assert rebuilt == result
    bumped = tevdeg.VTevResult(
        4, result.problem, result.formula, result.factorization
    )
    assert bumped != result


# one instance of each value class, with its repr as the dataclass
# version of the class printed it
VALUE_REPRS = [
    (
        lambda: TargetSpec.custom(5, 2, 3, 3, (2, 3)),
        "TargetSpec(kind=<TargetKind.CUSTOM: 'custom'>, r=5, e=1, index=2, "
        "s_bound=3, t_bound=3, ci_degrees=(2, 3))",
    ),
    (
        lambda: make_problem(TargetSpec.quadric(5), 1, 4),
        "TevProblem(target=TargetSpec(kind=<TargetKind.QUADRIC: 'quadric'>, "
        "r=5, e=2, index=5, s_bound=5, t_bound=5, ci_degrees=None), g=1, d=4, "
        "n=4)",
    ),
    (
        lambda: tevdeg.vtev(make_problem(TargetSpec.hypersurface(3, 7), 1, 7)),
        "VTevResult(value=10368, problem=TevProblem(target=TargetSpec("
        "kind=<TargetKind.HYPERSURFACE: 'hypersurface'>, r=7, e=3, index=6, "
        "s_bound=6, t_bound=6, ci_degrees=None), g=1, d=7, n=6), "
        "formula=<FormulaKind.HYPERSURFACE: 'hypersurface'>, "
        "factorization=((2, 6), (6, 1), (3, 3)))",
    ),
    (
        lambda: tevdeg.certify_target(TargetSpec.projective_space(2), 1, 2).checks[0],
        "Check(description='d >= r(g + 1)', left=2, relation='>=', right=4, "
        "holds=False)",
    ),
    (
        lambda: tevdeg.certify_target(TargetSpec.projective_space(1), 2, 3),
        "Certificate(status=<Status.ENUMERATIVE: 'Enumerative'>, "
        "cited_result='line threshold: enumerative iff d >= g+1', "
        "checks=(Check(description='d >= g + 1', left=3, relation='>=', "
        "right=3, holds=True),), vtev_value=4, geometric_value=4)",
    ),
    (
        lambda: tevdeg.very_free_search(3, 8, 5),
        "VeryFreeReport(e=3, r=8, p=5, n=8, d=8, vtev_valuation=0, "
        "conditions=(Check(description='r > (e+2)(e-2)', left=8, "
        "relation='>', right=5, holds=True), Check(description='p > e', "
        "left=5, relation='>', right=3, holds=True)), conclusion=True)",
    ),
    (
        lambda: RunRecord("vtev", {"target": "p:2"}),
        "RunRecord(command='vtev', inputs={'target': 'p:2'}, outputs={}, "
        "citations=[], status='ok', error_kind=None)",
    ),
    (
        lambda: run_vtev("p:2", 1, 2),
        "RunRecord(command='vtev', inputs={'target': 'p:2', 'g': '1', "
        "'d': '2'}, outputs={'value': '3', 'formula': 'projective-space', "
        "'n': '3', 'c1_pairing': '6', 'dimension_product': '6', "
        "'factorization': '3^1'}, citations=['closed form: projective-space'], "
        "status='ok', error_kind=None)",
    ),
]
VALUE_IDS = [
    "TargetSpec", "TevProblem", "VTevResult", "Check", "Certificate",
    "VeryFreeReport", "RunRecord-defaults", "RunRecord",
]


@pytest.mark.parametrize("build, text", VALUE_REPRS, ids=VALUE_IDS)
def test_value_class_repr_is_the_dataclass_repr(build, text):
    assert repr(build()) == text


@pytest.mark.parametrize("build, text", VALUE_REPRS, ids=VALUE_IDS)
def test_value_classes_are_equal_by_field_and_unhashable(build, text):
    first, second = build(), build()
    fields = type(first)._fields
    assert len(fields) >= 3
    if isinstance(first, TargetSpec):
        assert fields == (
            "kind", "r", "e", "index", "s_bound", "t_bound", "ci_degrees"
        )
    assert first is not second
    assert first == second
    assert not first != second
    # another class never compares equal, not even with the same fields
    assert first != tuple(getattr(first, name) for name in fields)
    assert first.__eq__(object()) is NotImplemented
    with pytest.raises(TypeError, match="unhashable"):
        hash(first)
    # a change to any one field breaks equality; a spec is immutable, so
    # its changed copies are rebuilt as pickle rebuilds it
    for i, name in enumerate(fields):
        if isinstance(first, TargetSpec):
            rebuild, values = first.__reduce__()
            changed = rebuild(*values[:i], ("changed",), *values[i + 1:])
        else:
            changed = build()
            setattr(changed, name, ("changed",))
        assert getattr(changed, name) == ("changed",)
        assert first != changed, name


@pytest.mark.parametrize("build, text", VALUE_REPRS, ids=VALUE_IDS)
def test_value_classes_survive_pickle(build, text):
    # pool workers send their records back pickled
    value = build()
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value)
    assert copy == value
    assert repr(copy) == text


# the engines' value types: their reprs are algebraic, not the
# dataclass repr, so they stay out of VALUE_REPRS
ENGINE_VALUES = [
    (lambda: QElement(2, [{0: 1}, {1: -3}, {}]), ("r", "terms")),
    (lambda: SchubertCombo(5, {(2, 1): 3, (1, 0): -1}), ("m", "terms")),
]


@pytest.mark.parametrize("build, fields", ENGINE_VALUES, ids=["QElement", "SchubertCombo"])
def test_engine_values_keep_the_value_object_contract(build, fields):
    first, second = build(), build()
    cls = type(first)
    assert isinstance(first, ValueObject)
    assert cls._fields == fields
    assert "__eq__" not in vars(cls)
    assert first is not second
    assert first == second
    assert not first != second
    assert first != tuple(getattr(first, name) for name in fields)
    assert first.__eq__(object()) is NotImplemented
    with pytest.raises(TypeError, match="unhashable"):
        hash(first)
    for name in fields:
        changed = build()
        setattr(changed, name, ("changed",))
        assert first != changed, name
    duplicate = pickle.loads(pickle.dumps(first))
    assert type(duplicate) is cls
    assert duplicate == first
    assert repr(duplicate) == repr(first)


# a spec from each factory, each normalization, and the parser
FROZEN_SPECS = {
    "p:2": lambda: TargetSpec.projective_space(2),
    "hyp:3:7": lambda: TargetSpec.hypersurface(3, 7),
    "hyp:1:4": lambda: TargetSpec.hypersurface(1, 4),
    "hyp:2:5": lambda: TargetSpec.hypersurface(2, 5),
    "quadric:5": lambda: TargetSpec.quadric(5),
    "gp:6:4:5:4": lambda: TargetSpec.homogeneous(6, 4, 5, 4),
    "gp:6:4": lambda: TargetSpec.homogeneous(6, 4),
    "custom:5:2:3:3:2,3": lambda: TargetSpec.custom(5, 2, 3, 3, (2, 3)),
    "custom:5:2": lambda: TargetSpec.custom(5, 2),
}


@pytest.mark.parametrize("source", ["factory", "parser"])
@pytest.mark.parametrize("text", FROZEN_SPECS)
def test_every_field_of_a_spec_refuses_assignment_and_deletion(text, source):
    spec = FROZEN_SPECS[text]() if source == "factory" else parse_target(text)
    before = repr(spec)
    for name in TargetSpec._fields + ("extra",):
        with pytest.raises(AttributeError, match="TargetSpec is immutable"):
            setattr(spec, name, 7)
        with pytest.raises(AttributeError, match="TargetSpec is immutable"):
            delattr(spec, name)
    assert repr(spec) == before
    assert spec == FROZEN_SPECS[text]()


def test_reassigning_an_index_fails_at_the_assignment():
    # each would print a wrong number if the assignment went through
    cubic = TargetSpec.hypersurface(3, 7)
    with pytest.raises(AttributeError):
        cubic.index = 7
    assert tevdeg.vtev(make_problem(cubic, 1, 7)).value == 10368
    plane = TargetSpec.projective_space(2)
    with pytest.raises(AttributeError):
        plane.index = 5
    assert plane.index == 3
    assert tevdeg.certify_target(plane, 1, 4) == tevdeg.certify_target(
        TargetSpec.projective_space(2), 1, 4
    )


@pytest.mark.parametrize("text", FROZEN_SPECS)
def test_copies_of_a_spec_are_equal_and_frozen(text):
    spec = FROZEN_SPECS[text]()
    copies = [
        copy.copy(spec),
        copy.deepcopy(spec),
        *(pickle.loads(pickle.dumps(spec, protocol)) for protocol in range(
            pickle.HIGHEST_PROTOCOL + 1)),
    ]
    for duplicate in copies:
        assert type(duplicate) is TargetSpec
        assert duplicate == spec
        assert repr(duplicate) == repr(spec)
        with pytest.raises(AttributeError):
            duplicate.r = 1


def test_run_record_defaults_are_fresh_per_instance():
    first, second = RunRecord("vtev", {}), RunRecord("vtev", {})
    first.outputs["value"] = "1"
    first.citations.append("closed form")
    assert (second.outputs, second.citations) == ({}, [])
    assert list(first.to_dict()) == [
        "command", "inputs", "outputs", "citations", "status", "error_kind"
    ]
