"""Certification statuses, their supporting checks, and very-free search."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tevdeg
from tevdeg import (
    Certificate,
    DomainError,
    HypothesisViolation,
    NonFano,
    Status,
    TargetSpec,
    WellPosednessError,
    certify,
    certify_target,
    check_complete_intersection,
    check_condition_ii,
    check_star2_prime0_hypersurface,
    make_problem,
    tev_p1_binomial,
    very_free_search,
    vtev,
)
from tevdeg.cli import main

# the directory this `tevdeg` was imported from, for subprocesses
SRC = str(Path(tevdeg.__file__).resolve().parents[1])


def _status(target, g, d):
    return certify_target(target, g, d).status


def test_condition_ii():
    assert check_condition_ii(2, 2, 3) is True
    assert check_condition_ii(1, 1, 2) is False
    assert check_condition_ii(6, 1, 5) is True
    # r = 1, the least dimension: s + t = 2 meets r + 1 exactly
    assert check_condition_ii(1, 1, 1) is True
    with pytest.raises(ValueError):
        check_condition_ii(1, 2, 3)
    with pytest.raises(DomainError, match="need r >= 1, got 0"):
        check_condition_ii(1, 1, 0)


def test_complete_intersection_inequality():
    assert check_complete_intersection(6, 6, 7, [3]) is True     # 6 > 3
    assert check_complete_intersection(7, 7, 9, [4]) is False    # 7 > 8 fails
    # s >= r makes the right side nonpositive
    assert check_complete_intersection(1, 9, 9, [17]) is True
    assert check_complete_intersection(1, 10, 9, [5]) is True
    with pytest.raises(ValueError):
        check_complete_intersection(1, 1, 1, [0])
    # a degree of 1 (a hyperplane) is the least allowed: 6 > (7 - 6) * 3
    assert check_complete_intersection(6, 6, 7, [1, 2]) is True
    with pytest.raises(DomainError, match=r"degrees must be >= 1, got \(0, 2\)"):
        check_complete_intersection(6, 6, 7, [0, 2])


def test_star2_genus0_hypersurface_criterion():
    assert check_star2_prime0_hypersurface(3, 6) is True
    assert check_star2_prime0_hypersurface(3, 5) is False
    assert check_star2_prime0_hypersurface(4, 13) is True
    # outside the criterion's hypothesis, as in very_free_search
    with pytest.raises(HypothesisViolation):
        check_star2_prime0_hypersurface(2, 10)


def test_line_enumerative_iff_threshold():
    line = TargetSpec.projective_space(1)
    cert = certify_target(line, 2, 3)
    assert cert.status is Status.ENUMERATIVE
    assert cert.vtev_value == cert.geometric_value == 4

    cert = certify_target(line, 3, 3)
    assert cert.status is Status.NOT_ENUMERATIVE
    assert cert.vtev_value == 8
    assert cert.geometric_value == 4


def test_line_below_formula_domain_is_unknown():
    # well-posed (n = 1) but 2d - 2 - g < 0: nothing is certified
    cert = certify_target(TargetSpec.projective_space(1), 4, 2)
    assert cert.status is Status.UNKNOWN
    assert cert.vtev_value == 16
    assert cert.geometric_value is None


def test_projective_space_threshold_and_castelnuovo():
    plane = TargetSpec.projective_space(2)
    # d >= r(g+1) = 4: enumerative
    cert = certify_target(plane, 1, 6)
    assert cert.status is Status.ENUMERATIVE
    assert cert.vtev_value == 3
    # minimal degree d = r + gr/(r+1) = 4 at g = 3: not enumerative
    cert = certify_target(plane, 3, 4)
    assert cert.status is Status.NOT_ENUMERATIVE
    assert cert.vtev_value == 27
    assert cert.geometric_value is None
    # intermediate degree: unknown
    assert _status(plane, 3, 6) is Status.UNKNOWN


def test_projective_space_genus_zero_always_enumerative():
    for r in range(2, 7):
        target = TargetSpec.projective_space(r)
        for k in range(1, 5):
            assert _status(target, 0, k * r) is Status.ENUMERATIVE


def test_hypersurface_statuses():
    # genus 0, r > (e+2)(e-2)
    assert _status(TargetSpec.hypersurface(3, 8), 0, 8) is Status.ENUMERATIVE
    # genus 0, bound fails (r = 5 = (e+2)(e-2))
    assert _status(TargetSpec.hypersurface(3, 5), 0, 5) is Status.UNKNOWN
    # positive genus, r > (e+1)(e-2)
    assert (
        _status(TargetSpec.hypersurface(3, 5), 2, 35)
        is Status.ASYMPTOTICALLY_ENUMERATIVE
    )
    # positive genus, bound fails (r = 9 <= 10)
    assert _status(TargetSpec.hypersurface(4, 9), 1, 18) is Status.UNKNOWN


def test_quadric_and_homogeneous_are_asymptotic():
    assert (
        _status(TargetSpec.quadric(5), 2, 4)
        is Status.ASYMPTOTICALLY_ENUMERATIVE
    )
    assert (
        _status(TargetSpec.homogeneous(4, 3), 1, 4)
        is Status.ASYMPTOTICALLY_ENUMERATIVE
    )


def test_custom_criterion_routes():
    # s > r and s + t >= r + 1
    target = TargetSpec.custom(3, 4, s_bound=4, t_bound=4)
    assert _status(target, 1, 3) is Status.ASYMPTOTICALLY_ENUMERATIVE
    # complete-intersection route: s = index = 6 on r = 7, degree 3
    target = TargetSpec.custom(7, 6, s_bound=6, t_bound=6, ci_degrees=(3,))
    assert _status(target, 1, 7) is Status.ASYMPTOTICALLY_ENUMERATIVE
    # inequality fails: s = index = 7 on r = 9, degree 4
    target = TargetSpec.custom(9, 7, s_bound=7, t_bound=7, ci_degrees=(4,))
    assert _status(target, 1, 9) is Status.UNKNOWN
    # no bounds asserted: nothing to check
    target = TargetSpec.custom(4, 3)
    assert _status(target, 1, 4) is Status.UNKNOWN


def test_not_well_posed_status():
    cert = certify_target(TargetSpec.projective_space(2), 0, 1)
    assert cert.status is Status.NOT_WELL_POSED
    assert "NonIntegerN" in cert.cited_result
    cert = certify_target(TargetSpec.projective_space(1), 5, 1)
    assert cert.status is Status.NOT_WELL_POSED


def test_certify_accepts_problem_directly():
    problem = make_problem(TargetSpec.projective_space(1), 0, 1)
    assert certify(problem).status is Status.ENUMERATIVE


def test_certificates_are_internally_consistent():
    targets = [
        (TargetSpec.projective_space(1), 3, 3),
        (TargetSpec.projective_space(1), 2, 5),
        (TargetSpec.projective_space(2), 3, 4),
        (TargetSpec.projective_space(4), 2, 20),
        (TargetSpec.hypersurface(3, 8), 0, 8),
        (TargetSpec.hypersurface(4, 9), 1, 18),
        (TargetSpec.quadric(4), 3, 4),
        (TargetSpec.custom(3, 4, s_bound=4, t_bound=4), 1, 3),
    ]
    for target, g, d in targets:
        cert = certify_target(target, g, d)
        assert isinstance(cert, Certificate)
        for check in cert.checks:
            assert check.recompute() == check.holds
        if cert.status is Status.ENUMERATIVE:
            assert all(check.holds for check in cert.checks)
        if cert.status is Status.NOT_ENUMERATIVE and cert.geometric_value is not None:
            assert cert.vtev_value != cert.geometric_value


def test_line_grid_statuses_match_formulas():
    line = TargetSpec.projective_space(1)
    for g in range(0, 11):
        for d in range(1, 13):
            status = _status(line, g, d)
            if status is Status.ENUMERATIVE:
                assert d >= g + 1
                assert tev_p1_binomial(g, d) == 2 ** g
            if status is Status.NOT_ENUMERATIVE:
                assert d < g + 1
                assert tev_p1_binomial(g, d) != 2 ** g


def test_very_free_worked_examples():
    report = very_free_search(3, 8, 5)
    assert (report.n, report.d) == (8, 8)
    assert report.vtev_valuation == 0
    assert report.conclusion is True

    report = very_free_search(3, 5, 7)
    assert (report.n, report.d) == (5, 5)
    assert report.conclusion is False  # r = 5 fails r > (e+2)(e-2) = 5

    report = very_free_search(4, 13, 5)
    assert (report.n, report.d) == (12, 13)
    assert report.conclusion is True


def test_very_free_degree_relation_holds():
    for (e, r, p) in ((3, 8, 5), (4, 13, 5), (3, 5, 7), (5, 22, 7)):
        report = very_free_search(e, r, p)
        assert report.d * (r + 2 - e) == (report.n - 1) * r
        assert report.n >= 3 and report.d >= 3


def test_very_free_small_characteristic_fails():
    # p = e = 3: the count is 2^n * 3^k with k >= 1, so v_3 > 0
    report = very_free_search(3, 8, 3)
    assert report.vtev_valuation > 0
    assert report.conclusion is False


def test_very_free_valuation_only_reports():
    # the valuation is 0 exactly when p > e, which is already one of
    # the two conditions, so it never decides the conclusion
    primes = [p for p in range(2, 60) if all(p % q for q in range(2, p))]
    for e in range(3, 12):
        for r in range(2 * e - 3, 2 * e + 40):
            for p in primes:
                report = very_free_search(e, r, p)
                assert (report.vtev_valuation == 0) == (p > e), (e, r, p)
                assert report.conclusion == (r > (e + 2) * (e - 2) and p > e), (e, r, p)


def test_very_free_conclusion_stable_across_large_primes():
    for p in (5, 7, 11, 101):
        assert very_free_search(3, 8, p).conclusion is True


def test_very_free_input_validation():
    with pytest.raises(HypothesisViolation):
        very_free_search(2, 8, 5)
    with pytest.raises(HypothesisViolation):
        very_free_search(3, 8, 6)
    with pytest.raises(NonFano):
        very_free_search(5, 3, 7)
    # r = 1 passes the dimension check, so the index r + 2 - e = 0 decides
    with pytest.raises(NonFano, match="degree 3 hypersurface of dimension 1 is not Fano"):
        very_free_search(3, 1, 5)


def test_very_free_search_finds_the_least_marking_count():
    # every Fano (e, r) has a usable n, and the search returns the least:
    # no smaller n >= 3 gives an integral degree d >= 3
    for e in range(3, 16):
        for r in range(2 * e - 3, 80):
            step = r + 2 - e
            report = very_free_search(e, r, 5)
            usable = [
                n for n in range(3, report.n + 1)
                if (n - 1) * r % step == 0 and (n - 1) * r // step >= 3
            ]
            assert usable == [report.n], (e, r)
            assert report.d == (report.n - 1) * r // step
            assert report.n <= max(3, r + 3 - e)


def test_very_free_search_refuses_where_the_closed_form_does():
    # below r = 2e - 3 no formula backs the genus-0 count, so the search
    # raises the closed form's own HypothesisViolation on every Fano (e, r)
    cases = 0
    for e in range(3, 16):
        for r in range(e - 1, 2 * e - 3):
            target = TargetSpec.hypersurface(e, r)
            d = next(d for d in range(1, 10 * r) if _well_posed(target, 0, d))
            with pytest.raises(HypothesisViolation) as closed_form:
                vtev(make_problem(target, 0, d))
            for p in (2, 5, 101):
                with pytest.raises(HypothesisViolation) as search:
                    very_free_search(e, r, p)
                assert str(search.value) == str(closed_form.value)
                cases += 1
    assert cases == 3 * sum(e - 2 for e in range(3, 16))


def _well_posed(target, g, d):
    try:
        make_problem(target, g, d)
    except WellPosednessError:
        return False
    return True


def test_very_free_search_needs_no_search_at_a_huge_dimension():
    # n and d are read off the target; a search over n would take
    # about r steps, minutes at r = 10^9
    run = subprocess.run(
        [sys.executable, "-m", "tevdeg", "very-free", "--e", "3",
         "--r", "1000000000", "--p", "5", "--json"],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True,
        text=True, timeout=30,
    )
    assert run.returncode == 0, run.stderr
    outputs = json.loads(run.stdout)["outputs"]
    assert (outputs["n"], outputs["d"]) == ("1000000000", "1000000000")


def test_castelnuovo_status_is_the_minimal_classical_degree():
    # the certifier asks n == r + 2; the paper states d = r + gr/(r+1)
    for r in range(2, 9):
        target = TargetSpec.projective_space(r)
        for g in range(31):
            for d in range(1, 151):
                cert = certify_target(target, g, d)
                if cert.status is Status.NOT_WELL_POSED:
                    continue
                minimal = g > 0 and (g * r) % (r + 1) == 0 and d == r + g * r // (r + 1)
                assert (cert.status is Status.NOT_ENUMERATIVE) == minimal, (r, g, d)


# Every certifier branch: the line on both sides of its formula domain,
# P^r at and off the minimal classical degree, hypersurfaces on both
# sides of both bounds (and below the closed form's range), quadrics,
# homogeneous targets, and custom targets with no bounds, a failing
# boundary, s > r, and both outcomes of the complete-intersection test.
PINNED_TARGETS = (
    "p:1 p:2 p:3 p:4 hyp:3:5 hyp:3:8 hyp:4:9 hyp:4:13 hyp:5:6 hyp:3:2 "
    "quadric:3 quadric:6 gp:4:3 gp:6:5:4:3 custom:4:3 custom:3:4:4:4 "
    "custom:7:6:6:6:3 custom:9:7:7:7:4 custom:5:2:3:3:2,3 custom:5:2:1:1"
).split()
# sha256 of the 12 090 JSON records below, recorded before the
# certifier's inequalities were each written once; it moved only when
# very-free began refusing r < 2e - 3, where (e, r) = (3, 2), (4, 3)
# and (5, 5) became HypothesisViolation records at each of the 5 primes
PINNED_SHA256 = "42aa2d561c32351829162c155e93a57e537057c378c4584a3206e799c0186473"


def test_certificate_and_very_free_records_are_pinned(capsys):
    chunks = []
    for target in PINNED_TARGETS:
        main(["certify", "--target", target, "--sweep",
              "--g-max", "14", "--d-max", "40", "--json"])
        chunks.append(capsys.readouterr().out)
    for e in (3, 4, 5):
        for r in (2, 3, 5, 8, 13, 22):
            for p in (2, 3, 5, 7, 101):
                main(["very-free", "--e", str(e), "--r", str(r),
                      "--p", str(p), "--json"])
                chunks.append(capsys.readouterr().out)
    data = "".join(chunks).encode()
    assert data.count(b"\n") == 12090
    assert hashlib.sha256(data).hexdigest() == PINNED_SHA256
