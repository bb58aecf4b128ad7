"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Tolerances are pinned here, not calibrated later.
"""

import functools
import hashlib
import io
import math
import time

import numpy as np
import pytest

from sisi.model import (
    ModelParams,
    SimplexPoint,
    _step,
    apply_V,
    validate_params,
)
from sisi.tensor import apply_qso, build_tensor
from sisi.fixpoints import (
    barycentric_grid,
    fixed_point_set,
    interior_fixed_point,
    interior_quadratic,
)
from sisi.stability import classify_at, classify_lambda1, jacobian
from sisi.conjugacy import conjugacy_map, verify_conjugacy
from sisi.dynamics import (
    _RULES,
    conjecture_scan,
    detect_limit,
    list_regimes,
    verify_proposition,
)

from conftest import random_admissible, random_point


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number:2d} FAIL - {description}")
                raise
            print(f"[acceptance] criterion {number:2d} PASS - {description}")
        return wrapper
    return decorate


@criterion(1, "interior quadratic reproduces 30A^2 - 5A - 1 = 0")
def test_criterion_1_interior_quadratic():
    p = ModelParams(b=0.2, alpha=0.3, beta1=0.6, beta2=0.4, k1=1.0, k2=1.0)
    quad = interior_quadratic(p)
    scale = quad.c2 / 30.0
    assert abs(quad.c1 / -5.0 - scale) <= 1e-12 * abs(scale)
    assert abs(quad.c0 / -1.0 - scale) <= 1e-12 * abs(scale)
    assert abs(quad.positive_root - (5.0 + math.sqrt(145.0)) / 60.0) <= 1e-12


@criterion(2, "figure presets reach their cataloged limits (1e-5, <10s each)")
def test_criterion_2_figure_limits():
    fig2 = ModelParams(0.1, 0.2, 0.5, 0.0, 1.0, 0.3)
    fig4 = ModelParams(0.1, 0.01, 0.8, 0.2, 0.5, 1.2)
    lambda10 = next(fp.point for fp in fixed_point_set(fig2) if fp.label == "lambda_10")
    cases = [
        (ModelParams(0.6, 0.2, 0.5, 0.0, 1.0, 0.3),
         SimplexPoint(0.1, 0.01, 0.2, 0.69), np.array([1.0, 0, 0, 0])),
        (fig2, SimplexPoint(0.3, 0.2, 0.4, 0.1), lambda10),
        (ModelParams(0.6, 0.1, 0.5, 0.01, 1.2, 1.1),
         SimplexPoint(0.2, 0.1, 0.3, 0.4), np.array([1.0, 0, 0, 0])),
        (fig4, SimplexPoint(0.2, 0.4, 0.1, 0.3), interior_fixed_point(fig4).point),
    ]
    assert np.allclose(cases[1][2], [0.6, 2 / 15, 4 / 15, 0.0], atol=1e-15)
    for p, s0, target in cases:
        start = time.monotonic()
        report = detect_limit(s0, p, max_iter=10 ** 6)
        elapsed = time.monotonic() - start
        assert report.converged and report.iterations <= 10 ** 6
        assert np.max(np.abs(report.limit - target)) <= 1e-5
        assert elapsed < 10.0


@criterion(3, "disease-free classification table matches on a 20^3 grid")
def test_criterion_3_classification_table():
    bs = np.linspace(0.0, 1.0, 20)
    alphas = np.linspace(0.0, 1.0, 20)
    bks = np.linspace(0.0, 2.0, 20)
    lam1 = SimplexPoint(1, 0, 0, 0)
    checked_rule = 0
    checked_generic = 0
    for b in bs:
        for al in alphas:
            for bk in bks:
                p = ModelParams(b, al, bk, 0.0, 1.0, 0.0)
                if not validate_params(p).ok:
                    continue
                got = classify_lambda1(p).classification
                gap = bk - (b + al)
                if abs(b) <= 1e-12 or abs(gap) <= 1e-12:
                    expected = "nonhyperbolic"
                elif gap < 0.0:
                    expected = "attracting"
                else:
                    expected = "saddle"
                assert got == expected, (b, al, bk, got, expected)
                checked_rule += 1
                if expected != "nonhyperbolic":
                    generic = classify_at(lam1, p).classification
                    assert generic == expected, (b, al, bk, generic, expected)
                    checked_generic += 1
    assert checked_rule > 2000 and checked_generic > 1500


@criterion(4, "tensor form agrees with the direct operator to 1e-12")
def test_criterion_4_qso_equivalence():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        p = random_admissible(rng)
        t = build_tensor(p)
        assert np.max(np.abs(t.row_sums() - 1.0)) <= 1e-12
        for _ in range(10):
            s = SimplexPoint.from_array(random_point(rng))
            via_tensor = apply_qso(t, s).as_array()
            direct = apply_V(s, p).as_array()
            assert np.max(np.abs(via_tensor - direct)) <= 1e-12


@criterion(5, "operator preserves the simplex on random draws")
def test_criterion_5_simplex_invariance():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        p = random_admissible(rng)
        for _ in range(10):
            out = apply_V(SimplexPoint.from_array(random_point(rng)), p).as_array()
            assert np.all(out >= -1e-12)
            assert abs(out.sum() - 1.0) <= 1e-12


@criterion(6, "logistic conjugacy identity at 1e-12 with mu in (1,3)")
def test_criterion_6_conjugacy():
    rng = np.random.default_rng(6)
    for _ in range(100):
        b = rng.uniform(0.01, 1.0)
        bk = rng.uniform(b + 0.01, 2.0)
        p = ModelParams(b, 0.0, bk, 0.0, 1.0, 0.0)
        assert verify_conjugacy(p, grid_size=10_000) <= 1e-12
        cm = conjugacy_map(p)
        assert 1.0 < cm.mu < 3.0


@criterion(7, "limit-rule suites: 100 regime-conforming trials per proven rule")
def test_criterion_7_proposition_suites():
    regimes = [rule.regime for rule in _RULES if not rule.conjectural]
    assert list(list_regimes()) == regimes
    for regime in regimes:
        report = verify_proposition(regime, trials=100, seed=17, tol=1e-6)
        assert report.passed, str(report)
        assert report.passes == 100


@criterion(8, "near-fixed grid points sit within one cell of the catalog")
def test_criterion_8_grid_sweep():
    p = ModelParams(0.1, 0.2, 0.5, 0.0, 1.0, 0.3)
    grid = barycentric_grid(50)
    image = np.stack(_step(*grid.T, *p.as_tuple()), axis=1)
    residuals = np.max(np.abs(image - grid), axis=1)
    near_fixed = grid[residuals <= 1e-8]
    assert near_fixed.shape[0] >= 1
    anchors = [fp.point for fp in fixed_point_set(p) if fp.point is not None]
    for pt in near_fixed:
        assert min(np.max(np.abs(pt - a)) for a in anchors) <= 1.0 / 50.0


# sha256 of the seed-9 JSONL report per conjecture
_SCAN_SHA256 = {
    1: "7b4d877fcec7cc460ddbd12fda11b5710016179048dccafbd73ac51eb712e2a5",
    2: "e816be7c412ed82cbdd4c2109a664101b5fe15045e71d64b58417f6f26f04e8d",
}


def _check_conjecture_scans(parts):
    # one scan per conjecture on the path ``parts`` forces; the pinned JSONL
    # bytes hold every column, so every path and every run give one report
    for conj in (1, 2):
        report = conjecture_scan(conj, seed=9)
        buf = io.StringIO()
        report.to_jsonl(buf)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == _SCAN_SHA256[conj]
        assert report.verdict.shape == (5 ** 6, 5)
        assert sum(report.summary.values()) == 5 ** 6 * 5
        for verdict, count in report.summary.items():
            assert np.count_nonzero(report.verdict == verdict) == count
        # every verdict is justified by its stored limit data
        verdict, distance, step = report.verdict, report.distance, report.final_step
        # only claimed rows are iterated: a no-claim row is left as an
        # inadmissible one, and an iterated row took at least one step
        unclaimed = np.isin(verdict, ["inadmissible", "no-claim"])
        assert np.all(np.isnan(report.limit[unclaimed]))
        assert np.all(np.isnan(step[unclaimed]))
        assert np.array_equal(report.iterations == 0, unclaimed)
        assert np.all(report.target[verdict == "no-claim"] == None)  # noqa: E711
        assert np.all(distance[verdict == "match"] <= report.match_tol)
        counterexample = verdict == "counterexample"
        assert np.all(distance[counterexample] > report.match_tol)
        assert np.all(step[counterexample] <= report.tol_step)
        # inconclusive: budget ran out before the verdict was clear
        inconclusive = ~np.isin(verdict, ["inadmissible", "no-claim", "match",
                                          "counterexample"])
        assert np.all(verdict[inconclusive] == "inconclusive")
        assert np.all(step[inconclusive] > report.tol_step)
        assert np.all(distance[inconclusive] > report.match_tol)
        assert np.all(report.iterations[inconclusive] == report.max_iter)
        # either outcome is valid; it must simply be reported, not suppressed
        print(f"[acceptance]   scan {conj}: {report.summary} "
              f"counterexamples={report.summary['counterexample']}")
    # one fork for the kernel and one for the writer, per conjecture
    assert len(parts.forked) == 4 * (parts.n - 1)


@criterion(9, "conjecture scans are deterministic and verdict-justified")
def test_criterion_9_conjecture_scans(one_scan_part):
    _check_conjecture_scans(one_scan_part)


# the one-process case is criterion 9: split over two processes, every
# criterion-9 assertion holds and the scans hit the same pinned digests
@pytest.mark.parametrize("scan_parts", [2], ids=["two-parts"], indirect=True)
def test_conjecture_scans_same_bytes_in_one_and_two_parts(scan_parts):
    _check_conjecture_scans(scan_parts)


@criterion(10, "Jacobian matches central differences (1e-6 step, 1e-5 tol)")
def test_criterion_10_jacobian_fd():
    rng = np.random.default_rng(10)

    def raw(arr, p):
        x, u, y, v = arr
        b, al, b1, b2, k1, k2 = p.as_tuple()
        A = k1 * u + k2 * v
        return np.array([
            x + b - b * x - b1 * A * x,
            u - b * u + b1 * A * x - al * u,
            y - b * y + al * u - b2 * A * y,
            v - b * v + b2 * A * y,
        ])

    h = 1e-6
    for _ in range(100):
        p = random_admissible(rng)
        s = SimplexPoint.from_array(random_point(rng))
        J = jacobian(s, p)
        base = s.as_array()
        fd = np.empty((4, 4))
        for j in range(4):
            plus, minus = base.copy(), base.copy()
            plus[j] += h
            minus[j] -= h
            fd[:, j] = (raw(plus, p) - raw(minus, p)) / (2 * h)
        assert np.max(np.abs(J - fd)) <= 1e-5
