"""Limit detection, the prediction dispatcher, suites, scans, and curves."""

import collections
import hashlib
import io
import itertools
import json
import math
import os
import re
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import perfbench_workloads, random_admissible, random_point
from sisi import dynamics, model
from sisi.cli import _FIGURES
from sisi.conjugacy import verify_conjugacy
from sisi.model import (LIMIT_TOL, _CONDITIONS, InadmissibleParams, ModelParams,
                        NegativeParameter, SimplexPoint, _step, iterate, validate_params)
from sisi.fixpoints import DegenerateRegime, fixed_point_set, interior_quadratic
from sisi.dynamics import (
    GridSpec,
    LimitReport,
    PredictedLimit,
    RegimeUnsatisfiable,
    ScanReport,
    _batch_limits,
    conjecture_scan,
    default_grid,
    detect_limit,
    equilibrium_curves,
    list_regimes,
    predicted_limit,
    verify_proposition,
)

FIG1 = ModelParams(b=0.6, alpha=0.2, beta1=0.5, beta2=0.0, k1=1.0, k2=0.3)
FIG2 = ModelParams(b=0.1, alpha=0.2, beta1=0.5, beta2=0.0, k1=1.0, k2=0.3)
WORKED = ModelParams(b=0.2, alpha=0.3, beta1=0.6, beta2=0.4, k1=1.0, k2=1.0)
# One small grid with every verdict; (0.9, 0.2) cells are inadmissible.
SMALL_GRID = GridSpec(
    b=(0.1, 0.6, 0.9), alpha=(0.2, 0.5), beta1=(0.5,), beta2=(0.0, 0.1),
    k1=(1.0,), k2=(0.3,),
)


# The small grid and two dyadic 3**6 grids, one per conjecture, with cells
# on beta1*k1 = b + alpha; conj1's has cells with beta1 = 0 or k2 = 0, where
# a proven rule comes before the conjecture's.
CLAIM_GRIDS = pytest.mark.parametrize("conjecture,grid", [
    (1, SMALL_GRID),
    (1, GridSpec(b=(0.0, 0.25, 0.5), alpha=(0.0, 0.125, 0.25), beta1=(0.0, 0.5, 1.0),
                 beta2=(0.0, 0.25, 0.5), k1=(0.5, 1.0, 1.5), k2=(0.0, 0.5, 1.0))),
    (2, GridSpec(b=(0.125, 0.25, 0.5), alpha=(0.0, 0.125, 0.25), beta1=(0.25, 0.5, 1.0),
                 beta2=(0.0, 0.25, 0.5), k1=(0.5, 0.75, 1.0), k2=(0.5, 1.0, 1.25))),
], ids=["small", "conj1", "conj2"])


# sha256 of the small grid's JSONL report at conjecture 1, n_init 2, seed 5
JSONL_PINS = pytest.mark.parametrize("options,summary,digest", [
    ({"max_iter": 100},
     {"match": 4, "counterexample": 0, "inconclusive": 2, "no-claim": 6,
      "inadmissible": 12},
     "b116c1768266d10cd15a0e31308df1688b1972f1f7f967f90578f37194e1cee0"),
    ({"match_tol": 1e-15},
     {"match": 0, "counterexample": 6, "inconclusive": 0, "no-claim": 6,
      "inadmissible": 12},
     "76f54c13f4526fcea330a726cd6622bd684c7cc853c46c448036d809b1a7a4f8"),
], ids=["max_iter=100", "match_tol=1e-15"])


def non_finite_report() -> ScanReport:
    """A hand-built report with NaN, infinities and -0.0 in every float column,
    and a row of 0 iterations."""
    nan, inf = math.nan, math.inf
    return ScanReport(
        conjecture=2, seed=1,
        inits=np.array([[0.25, 0.25, 0.25, 0.25], [1.0, -0.0, 0.0, 0.0]]),
        cells=np.array([[0.1, 0.2, 0.5, 0.0, 1.0, 0.3], [inf, -0.0, nan, 0.5, 1e-300, 2.0]]),
        verdict=np.array([["match", "inconclusive"], ["inadmissible", "counterexample"]],
                         dtype=object),
        target=np.array([["lambda_1", None], [None, "lambda_11"]], dtype=object),
        distance=np.array([[-0.0, inf], [nan, -inf]]),
        iterations=np.array([[16, 20_000], [0, 5]]),
        final_step=np.array([[inf, -inf], [nan, -0.0]]),
        limit=np.array([[[1.0, -0.0, nan, 5e-324], [inf, -inf, 0.1, 1 / 3]],
                        [[nan, nan, nan, nan], [-0.0, inf, nan, 2.0]]]),
        summary={"match": 1, "inconclusive": 1, "inadmissible": 1, "counterexample": 1,
                 "no-claim": 0},
        max_iter=20_000, tol_step=1e-11, match_tol=1e-4,
    )


def jsonl_by_json_dumps(report) -> list[str]:
    """The scan report written one ``json.dumps`` per row, as a reference."""
    n_init = report.inits.shape[0]
    header = {
        "conjecture": report.conjecture,
        "seed": report.seed,
        "n_cells": int(report.cells.shape[0]),
        "n_init": n_init,
        "max_iter": report.max_iter,
        "tol_step": report.tol_step,
        "match_tol": report.match_tol,
        "summary": report.summary,
    }
    lines = [json.dumps(header, sort_keys=True)]
    params, points = report.cells.tolist(), report.inits.tolist()
    rows = zip(report.verdict.ravel().tolist(), report.target.ravel().tolist(),
               report.distance.ravel().tolist(), report.iterations.ravel().tolist(),
               report.final_step.ravel().tolist(), report.limit.reshape(-1, 4).tolist())
    for row, (verdict, target, distance, iterations, final_step, limit) in enumerate(rows):
        cell, init = divmod(row, n_init)
        payload = {
            "cell": cell,
            "init": init,
            "params": params[cell],
            "init_point": points[init],
            "verdict": verdict,
            "target": target,
            "distance": distance,
            "iterations": iterations,
            "final_step": final_step,
            "limit": None if iterations == 0 else limit,
        }
        lines.append(json.dumps(payload, sort_keys=True))
    return lines


def scalar_limit(rates, state, max_iter, tol_step, target, prox_tol):
    """One row of the batch kernel, stepped alone with the same checks.

    Checks every 16 steps (and after the last); returns (state, iterations,
    final step, stop rule).
    """
    done, step = 0, math.inf
    while done < max_iter:
        span = min(16, max_iter - done)
        for _ in range(span):
            prev, state = state, _step(*state, *rates)
        done += span
        step = max(abs(a - c) for a, c in zip(state, prev))
        if step <= tol_step:
            return state, done, step, "step"
        if max(abs(a - t) for a, t in zip(state, target)) <= prox_tol:
            return state, done, step, "proximity"
    return state, done, step, "budget"


def detect_limit_every_step(s0, p, max_iter=1_000_000, tol_step=1e-12, tol_fix=1e-10,
                            predicted=None, match_tol=LIMIT_TOL):
    """detect_limit checking proximity to every anchor on every step, as a reference."""
    anchors = [(fp.label, fp.point) for fp in fixed_point_set(p) if fp.point is not None]
    rates = p.as_tuple()
    cur = s0.as_tuple()
    applications = 0
    converged = False
    while True:
        nxt = _step(*cur, *rates)
        step = max(abs(nxt[0] - cur[0]), abs(nxt[1] - cur[1]),
                   abs(nxt[2] - cur[2]), abs(nxt[3] - cur[3]))
        if step <= tol_step:
            converged = True
            break
        applications += 1
        cur = nxt
        if any(max(abs(cur[0] - a[0]), abs(cur[1] - a[1]),
                   abs(cur[2] - a[2]), abs(cur[3] - a[3])) <= tol_fix
               for _, a in anchors):
            converged = True
            break
        if applications >= max_iter:
            break
    limit = np.array(cur) if converged else None
    snapped = None
    if converged and anchors:
        dist, label, a = min(((max(abs(cur[i] - a[i]) for i in range(4)), label, a)
                              for label, a in anchors), key=lambda t: t[0])
        if dist <= tol_fix:
            snapped, limit = label, a.copy()
    match = deviation = None
    if predicted is not None and converged:
        match, deviation = predicted.check(limit, match_tol)
    return LimitReport(converged, limit, applications, step, snapped, predicted,
                       match, deviation)


def report_bits(report):
    """Every field of a LimitReport, floats and arrays as their bits."""
    return (report.converged, report.iterations, float(report.final_step).hex(),
            None if report.limit is None else report.limit.tobytes(), report.snapped,
            report.match, None if report.deviation is None else float(report.deviation).hex())


def assert_same_as_every_step(s0, p, **options):
    pred = predicted_limit(s0, p)
    got = detect_limit(s0, p, predicted=pred, **options)
    want = detect_limit_every_step(s0, p, predicted=pred, **options)
    assert report_bits(got) == report_bits(want), (p, s0, options)
    return got


# Dyadic rates, so that products such as beta1*k1 = b + alpha are exact.
DYADIC = st.sampled_from((0.0, 0.125, 0.25, 0.5, 0.75, 1.0))
WEIGHT = st.integers(0, 8)


class TestProximitySkip:
    """detect_limit skips the proximity check only where it cannot fire."""

    STARTS = ((0.25, 0.25, 0.25, 0.25), (0.7, 0.1, 0.1, 0.1), (0.05, 0.05, 0.3, 0.6))

    @pytest.mark.parametrize("figure", sorted(_FIGURES))
    def test_figures_equal_every_step_check(self, figure):
        rates, init, _ = _FIGURES[figure]
        p = ModelParams(*rates)
        starts = self.STARTS if init is None else (init, *self.STARTS)
        for start in starts:
            assert_same_as_every_step(SimplexPoint(*start), p)

    def test_sampling_box_equals_every_step_check(self):
        rng = np.random.default_rng(6)
        tols = (0.0, 1e-10, 1e-6, 1e-3)
        for i in range(1_000):
            p = random_admissible(rng)
            s0 = SimplexPoint.from_array(random_point(rng))
            assert_same_as_every_step(s0, p, max_iter=5_000, tol_fix=tols[i % 4])

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(rates=st.tuples(DYADIC, DYADIC, DYADIC, DYADIC, DYADIC, DYADIC),
           weights=st.tuples(WEIGHT, WEIGHT, WEIGHT, WEIGHT).filter(any),
           tol_fix=st.sampled_from((0.0, 1e-10, 1e-6, 1e-3)))
    @example(rates=(0.0, 0.25, 0.5, 0.0, 1.0, 0.5), weights=(1, 1, 1, 1), tol_fix=1e-6)
    @example(rates=(0.25, 0.25, 0.5, 0.0, 1.0, 0.5), weights=(1, 2, 3, 4), tol_fix=1e-3)
    @example(rates=(0.25, 0.25, 0.5, 0.25, 1.0, 0.5), weights=(4, 3, 2, 1), tol_fix=0.0)
    def test_property_equals_every_step_check(self, rates, weights, tol_fix):
        # the examples pin b = 0 and cells on beta1*k1 = b + alpha
        p = ModelParams(*rates)
        if not p.admissible:
            return
        total = sum(weights)
        s0 = SimplexPoint(*(w / total for w in weights))
        assert_same_as_every_step(s0, p, max_iter=3_000, tol_fix=tol_fix)

    def test_extreme_rates_equal_every_step_check(self):
        # detect_limit writes model._step out inline; rates whose products
        # are subnormal or underflow, and b = 0, are where a reordered
        # operation would round differently.  On 13 tuples (39 cases) both
        # sides raise the catalog's ArithmeticError, with the same message.
        def outcome(detect, s0, p, pred):
            try:
                return report_bits(detect(s0, p, max_iter=300, predicted=pred))
            except ArithmeticError as exc:
                return str(exc)

        def admissible(axis, every):
            cells = (p for rates in itertools.product(axis, repeat=6)
                     if (p := ModelParams(*rates)).admissible)
            return list(itertools.islice(cells, 0, None, every))

        grids = (admissible((0.0, 0.5, 1.0, 2.0, 1e-160, 1e-200), 40),
                 admissible((0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 1e-160), 100))
        assert [len(g) for g in grids] == [514, 519]
        cases = [(SimplexPoint(*start), p) for grid in grids for p in grid
                 for start in self.STARTS]
        # last, a state frozen by float resolution: u, y and v never move
        cases.append((SimplexPoint(0.7, 0.1, 0.1, 0.1),
                       ModelParams(1e-200, 1e-200, 2.0, 0.0, 1e-160, 0.5)))
        raised = 0
        for s0, p in cases:
            pred = predicted_limit(s0, p)
            got = outcome(detect_limit, s0, p, pred)
            assert got == outcome(detect_limit_every_step, s0, p, pred), (p, s0)
            raised += isinstance(got, str)
        assert raised == 39
        assert got[:2] == (True, 238)

    @pytest.mark.parametrize("start", [(0.1, 0.3, 0.2, 0.4), (0.2, 0.3, 0.1, 0.4),
                                       (0.05, 0.9, 0.05, 0.0)])
    def test_distance_falling_by_one_step_per_step(self, start):
        # beta1 = beta2 = alpha = 0, b > 0: every gap to lambda_1 shrinks by
        # the factor 1 - b, so the distance 1 - x falls by exactly one step
        # per step and the bound on it is tight
        p = ModelParams(0.25, 0.0, 0.0, 0.0, 1.0, 0.5)
        s0 = SimplexPoint(*start)
        report = assert_same_as_every_step(s0, p, tol_fix=1e-3)
        states = iterate(s0, p, report.iterations).states.tolist()
        gaps = [1.0 - x for x, *_ in states]
        steps = [max(abs(a - c) for a, c in zip(nxt, cur))
                 for cur, nxt in zip(states, states[1:])]
        assert all(abs((g - h) - d) <= 1e-15 for g, h, d in zip(gaps, gaps[1:], steps))
        assert report.snapped == "lambda_1"
        assert gaps[-1] <= 1e-3 < gaps[-2]
        # a tolerance equal to the distance at step n, as the check computes
        # it, must stop the run at step n: rounding may not hide the hit
        for n, state in enumerate(states[1:], start=1):
            tol = max(abs(c - a) for c, a in zip(state, (1.0, 0.0, 0.0, 0.0)))
            assert assert_same_as_every_step(s0, p, tol_fix=tol).iterations == n


class TestStepLoop:
    """detect_limit's comparison-based step equals max(abs(...)) bit for bit
    where the two could part: zero moves, exact zeros, ties and budgets."""

    RATES = (FIG1, FIG2, WORKED, ModelParams(0.25, 0.25, 0.5, 0.0, 1.0, 0.5))

    @pytest.mark.parametrize("p,start", [
        (FIG1, (1.0, 0.0, 0.0, 0.0)),
        (ModelParams(0.0, 0.0, 0.7, 0.4, 0.0, 0.0), (0.3, 0.2, 0.4, 0.1)),
        (ModelParams(0.0, 0.0, 0.0, 0.0, 1.0, 0.5), (0.0, 0.0, 1.0, 0.0)),
    ], ids=["lambda_1", "no-infectivity", "identity"])
    def test_fixed_start_has_positive_zero_step(self, p, start):
        report = assert_same_as_every_step(SimplexPoint(*start), p)
        assert report.converged and report.iterations == 0
        assert report.final_step.hex() == "0x0.0p+0"  # never -0.0

    @pytest.mark.parametrize("start", [(0.5, 0.0, 0.5, 0.0), (0.0, 0.5, 0.0, 0.5),
                                       (0.0, 0.0, 0.0, 1.0), (0.0, 1.0, 0.0, 0.0),
                                       (0.25, 0.0, 0.0, 0.75)])
    def test_exact_zero_coordinates(self, start):
        for p in self.RATES:
            for max_iter in (1, 2, 50, 5_000):
                assert_same_as_every_step(SimplexPoint(*start), p, max_iter=max_iter)

    def test_one_step_budget(self):
        for p in self.RATES:
            for start in TestProximitySkip.STARTS:
                report = assert_same_as_every_step(SimplexPoint(*start), p, max_iter=1)
                assert report.iterations <= 1

    def test_tol_step_equal_to_a_computed_step(self):
        # the step rule is step <= tol_step; at a tie it must fire
        s0 = SimplexPoint(0.3, 0.2, 0.4, 0.1)
        for p in self.RATES:
            report = detect_limit(s0, p, max_iter=40)
            states = iterate(s0, p, report.iterations).states.tolist()
            steps = [max(abs(a - c) for a, c in zip(nxt, cur))
                     for cur, nxt in zip(states, states[1:])]
            for n, step in enumerate(steps):
                report = assert_same_as_every_step(s0, p, tol_step=step)
                assert report.converged and report.iterations <= n
                assert report.final_step <= step

    def test_budget_runs_out(self):
        # FIG2 reaches lambda_10 geometrically; WORKED's interior point too
        for p in (FIG2, WORKED):
            for max_iter in (3, 17, 200):
                report = assert_same_as_every_step(SimplexPoint(0.3, 0.2, 0.4, 0.1), p,
                                                   max_iter=max_iter)
                assert not report.converged and report.iterations == max_iter
                assert report.final_step > 0.0


class TestDetectLimit:
    def test_fixed_start_converges_immediately(self):
        report = detect_limit(SimplexPoint(1, 0, 0, 0), FIG1)
        assert report.converged and report.iterations == 0
        assert report.snapped == "lambda_1"

    def test_reference_disease_free_limit(self):
        report = detect_limit(SimplexPoint(0.1, 0.01, 0.2, 0.69), FIG1)
        assert report.converged and report.snapped == "lambda_1"

    def test_reference_boundary_limit(self):
        report = detect_limit(SimplexPoint(0.3, 0.2, 0.4, 0.1), FIG2)
        assert report.converged and report.snapped == "lambda_10"
        assert np.max(np.abs(report.limit - [0.6, 2 / 15, 4 / 15, 0])) <= 1e-5

    def test_honest_nonconvergence(self):
        report = detect_limit(SimplexPoint(0.3, 0.2, 0.4, 0.1), FIG2, max_iter=3)
        assert not report.converged and report.limit is None
        assert report.iterations == 3

    def test_no_snap_for_initial_dependent_limits(self):
        # beta1 = beta2 = 0, b = 0, alpha > 0: the limit (x0, 0, ., v0) is
        # not a cataloged point, so the report converges without snapping
        p = ModelParams(0.0, 0.3, 0.0, 0.0, 1.0, 0.5)
        report = detect_limit(SimplexPoint(0.3, 0.2, 0.4, 0.1), p)
        assert report.converged and report.snapped is None
        assert np.allclose(report.limit, [0.3, 0.0, 0.6, 0.1], atol=1e-9)

    def test_validates_rates_once(self, monkeypatch):
        calls, validate = [], model.validate_params

        def counting(p):
            calls.append(p)
            return validate(p)

        monkeypatch.setattr(model, "validate_params", counting)
        s0 = SimplexPoint(0.3, 0.2, 0.4, 0.1)
        detect_limit(s0, FIG2)
        assert len(calls) == 1

    def test_inadmissible_rates_raise_before_bad_tolerance(self):
        p = ModelParams(0.9, 0.5, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(InadmissibleParams):
            detect_limit(SimplexPoint(1, 0, 0, 0), p, tol_step=math.nan)
        with pytest.raises(ValueError, match="tolerances must be >= 0"):
            detect_limit(SimplexPoint(1, 0, 0, 0), FIG1, tol_fix=-1.0)

    @pytest.mark.parametrize("match_tol", [math.nan, -1.0, math.inf])
    def test_bad_match_tol_raises(self, match_tol):
        # unchecked, a NaN or negative match_tol reported a start on its
        # target as converged=True, deviation=0.0, match=False
        s0 = SimplexPoint(1, 0, 0, 0)
        with pytest.raises(ValueError, match="tolerances must be >= 0"):
            detect_limit(s0, FIG1, predicted=predicted_limit(s0, FIG1), match_tol=match_tol)

    @pytest.mark.parametrize("max_iter", [math.nan, math.inf, -math.inf, 2.5])
    def test_non_integer_budget_raises_before_stepping(self, max_iter, monkeypatch):
        # unchecked, NaN and inf ran with no budget (nan < 1 is false) and
        # 2.5 reported iterations=3
        monkeypatch.setattr(dynamics, "_step", lambda *args: pytest.fail("stepped"))
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            detect_limit(SimplexPoint(0.3, 0.2, 0.4, 0.1), FIG2, max_iter=max_iter)

    @pytest.mark.parametrize("max_iter", [np.int64(3), True], ids=["int64", "bool"])
    def test_integer_budget_reports_a_plain_int(self, max_iter):
        report = detect_limit(SimplexPoint(0.3, 0.2, 0.4, 0.1), FIG2, max_iter=max_iter)
        assert not report.converged
        assert type(report.iterations) is int and report.iterations == max_iter

    def test_identity_regime_stops_at_zero_iterations(self):
        p = ModelParams(0.0, 0.0, 0.7, 0.4, 0.0, 0.0)  # no infectivity
        report = detect_limit(SimplexPoint(0.3, 0.2, 0.4, 0.1), p)
        assert report.converged and report.iterations == 0
        assert report.final_step == 0.0

    def test_limits_benchmark_reports_are_pinned(self):
        # every field of the LimitReports of the limits benchmark's round 0,
        # seeds 0-2 (predicted_limit + detect_limit per request)
        workloads = perfbench_workloads()
        digest, requests = hashlib.sha256(), 0
        for seed in range(3):
            for rates, point in workloads.limit_inputs(seed, 0):
                _, rep = workloads.limit_request(rates, point)
                fields = (rep.converged, rep.iterations, rep.final_step.hex(), rep.snapped,
                          rep.match, None if rep.deviation is None else rep.deviation.hex(),
                          None if rep.limit is None else rep.limit.tobytes().hex())
                digest.update(repr(fields).encode() + b"\n")
                requests += 1
        assert (requests, digest.hexdigest()) == (
            3_600, "244399c8fcdf661f9e7310457f032735164b2b524bd4ddcecbfa0ce18cdcf8b3")


class TestPredictedLimit:
    def test_no_susceptibility_goes_disease_free(self):
        p = ModelParams(0.3, 0.1, 0.0, 0.0, 1.0, 1.0)
        pred = predicted_limit(SimplexPoint(0.2, 0.3, 0.1, 0.4), p)
        assert pred.regime == "no-susceptibility/b>0"
        assert not pred.conjectural and np.array_equal(pred.target, [1, 0, 0, 0])

    def test_no_turnover_edge_limit_reading(self):
        p = ModelParams(0.0, 0.0, 0.5, 0.5, 1.0, 1.0)
        pred = predicted_limit(SimplexPoint(0.2, 0.3, 0.1, 0.4), p)
        assert pred.regime == "no-turnover/beta1>0,beta2>0"
        assert np.isnan(pred.target[1]) and np.isnan(pred.target[3])
        assert pred.target[0] == 0.0 and pred.target[2] == 0.0
        assert "u-limit" in pred.note

    def test_no_recovery_persistent_target(self):
        p = ModelParams(0.2, 0.0, 0.6, 0.1, 1.0, 0.0)
        pred = predicted_limit(SimplexPoint(0.3, 0.3, 0.2, 0.2), p)
        assert pred.regime == "no-recovery/persistent"
        assert np.allclose(pred.target, [1 / 3, 2 / 3, 0, 0], atol=1e-12)

    def test_conjectural_flags(self):
        pred1 = predicted_limit(SimplexPoint(0.3, 0.2, 0.4, 0.1), FIG2)
        assert pred1.conjectural and pred1.regime.startswith("boundary-conjecture")
        pred2 = predicted_limit(SimplexPoint(0.2, 0.4, 0.1, 0.3),
                                ModelParams(0.1, 0.01, 0.8, 0.2, 0.5, 1.2))
        assert pred2.conjectural and pred2.regime.startswith("interior-conjecture")

    def test_uncovered_corner_returns_none(self):
        # beta2 = 0, alpha = 0, k2 > 0, b > 0: no rule speaks
        p = ModelParams(0.2, 0.0, 0.6, 0.0, 1.0, 0.5)
        assert predicted_limit(SimplexPoint(0.2, 0.3, 0.1, 0.4), p) is None

    def test_interior_conjecture_silent_region_returns_none(self):
        # beta1*k1 <= b+alpha but b(b+alpha) < alpha*beta2*k2
        p = ModelParams(0.02, 0.9, 0.1, 1.0, 1.0, 0.9)
        assert p.admissible
        assert p.beta1 * p.k1 <= p.b + p.alpha
        assert p.b * (p.b + p.alpha) < p.alpha * p.beta2 * p.k2
        assert predicted_limit(SimplexPoint(0.2, 0.3, 0.1, 0.4), p) is None

    # lambda_1, starts fixed for some rates (lambda_3, Lambda_5, Lambda_8, A0 = 0)
    # and moving ones, most with a zero coordinate
    RULE_STARTS = ((1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), (0.5, 0.0, 0.5, 0.0),
                   (0.0, 0.0, 0.5, 0.5), (0.5, 0.5, 0.0, 0.0), (0.0, 0.5, 0.0, 0.5),
                   (0.0, 0.25, 0.75, 0.0), (0.25, 0.25, 0.25, 0.25),
                   (0.125, 0.375, 0.25, 0.25))

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(cells=st.lists(st.tuples(DYADIC, DYADIC, DYADIC, DYADIC, DYADIC, DYADIC),
                          min_size=1, max_size=30))
    @example(cells=[(0.25, 0.25, 0.5, 0.0, 1.0, 0.5), (0.25, 0.25, 0.5, 0.25, 1.0, 0.5),
                    (0.0, 0.25, 0.25, 0.0, 1.0, 0.0), (0.25, 0.0, 0.25, 0.0, 1.0, 0.0)])
    def test_rule_table_on_arrays_equals_dispatch(self, cells):
        # the table on (cells, 1) rate columns against (1, starts) start
        # columns, as the scan evaluates it, row by row against the scalar
        # dispatcher; the example has cells on beta1*k1 = b + alpha, with
        # b = 0, and on the no-recovery threshold beta1*k1 = b.  The scan's
        # targets, on its claimed rows, are checked by
        # test_claims_agree_with_predicted_limit
        cells = np.array([c for c in cells if ModelParams(*c).admissible]).reshape(-1, 6)
        starts = np.array(self.RULE_STARTS)
        with np.errstate(divide="ignore", invalid="ignore"):
            first = dynamics._first_rule(dynamics._inputs(tuple(cells.T[:, :, None]),
                                                          tuple(starts.T[:, None, :])))
        assert first.shape == (len(cells), len(starts))
        for i, rates in enumerate(cells):
            p = ModelParams(*rates)
            for j, start in enumerate(starts):
                pred = predicted_limit(SimplexPoint(*start), p)
                if pred is None:
                    assert first[i, j] == -1, (p, start)
                    continue
                assert dynamics._RULES[first[i, j]].regime == pred.regime, (p, start)

    def test_registry_regimes_are_rules(self):
        regimes = [rule.regime for rule in dynamics._RULES]
        assert len(set(regimes)) == len(regimes)
        proven = tuple(rule.regime for rule in dynamics._RULES if not rule.conjectural)
        assert list_regimes() == proven and len(proven) == 18
        conjectural = [rule.regime for rule in dynamics._RULES if rule.conjectural]
        for name in conjectural + ["no-such-regime"]:
            with pytest.raises(RegimeUnsatisfiable):
                verify_proposition(name, trials=1)

    def test_match_wiring(self):
        pred = predicted_limit(SimplexPoint(0.3, 0.2, 0.4, 0.1), FIG2)
        report = detect_limit(SimplexPoint(0.3, 0.2, 0.4, 0.1), FIG2,
                              predicted=pred)
        assert report.match is True
        assert report.deviation <= 1e-6

    def test_proven_rules_cite_no_conjecture(self):
        # u0 = v0 = 0 with all six rates positive is proven (no infection
        # ever starts) but used to cite the interior-limit conjecture
        pred = predicted_limit(SimplexPoint(0.6, 0, 0.4, 0), WORKED)
        assert pred.regime == "interior-conjecture/u0=v0=0" and not pred.conjectural
        assert "conjecture" not in pred.source
        for rule in dynamics._RULES:
            assert ("conjecture" in rule.source) == rule.conjectural, rule.regime
        report = verify_proposition("interior-conjecture/u0=v0=0", trials=2, seed=0)
        assert report.passed and "conjecture" not in report.description

    def test_root_on_floats_has_the_array_bits(self, rng):
        # the largest interior root of one rate set in Python floats against
        # the same rates as array columns (np.sqrt, np.fmax): the dyadic
        # grid (double roots, c2 = 0, disc < 0) and box draws
        dyadic = (0.0, 0.125, 0.25, 0.5, 0.75, 1.0)
        draws = [random_admissible(rng).as_tuple() for _ in range(2000)]
        cells = np.array([c for c in itertools.chain(itertools.product(dyadic, repeat=6), draws)
                          if ModelParams(*c).admissible])
        start = (0.25, 0.25, 0.25, 0.25)
        columns = dynamics._inputs(tuple(cells.T), start).root
        for rates, expected in zip(cells.tolist(), columns.tolist()):
            got = dynamics._inputs(tuple(rates), start).root
            assert type(got) in (float, np.float64), rates
            assert (math.isnan(got) and math.isnan(expected)
                    or float(got).hex() == expected.hex()), rates

    def test_lambda10_target_where_its_closed_form_underflows(self):
        # beta1*k1*(b + alpha) underflows to 0 in lambda_10's closed form;
        # the target takes the catalog's fallback, to the byte
        p = ModelParams(1e-200, 1e-200, 0.5, 0.0, 1e-160, 0.5)
        pred = predicted_limit(SimplexPoint(0.4, 0.3, 0.2, 0.1), p)
        assert pred.regime == "boundary-conjecture/beta1k1>b+alpha"
        lambda10 = [fp.point for fp in fixed_point_set(p) if fp.label == "lambda_10"]
        assert len(lambda10) == 1 and pred.target.tobytes() == lambda10[0].tobytes()
        assert np.allclose(pred.target, [4e-40, 0.5, 0.5, 0.0], rtol=1e-12, atol=0.0)


class TestPinnedDeviation:
    @staticmethod
    def numpy_form(target, limit):
        mask = ~np.isnan(target)
        return float(np.max(np.abs(limit[mask] - target[mask])))

    def test_equals_numpy_form_on_every_rule_target(self):
        # the targets each rule gives on draws where it is the first that
        # holds (free coordinates NaN), against limits off, on and beside them
        rng = np.random.default_rng(5)
        shapes = set()
        for index, rule in enumerate(dynamics._RULES):
            rates, starts = dynamics._sample(index, 3, rng)
            for r, s in zip(rates.tolist(), starts.tolist()):
                pred = predicted_limit(SimplexPoint(*s), ModelParams(*r))
                assert pred.regime == rule.regime
                shapes.add(tuple(np.isnan(pred.target).tolist()))
                filled = np.where(np.isnan(pred.target), 0.5, pred.target)
                for limit in (np.array(s), rng.dirichlet(np.ones(4)), filled,
                              filled + 1e-9, np.full(4, math.inf)):
                    got = pred.pinned_deviation(limit)
                    assert type(got) is float
                    assert got.hex() == self.numpy_form(pred.target, limit).hex(), (rule, limit)
        assert len(shapes) > 3  # points and targets with one and two free coordinates

    def test_nan_in_a_pinned_coordinate_gives_nan(self):
        pred = PredictedLimit("r", "s", np.array([np.nan, 0.0, np.nan, 0.5]))
        for limit in ([0.1, np.nan, 0.2, 0.3], [0.1, 0.2, 0.3, np.nan], [np.nan, 9.0, 0.2, np.nan]):
            limit = np.array(limit)
            assert math.isnan(pred.pinned_deviation(limit))
            assert math.isnan(self.numpy_form(pred.target, limit))
        assert pred.pinned_deviation(np.array([np.nan, 0.25, np.nan, 0.25])) == 0.25

    def test_no_pinned_coordinate_gives_zero(self):
        # the convention of the benchmark's checker (max(..., default=0.0));
        # np.max of an empty selection raised ValueError
        pred = PredictedLimit("r", "s", np.full(4, np.nan))
        assert pred.pinned_deviation(np.array([0.1, 0.2, 0.3, 0.4])) == 0.0
        assert pred.check(np.array([0.1, 0.2, 0.3, 0.4]), 0.0) == (True, 0.0)

    def test_limit_of_another_length_raises(self):
        pred = PredictedLimit("r", "s", np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            pred.pinned_deviation(np.array([1.0, 0.0, 0.0]))


# Cases narrower than one rule: (rule, premise on the (n, 6) rates and
# (n, 4) starts of its draws).  Each runs the rule's suite on draws that
# also meet the premise.
_NARROWED = {
    "no-recovery/beta1k1<=b": ("no-recovery/disease-free", lambda r, s: s[:, 1] > 0.0),
    "no-recovery/u0=0": ("no-recovery/disease-free", lambda r, s: s[:, 1] == 0.0),
    "no-susceptibility/alpha=b=0": ("fixed-initial", lambda r, s: np.all(r[:, :4] == 0.0, axis=1)),
    "no-turnover/k1=k2=0": ("fixed-initial",
                            lambda r, s: np.all(r[:, [0, 1, 4, 5]] == 0.0, axis=1)),
    "recovered-susceptibility/alpha=b=0": (
        "no-turnover/beta1=0,beta2>0",
        lambda r, s: np.all(r[:, :3] == 0.0, axis=1) & np.all(r[:, 4:] > 0.0, axis=1)),
}


class TestVerifyProposition:
    @pytest.mark.parametrize("regime", list_regimes() + tuple(_NARROWED))
    def test_regime_agreement(self, regime, monkeypatch):
        if regime in _NARROWED:
            regime, premise = _NARROWED[regime]
            draw = dynamics._draw

            def narrowed(rng, n):
                rates, starts = draw(rng, n)
                keep = premise(rates, starts)
                return rates[keep], starts[keep]
            monkeypatch.setattr(dynamics, "_draw", narrowed)
        report = verify_proposition(regime, trials=30, seed=7)
        assert report.passed, f"{report}\nfirst failure: " + (
            str(report.failures[0]) if report.failures else "")
        assert report.passes == 30

    def test_unknown_regime_rejected(self):
        with pytest.raises(RegimeUnsatisfiable):
            verify_proposition("no-such-regime", trials=1)

    @pytest.mark.parametrize("options", [
        {"trials": 0}, {"trials": -3}, {"tol": math.nan}, {"tol": -1.0},
        {"tol_step": math.inf}, {"max_iter": 0},
    ], ids=lambda options: "{}={}".format(*next(iter(options.items()))))
    def test_bad_trials_budget_or_tolerance_raises_before_sampling(self, options,
                                                                   monkeypatch):
        # unchecked, trials=-3 reported "0/-3 agree ... PASS" and tol=nan
        # reported every trial as a disagreement
        monkeypatch.setattr(dynamics, "_sample", lambda *args: pytest.fail("sampled"))
        with pytest.raises(ValueError, match="trials must be >= 1|max_iter must be >= 1"
                                             "|tolerances must be >= 0"):
            verify_proposition("fixed-initial", **options)

    @pytest.mark.parametrize("max_iter", [math.nan, math.inf, -math.inf, 2.5])
    def test_non_integer_budget_raises_before_sampling(self, max_iter, monkeypatch):
        monkeypatch.setattr(dynamics, "_sample", lambda *args: pytest.fail("sampled"))
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            verify_proposition("fixed-initial", max_iter=max_iter)

    @pytest.mark.parametrize("options,named", [
        ({"trials": math.nan}, "trials must be an integer, got nan"),
        ({"trials": 2.5}, "trials must be an integer, got 2.5"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"seed": 2.5}, "seed must be an integer, got 2.5"),
    ], ids=["trials=nan", "trials=2.5", "seed=-1", "seed=2.5"])
    def test_non_count_trials_or_seed_raises_before_sampling(self, options, named,
                                                              monkeypatch):
        # unchecked, trials=nan drew for seconds and reported "of nan trials",
        # 2.5 died with a TypeError and seed=-1 with numpy's message
        monkeypatch.setattr(dynamics, "_sample", lambda *args: pytest.fail("sampled"))
        with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
            verify_proposition("fixed-initial", **options)

    def test_draws_cap_raises(self, monkeypatch):
        # the rarest rule keeps about 1 draw in 1,000: one batch is too few
        monkeypatch.setattr(dynamics, "_MAX_DRAWS", dynamics._BATCH)
        with pytest.raises(RegimeUnsatisfiable, match="draws"):
            verify_proposition("interior-conjecture/u0=v0=0", trials=100)

    def test_draws_clear_their_rule_and_its_gap(self):
        # kept draws: admissible, first rule the wanted one, floored starts
        # on the simplex, and off the rule's threshold by the margin
        gapped = 0
        for regime, index in dynamics._SUITES.items():
            rule = dynamics._RULES[index]
            rates, starts = dynamics._sample(index, 20, np.random.default_rng(5))
            assert rates.shape == (20, 6) and starts.shape == (20, 4)
            assert all(ModelParams(*r).admissible for r in rates.tolist()), regime
            assert np.all((starts == 0.0) | (starts >= 0.1)), regime
            assert np.all(np.abs(starts.sum(axis=1) - 1.0) <= 1e-12), regime
            a = dynamics._inputs(tuple(rates.T), tuple(starts.T))
            with np.errstate(divide="ignore", invalid="ignore"):
                assert np.all(dynamics._first_rule(a) == index), regime
            if rule._gap is not None:
                gapped += 1
                assert np.all(np.abs(rule._gap(a)) >= 0.02), regime
        assert gapped == 3

    def test_identity_regime_zero_iterations(self):
        report = verify_proposition("fixed-initial", trials=10, seed=3)
        assert report.passed

    def test_edge_limit_u_reading(self):
        # the u-limit strictly exceeds u0 whenever x0 > 0 and A0 > 0:
        # the pinned-coordinate reading (x = y = 0) is what holds, not u = u0
        report = verify_proposition("no-turnover/beta1>0,beta2>0",
                                    trials=30, seed=11)
        assert report.passed
        assert report.extra["u_lift_min"] > 1e-4
        assert report.extra["u_stays_at_u0_count"] == 0


class TestConjectureScan:
    def test_small_grid_cells_and_verdicts(self):
        grid = GridSpec(
            b=(0.6, 0.1), alpha=(0.2,), beta1=(0.5,), beta2=(0.0,),
            k1=(1.0,), k2=(0.3,),
        )
        report = conjecture_scan(1, grid=grid, n_init=3, seed=5)
        assert report.verdict.shape == (2, 3)
        # b=0.6: subcritical -> lambda_1; b=0.1: supercritical -> lambda_10
        assert np.all(report.verdict == "match")
        labels = {report.target[0, 0], report.target[1, 0]}
        assert labels == {"lambda_1", "lambda_10"}

    def test_interior_reference_cells_match(self):
        # the two all-rates-positive reference settings: subcritical cell
        # goes disease-free, supercritical cell reaches the interior point
        grid = GridSpec(
            b=(0.6, 0.1), alpha=(0.1, 0.01), beta1=(0.5, 0.8), beta2=(0.01, 0.2),
            k1=(1.2, 0.5), k2=(1.1, 1.2),
        )
        report = conjecture_scan(2, grid=grid, n_init=2, seed=5)
        cells = report.cells
        fig3 = np.array([0.6, 0.1, 0.5, 0.01, 1.2, 1.1])
        fig4 = np.array([0.1, 0.01, 0.8, 0.2, 0.5, 1.2])
        for ref, label in ((fig3, "lambda_1"), (fig4, "lambda_11")):
            idx = int(np.nonzero(np.all(cells == ref, axis=1))[0][0])
            assert np.all(report.verdict[idx] == "match")
            assert np.all(report.target[idx] == label)

    def test_inadmissible_cells_reported(self):
        grid = GridSpec(
            b=(0.9,), alpha=(0.5,), beta1=(0.5,), beta2=(0.0,),
            k1=(1.0,), k2=(0.3,),
        )
        report = conjecture_scan(1, grid=grid, n_init=2, seed=5)
        assert np.all(report.verdict == "inadmissible")

    def test_admissibility_matches_validate_params_cell_by_cell(self):
        # dyadic axes put many cells exactly on an inequality's bound; one
        # negative, one NaN and one infinite axis value cover the check that
        # every rate is finite and >= 0 (inf*0 is NaN in an inequality)
        grid = GridSpec(
            b=(0.0, 0.25, 0.5, 0.75, math.nan), alpha=(0.0, 0.25, 0.5),
            beta1=(-0.5, 0.0, 1.0, 2.0, math.inf), beta2=(0.0, 0.5, 1.0),
            k1=(0.0, 1.0, 2.0), k2=(0.0, 1.0, 2.0),
        )
        report = conjecture_scan(1, grid=grid, n_init=1, max_iter=1)
        on_bound = 0
        for cell, rates in enumerate(report.cells):
            admitted = report.verdict[cell, 0] != "inadmissible"
            if not (np.all(np.isfinite(rates)) and np.all(rates >= 0.0)):
                with pytest.raises(NegativeParameter):
                    ModelParams(*rates)
                assert not admitted, rates
                continue
            p = ModelParams(*rates)
            assert admitted == validate_params(p).ok, p
            if admitted and any(fn(*rates) == bound for _, fn, bound in _CONDITIONS):
                on_bound += 1
        assert on_bound > 0
        assert 0 < report.summary["inadmissible"] < report.verdict.size

    @CLAIM_GRIDS
    def test_claims_agree_with_predicted_limit(self, conjecture, grid, monkeypatch):
        # the scan's vectorized claim, row by row, against the dispatcher:
        # a claim exactly where the dispatcher's rule is the conjecture's,
        # with the same target bits, and the kernel gets exactly the claimed
        # rows, in (cell, init) order
        calls = []

        def recording(*args, **kwargs):
            calls.append(args)
            return _batch_limits(*args, **kwargs)

        monkeypatch.setattr(dynamics, "_batch_limits", recording)
        report = conjecture_scan(conjecture, grid=grid, n_init=2, seed=3, max_iter=1)
        [(params, states, targets, *_)] = calls
        assert [[col.ndim for col in cols] for cols in (params, states, targets)] == [
            [1] * 6, [1] * 4, [1] * 4]
        source, other = ((dynamics.SRC_BOUNDARY_CONJ, "lambda_10") if conjecture == 1
                         else (dynamics.SRC_INTERIOR_CONJ, "lambda_11"))
        rows = iter(zip(*map(np.column_stack, (params, states, targets))))
        labels, threshold = set(), 0
        for cell, rates in enumerate(report.cells):
            if report.verdict[cell, 0] == "inadmissible":
                continue
            b, al, b1, _, k1, _ = rates
            p = ModelParams(*rates)
            for init, s0 in enumerate(report.inits):
                label = report.target[cell, init]
                pred = predicted_limit(SimplexPoint.from_array(s0), p)
                if label is None:
                    assert pred is None or pred.source != source, (rates, s0)
                    continue
                row_rates, start, target = next(rows)
                assert row_rates.tobytes() == rates.tobytes(), (cell, init)
                assert start.tobytes() == s0.tobytes(), (cell, init)
                labels.add(label)
                threshold += b1 * k1 == b + al
                assert pred is not None and pred.source == source, (rates, s0, pred)
                assert pred.target.tobytes() == target.tobytes(), (rates, s0, pred.regime)
                assert pred.conjectural, (rates, s0, pred.regime)
                if label != other:
                    assert label == "lambda_1" and target.tolist() == [1.0, 0.0, 0.0, 0.0]
        assert next(rows, None) is None
        assert labels == {"lambda_1", other}
        assert threshold > 0 or grid is SMALL_GRID

    @CLAIM_GRIDS
    def test_claimed_rows_equal_iterating_every_admissible_row(self, conjecture, grid):
        # the projection onto the claimed rows: every admissible row through
        # the kernel, the claimed ones toward their target and the rest with a
        # NaN target, gives each claimed row the bits the scan reports, and
        # the same summary; no-claim rows are left as inadmissible ones are
        report = conjecture_scan(conjecture, grid=grid, n_init=2, seed=3, max_iter=2_000)
        admissible = report.verdict != "inadmissible"
        claim = report.target != None  # noqa: E711
        cell_idx, init_idx = np.nonzero(admissible)
        targets = np.array([
            predicted_limit(SimplexPoint.from_array(report.inits[i]),
                            ModelParams(*report.cells[c])).target
            if claim[c, i] else [np.nan] * 4 for c, i in zip(cell_idx, init_idx)])
        final, iters, fstep, distance = _batch_limits(
            tuple(report.cells[cell_idx].T), tuple(report.inits[init_idx].T),
            tuple(targets.T), report.max_iter, report.tol_step,
            min(1e-8, report.match_tol / 10.0))
        final = final.T
        on = claim[admissible]
        assert (distance[on].tobytes()
                == np.max(np.abs(final - targets), axis=1)[on].tobytes())
        assert report.limit[claim].tobytes() == final[on].tobytes()
        assert report.iterations[claim].tolist() == iters[on].tolist()
        assert report.final_step[claim].tobytes() == fstep[on].tobytes()
        assert report.distance[claim].tobytes() == distance[on].tobytes()
        assert np.all(np.isnan(report.limit[~claim]))
        assert np.all(np.isnan(report.final_step[~claim]))
        assert np.all(report.iterations[~claim] == 0)
        verdicts = np.select([~on, distance <= report.match_tol, fstep <= report.tol_step],
                             ["no-claim", "match", "counterexample"], "inconclusive")
        summary = {verdict: int(np.count_nonzero(verdicts == verdict))
                   for verdict in report.summary}
        summary["inadmissible"] = int(np.count_nonzero(~admissible))
        assert report.summary == summary
        assert summary["no-claim"] > 0 and summary["match"] > 0

    def test_grid_without_claims_iterates_no_row(self, monkeypatch):
        # beta2 > 0 everywhere: conjecture 1 claims no row, so the kernel
        # gets 0 rows and every limit is null
        rows = []

        def recording(*args, **kwargs):
            rows.append(len(args[0][0]))
            return _batch_limits(*args, **kwargs)

        monkeypatch.setattr(dynamics, "_batch_limits", recording)
        grid = GridSpec(b=(0.1, 0.6, 0.9), alpha=(0.2, 0.5), beta1=(0.5,), beta2=(0.1, 0.2),
                        k1=(1.0,), k2=(0.3,))
        report = conjecture_scan(1, grid=grid, n_init=2, seed=5)
        assert rows == [0]
        assert report.summary["no-claim"] > 0 and report.summary["inadmissible"] > 0
        assert report.summary["no-claim"] + report.summary["inadmissible"] == report.verdict.size
        assert np.all(report.iterations == 0)
        assert np.all(np.isnan(report.limit)) and np.all(np.isnan(report.distance))
        buf = io.StringIO()
        report.to_jsonl(buf)
        lines = buf.getvalue().splitlines()
        assert lines == jsonl_by_json_dumps(report)
        assert all(json.loads(line)["limit"] is None for line in lines[1:])

    @pytest.mark.parametrize("conjecture", [1, 2])
    def test_empty_axis_gives_empty_report(self, conjecture):
        # no cells: the scan's per-cell arrays must still have a 6-rate axis
        grid = GridSpec(b=(), alpha=(0.2,), beta1=(0.5,), beta2=(0.0,), k1=(1.0,), k2=(0.3,))
        assert grid.cells().shape == (0, 6)
        report = conjecture_scan(conjecture, grid=grid, n_init=2, seed=5)
        assert report.summary == dict.fromkeys(report.summary, 0) and len(report.summary) == 5
        assert report.verdict.shape == (0, 2) and report.limit.shape == (0, 2, 4)
        buf = io.StringIO()
        report.to_jsonl(buf)
        lines = buf.getvalue().splitlines()
        assert lines == jsonl_by_json_dumps(report) and len(lines) == 1
        assert json.loads(lines[0])["n_cells"] == 0

    @pytest.mark.parametrize("options", [
        {"match_tol": math.nan}, {"match_tol": -1.0}, {"match_tol": math.inf},
        {"tol_step": math.nan}, {"tol_step": -1e-11}, {"tol_step": math.inf},
        {"max_iter": 0}, {"max_iter": -5},
    ], ids=lambda options: "{}={}".format(*next(iter(options.items()))))
    def test_bad_budget_or_tolerance_raises(self, options):
        # unchecked, a NaN match_tol left converged rows inconclusive, a
        # negative one made rows that reach lambda_1 counterexamples, and a
        # budget below 1 gave inconclusive rows 0 iterations
        grid = GridSpec(b=(0.6, 0.1), alpha=(0.2,), beta1=(0.5,), beta2=(0.0,),
                        k1=(1.0,), k2=(0.3,))
        with pytest.raises(ValueError, match="max_iter must be >= 1|tolerances must be >= 0"):
            conjecture_scan(1, grid=grid, n_init=2, seed=5, **options)

    @pytest.mark.parametrize("max_iter", [math.nan, math.inf, -math.inf, 2.5])
    def test_non_integer_budget_raises_before_the_rule_table(self, max_iter, monkeypatch):
        # unchecked, 2.5 died with a TypeError in the step kernel after the
        # rule table was built, and inf scanned with no budget
        monkeypatch.setattr(dynamics, "_first_rule", lambda *args: pytest.fail("ruled"))
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            conjecture_scan(1, grid=SMALL_GRID, n_init=2, seed=5, max_iter=max_iter)

    def test_numpy_integer_budget_writes_jsonl(self):
        # unchecked, the header's max_iter stayed an np.int64, which json
        # cannot write
        report = conjecture_scan(1, grid=SMALL_GRID, n_init=2, seed=5, max_iter=np.int64(50))
        buf = io.StringIO()
        report.to_jsonl(buf)
        assert json.loads(buf.getvalue().splitlines()[0])["max_iter"] == 50

    def test_determinism_same_seed(self):
        grid = GridSpec(
            b=(0.1, 0.35), alpha=(0.05, 0.2), beta1=(0.5,), beta2=(0.01, 0.2),
            k1=(0.5, 1.0), k2=(0.6,),
        )
        a = conjecture_scan(2, grid=grid, n_init=2, seed=9)
        c = conjecture_scan(2, grid=grid, n_init=2, seed=9)
        assert a.summary == c.summary
        assert np.array_equal(a.verdict, c.verdict)
        assert np.array_equal(a.target, c.target)
        assert np.array_equal(a.iterations, c.iterations)
        assert np.array_equal(a.limit, c.limit, equal_nan=True)

    def test_needs_an_initial_point(self):
        with pytest.raises(ValueError, match="n_init must be >= 1"):
            conjecture_scan(1, grid=default_grid(1), n_init=0)

    @pytest.mark.parametrize("options,named", [
        ({"n_init": 2.5}, "n_init must be an integer, got 2.5"),
        ({"n_init": math.nan}, "n_init must be an integer, got nan"),
        ({"seed": 2.5}, "seed must be an integer, got 2.5"),
    ], ids=["n_init=2.5", "n_init=nan", "seed=2.5"])
    def test_non_integer_count_raises_before_the_rule_table(self, options, named,
                                                            monkeypatch):
        # unchecked, each died with a TypeError from numpy
        monkeypatch.setattr(dynamics, "_first_rule", lambda *args: pytest.fail("ruled"))
        with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
            conjecture_scan(1, grid=SMALL_GRID, **options)

    @pytest.mark.parametrize("conjecture", [0, 3, [1]])
    def test_unknown_conjecture_raises_before_any_work(self, conjecture, monkeypatch):
        # one check, for the scan with a grid given or not and for the grid
        monkeypatch.setattr(dynamics, "_admissible", lambda *args: pytest.fail("worked"))
        message = "^" + re.escape("conjecture must be 1 (boundary) or 2 (interior)") + "$"
        for call in (lambda: conjecture_scan(conjecture, grid=SMALL_GRID),
                     lambda: conjecture_scan(conjecture),
                     lambda: default_grid(conjecture)):
            with pytest.raises(ValueError, match=message):
                call()

    @JSONL_PINS
    def test_jsonl_bytes_pinned(self, options, summary, digest):
        # every verdict on one small grid, serialized byte for byte
        grid = GridSpec(
            b=(0.1, 0.6, 0.9), alpha=(0.2, 0.5), beta1=(0.5,), beta2=(0.0, 0.1),
            k1=(1.0,), k2=(0.3,),
        )
        report = conjecture_scan(1, grid=grid, n_init=2, seed=5, **options)
        assert report.summary == summary
        buf = io.StringIO()
        report.to_jsonl(buf)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest

    @pytest.mark.parametrize("block", [None, 7])
    def test_jsonl_equals_json_dumps_per_row(self, block, monkeypatch):
        # also with blocks that split cells, and a last block that is short
        if block is not None:
            monkeypatch.setattr(dynamics, "_JSONL_BLOCK", block)
        report = conjecture_scan(1, grid=SMALL_GRID, n_init=2, seed=5, max_iter=100)
        buf = io.StringIO()
        report.to_jsonl(buf)
        assert buf.getvalue().splitlines() == jsonl_by_json_dumps(report)

    def test_jsonl_non_finite_and_signed_zero(self):
        # the scans never write these; json spells them NaN, Infinity, -Infinity
        report = non_finite_report()
        buf = io.StringIO()
        report.to_jsonl(buf)
        lines = buf.getvalue().splitlines()
        assert lines == jsonl_by_json_dumps(report)
        for word in ("NaN", "Infinity", "-Infinity", "-0.0", "null"):
            assert word in buf.getvalue()

    def test_batch_kernel_equals_scalar_steps(self):
        # rows stop on each rule: the step rule (NaN target or wrong target),
        # proximity to lambda_1, and the budget at the threshold
        # beta1*k1 = b + alpha (0.3 + 0.2 == 0.5 exactly); 1203 is not a
        # multiple of 16, so the last chunk is short
        cells = np.vstack([SMALL_GRID.cells(), [[0.3, 0.2, 0.5, 0.0, 1.0, 0.3]]])
        cells = cells[[ModelParams(*c).admissible for c in cells]]
        starts = np.array([[0.25, 0.25, 0.25, 0.25], [0.7, 0.1, 0.1, 0.1]])
        params = np.repeat(cells, 2 * len(starts), axis=0)
        states = np.tile(starts, (2 * len(cells), 1))
        targets = np.tile(np.repeat([[1.0, 0.0, 0.0, 0.0], [np.nan] * 4], len(starts),
                                    axis=0), (len(cells), 1))
        options = dict(max_iter=1203, tol_step=1e-11, prox_tol=1e-8)
        final, iters, fstep, distance = _batch_limits(
            tuple(params.T), tuple(states.T), tuple(targets.T), **options)
        final = final.T
        rules = set()
        for i in range(len(params)):
            target = tuple(targets[i].tolist())
            state, n, step, rule = scalar_limit(tuple(params[i].tolist()), tuple(states[i].tolist()),
                                                target=target, **options)
            assert final[i].tolist() == list(state), i
            assert (iters[i], fstep[i]) == (n, step), i
            gap = max(abs(a - t) for a, t in zip(state, target))
            assert distance[i] == gap or math.isnan(gap) and math.isnan(distance[i]), i
            rules.add(rule)
        assert rules == {"step", "proximity", "budget"}

    @pytest.mark.parametrize("conjecture", [1, 2])
    def test_infinite_rates_raise_no_warning(self, conjecture):
        # inf*0 in the inequalities and the claims of cells that are inadmissible
        axis = lambda value: (0.0, value, math.inf)  # noqa: E731
        grids = [
            GridSpec(b=(0.1,), alpha=(0.2,), beta1=(0.5,), beta2=(0.0,),
                     k1=(1.0, math.inf), k2=(0.3,)),
            GridSpec(b=axis(0.1), alpha=axis(0.2), beta1=axis(0.5), beta2=axis(0.1),
                     k1=axis(1.0), k2=axis(0.3)),
        ]
        for grid in grids:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = conjecture_scan(conjecture, grid=grid, n_init=1, max_iter=1)
            finite = np.all(np.isfinite(report.cells), axis=1)
            assert np.all(report.verdict[~finite] == "inadmissible")

    def test_default_grids_cover_reference_cells(self):
        g1 = default_grid(1)
        cells = g1.cells()
        for ref in ((0.6, 0.2, 0.5, 0.0, 1.0, 0.3), (0.1, 0.2, 0.5, 0.0, 1.0, 0.3)):
            assert np.any(np.all(cells == np.array(ref), axis=1))
        g2 = default_grid(2)
        cells = g2.cells()
        for ref in ((0.6, 0.1, 0.5, 0.01, 1.2, 1.1), (0.1, 0.01, 0.8, 0.2, 0.5, 1.2)):
            assert np.any(np.all(cells == np.array(ref), axis=1))
        assert len(g1.cells()) == 5 ** 6 and len(g2.cells()) == 5 ** 6


class TestScanParts:
    """A scan's kernel and writer in one process or split with a forked
    child: the same bytes, errors raised here, and no child left."""

    @JSONL_PINS
    @pytest.mark.parametrize("block", [4096, 5])
    def test_small_grid_bytes(self, options, summary, digest, block, scan_parts, monkeypatch):
        monkeypatch.setattr(dynamics, "_JSONL_BLOCK", block)
        report = conjecture_scan(1, grid=SMALL_GRID, n_init=2, seed=5, **options)
        assert report.summary == summary
        buf = io.StringIO()
        report.to_jsonl(buf)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest
        # one fork for the kernel, one for the writer
        assert len(scan_parts.forked) == 2 * (scan_parts.n - 1)

    @pytest.mark.parametrize("split_min,forks", [(6, 2), (7, 0)], ids=["at", "one-below"])
    def test_one_split_rule_for_kernel_and_writer(self, split_min, forks, scan_parts,
                                                  monkeypatch):
        # the small grid's 6 claimed rows, all iterated, at _SPLIT_MIN or one
        # below it: the kernel and the writer both fork, or neither does
        monkeypatch.setattr(dynamics, "_SPLIT_MIN", split_min)
        report = conjecture_scan(1, grid=SMALL_GRID, n_init=2, seed=5, max_iter=100)
        report.to_jsonl(io.StringIO())
        assert np.count_nonzero(report.iterations) == np.count_nonzero(report.target) == 6
        assert len(scan_parts.forked) == forks * (scan_parts.n - 1)

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_non_finite_report_bytes(self, block, scan_parts, monkeypatch):
        monkeypatch.setattr(dynamics, "_JSONL_BLOCK", block)
        report = non_finite_report()
        buf = io.StringIO()
        report.to_jsonl(buf)
        assert buf.getvalue().splitlines() == jsonl_by_json_dumps(report)
        assert len(scan_parts.forked) == scan_parts.n - 1

    def test_split_follows_cpus_fork_threads_and_size(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(dynamics, "_SPLIT_MIN", 100)
        assert dynamics._n_parts(100) == 2
        assert dynamics._n_parts(99) == 1
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert dynamics._n_parts(100) == 1
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
        assert dynamics._n_parts(100) == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert dynamics._n_parts(100) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.delattr(os, "fork")
        assert dynamics._n_parts(100) == 1

    def test_items_arrive_in_part_order(self, no_child_left):
        got = []
        dynamics._in_parts(lambda n: range(n), [2, 3], got.append)
        assert got == [0, 1, 0, 1, 2]
        got.clear()
        dynamics._in_parts(lambda n: range(n), [2], got.append)
        assert got == [0, 1]

    def test_child_exception_is_raised_here(self, no_child_left):
        got = []
        with pytest.raises(ZeroDivisionError):
            dynamics._in_parts(lambda x: [1 / x], [1, 0], got.append)
        assert got == [1.0]

    def test_child_without_result(self, no_child_left):
        with pytest.raises(ChildProcessError, match="ended without its result"):
            dynamics._in_parts(lambda x: [os._exit(3) if x else x], [0, 1], [].append)

    @pytest.mark.parametrize("error", [KeyboardInterrupt, BrokenPipeError])
    def test_error_here_kills_the_child(self, error, no_child_left):
        def fail(item):
            raise error

        t0 = time.perf_counter()
        with pytest.raises(error):
            dynamics._in_parts(lambda seconds: [time.sleep(seconds)], [0, 60], fail)
        assert time.perf_counter() - t0 < 30

    def test_writer_stops_on_a_closed_pipe(self, scan_parts, monkeypatch):
        class Closed(io.StringIO):
            def write(self, text):
                if self.tell():
                    raise BrokenPipeError
                return super().write(text)

        monkeypatch.setattr(dynamics, "_JSONL_BLOCK", 5)
        report = conjecture_scan(1, grid=SMALL_GRID, n_init=2, seed=5, max_iter=100)
        with pytest.raises(BrokenPipeError):
            report.to_jsonl(Closed())


class TestRegimeLemmas:
    def test_weighted_balance_stays_nonnegative(self, rng):
        # beta2 = k2 = 0, b, alpha > 0, beta1*k1 <= b + alpha:
        # b*y - alpha*u >= 0 is forward-invariant
        for _ in range(20):
            b = rng.uniform(0.05, 0.5)
            al = rng.uniform(0.05, min(0.9 - b, 0.5))
            b1 = rng.uniform(0.2, 1.0)
            k1 = rng.uniform(0.0, (b + al) / b1)
            p = ModelParams(b, al, b1, 0.0, k1, 0.0)
            if not p.admissible:
                continue
            # choose a start with b*y - alpha*u >= 0
            u0 = rng.uniform(0.0, 0.2)
            y0 = min(0.9 - u0, max(al * u0 / b + 0.05, 0.2))
            x0 = (1.0 - u0 - y0) / 2
            s = np.array([x0, u0, y0, 1.0 - x0 - u0 - y0])
            traj = iterate(SimplexPoint.from_array(s), p, 200)
            balance = b * traj.states[:, 2] - al * traj.states[:, 1]
            assert np.all(balance >= -1e-15)

    def test_exact_decay_of_recovered_mass(self, rng):
        # alpha = k2 = 0: y+v halves exactly at rate (1-b); y is dominated
        for _ in range(20):
            b = rng.uniform(0.05, 0.6)
            p = ModelParams(b, 0.0, rng.uniform(0.2, 1.0), rng.uniform(0.0, 0.5),
                            rng.uniform(0.2, 1.2), 0.0)
            if not p.admissible:
                continue
            s0 = np.array([0.3, 0.3, 0.25, 0.15])
            traj = iterate(SimplexPoint.from_array(s0), p, 400)
            yv = traj.states[:, 2] + traj.states[:, 3]
            n = np.arange(401)
            expected = yv[0] * (1.0 - b) ** n
            scale = np.maximum(expected, 1e-300)
            assert np.max(np.abs(yv - expected) / scale) <= 1e-12
            assert np.all(traj.states[:, 2] <= s0[2] * (1.0 - b) ** n + 1e-15)


class TestEquilibriumCurves:
    def test_supercritical_single_crossing(self):
        cur = equilibrium_curves(WORKED)
        assert cur.sign_changes == 1
        quad = interior_quadratic(WORKED)
        assert cur.crossings[0] == pytest.approx(quad.positive_root, abs=1e-10)

    def test_subcritical_no_crossing(self):
        p = ModelParams(0.6, 0.1, 0.5, 0.01, 1.2, 1.1)
        assert p.b * (p.b + p.alpha) > p.alpha * p.beta2 * p.k2
        cur = equilibrium_curves(p)
        assert cur.sign_changes == 0

    def test_analytic_markers(self):
        cur = equilibrium_curves(WORKED)
        b, al, b1, b2, k1, k2 = WORKED.as_tuple()
        assert cur.value_at_zero == pytest.approx(b * b1 * k1 / (b + al), abs=1e-15)
        assert cur.asymptote == pytest.approx(b1 * (b * k1 + al * k2) / (b + al),
                                              abs=1e-15)
        assert cur.slope_linear == b1
        assert cur.slope_saturating_at_zero == pytest.approx(
            al * b1 * b2 * k2 / (b * (b + al)), abs=1e-15)

    def test_crossing_in_first_interval(self):
        # the positive root 3.8e-4 lies between the first two samples
        p = ModelParams(0.2, 0.3, 0.6, 0.4, (0.5 / 0.6) * (1 + 1e-3), 0.1)
        cur = equilibrium_curves(p)
        root = interior_quadratic(p).positive_root
        assert root < cur.xs[1]
        assert cur.sign_changes == 1
        assert cur.crossings[0] == pytest.approx(root, rel=1e-9)

    def test_crossing_on_a_sample_point(self):
        # gap(A) = 0.25 + 0.5*A - 0.75 vanishes exactly at A = 1, which the
        # alpha = 0 closed form b/(b+alpha)*((beta1*k1 - b - alpha)/beta1)
        # gives exactly; the samples end at max(1, k1, k2, 1.5*A) = 1.5
        p = ModelParams(0.25, 0.0, 0.5, 0.5, 1.5, 1.0)
        cur = equilibrium_curves(p)
        assert cur.sign_changes == 1
        assert cur.crossings == (1.0,)
        assert cur.xs[-1] == 1.5

    def test_close_root_pair_in_first_interval(self):
        # Q's roots 3.31e-5 and 1.463e-3 both lie between the first two
        # samples, where the balance gap keeps one sign; both are crossings,
        # with the bits of the catalog's roots (lambda_11b and lambda_11)
        p = ModelParams(0.0015051537105018609, 0.8837478347967115, 1.2795909684361266,
                        1.2210161756541345, 0.6687186817075643, 0.0027727432485824544)
        cur = equilibrium_curves(p)
        roots = interior_quadratic(p).roots
        assert 3.3e-5 < roots[0] < 3.32e-5 and 1.46e-3 < roots[1] < 1.47e-3
        assert roots[1] < cur.xs[1]
        assert cur.sign_changes == 2
        assert [c.hex() for c in cur.crossings] == [r.hex() for r in roots]
        assert [fp.label for fp in fixed_point_set(p)] == ["lambda_1", "lambda_11", "lambda_11b"]

    @pytest.mark.parametrize("zero", [None, "alpha", "beta2"])
    def test_crossings_match_a_50_digit_oracle(self, rng, zero):
        # the positive roots of Q, solved in 50-digit arithmetic from the
        # rates' exact binary values; with alpha = 0 or beta2 = 0 too
        from mpmath import mp

        checked = 0
        while checked < 200:
            b, al, b1, b2, k1, k2 = random_admissible(rng).as_tuple()
            p = ModelParams(b, 0.0 if zero == "alpha" else al, b1,
                            0.0 if zero == "beta2" else b2, k1, k2)
            if not p.admissible or p.b == 0.0:
                continue
            with mp.workdps(50):
                b, al, b1, b2, k1, k2 = map(mp.mpf, p.as_tuple())
                c2 = (b + al) * b1 * b2
                c1 = (b + al) * b * (b1 + b2) - b1 * b2 * (b * k1 + al * k2)
                c0 = b * b * (b + al - b1 * k1)
                if c2 == 0:
                    exact = [-c0 / c1] if c1 != 0 else []
                else:
                    disc = c1 * c1 - 4 * c2 * c0
                    exact = [] if disc < 0 else [(-c1 + s * mp.sqrt(disc)) / (2 * c2)
                                                 for s in (-1, 1)]
                exact = sorted(r for r in exact if r > 0)
            cur = equilibrium_curves(p)
            assert cur.sign_changes == len(exact), p
            for got, want in zip(cur.crossings, exact):
                assert abs(got - want) <= 1e-12 * want, (p, got, want)
            checked += 1

    def test_crossings_are_the_catalogs_endemic_points(self):
        # the catalog benchmark's round 0, seeds 0-9, b > 0
        workloads = perfbench_workloads()
        inputs = 0
        for seed in range(10):
            for rates, _ in workloads.catalog_inputs(seed, 0):
                p = ModelParams(*rates)
                if p.b == 0.0:
                    continue
                inputs += 1
                crossings = equilibrium_curves(p).crossings
                # the catalog lists its endemic points larger root first
                endemic = [fp for fp in fixed_point_set(p) if fp.label != "lambda_1"][::-1]
                assert len(endemic) == len(crossings), p
                for fp, A in zip(endemic, crossings):
                    _, u, _, v = fp.point.tolist()
                    assert abs(p.k1 * u + p.k2 * v - A) / max(1.0, A) <= 1e-12, (p, fp.label)
        assert inputs == 10_000

    def test_catalog_benchmark_samples_and_sup_norms_are_pinned(self):
        # the xs, linear and saturating bytes of the balance curves where
        # b > 0, and the hex of verify_conjugacy on no-recovery requests,
        # of the catalog benchmark's round 0, seeds 0-2
        workloads = perfbench_workloads()
        digest, counts = hashlib.sha256(), collections.Counter()
        for seed in range(3):
            for rates, no_recovery in workloads.catalog_inputs(seed, 0):
                p = ModelParams(*rates)
                if p.b > 0.0:
                    c = equilibrium_curves(p)
                    digest.update(c.xs.tobytes() + c.linear.tobytes() + c.saturating.tobytes())
                    counts["curves"] += 1
                if no_recovery:
                    digest.update(verify_conjugacy(p, workloads.CONJUGACY_GRID).hex().encode())
                    counts["sup-norms"] += 1
        assert counts == {"curves": 3_000, "sup-norms": 375}
        assert digest.hexdigest() == (
            "724ff5f79c4e29bf646e4422729a5fce88610ec81c233fa2d44da9da7f1b592f")

    def test_degenerate_without_turnover(self):
        with pytest.raises(DegenerateRegime):
            equilibrium_curves(ModelParams(0.0, 0.3, 0.6, 0.4, 1.0, 1.0))

    @pytest.mark.parametrize("rates", [
        (1e-200, 0.0, 0.0, 0.0, 0.0, 0.0),
        (1e-200, 1e-170, 0.5, 0.5, 1.0, 1.0),
    ], ids=["alpha=0", "alpha=1e-170"])
    def test_degenerate_where_turnover_product_underflows(self, rates):
        # b > 0, but b*(b + alpha) rounds to 0: the saturating curve was
        # sampled as 0/0 (NaN, with a RuntimeWarning), and its slope at 0
        # raised a bare ZeroDivisionError
        p = ModelParams(*rates)
        assert p.b > 0.0 and p.b * (p.b + p.alpha) == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateRegime, match=r"^b\*\(b \+ alpha\) = 0 "):
                equilibrium_curves(p)

    def test_tiny_turnover_is_degenerate_or_finite(self):
        # the b in {1e-160, 1e-200} slice of {0, 0.5, 1, 2, 1e-160, 1e-200}^6,
        # admissible tuples only, with numpy warnings as errors:
        # DegenerateRegime exactly where b*(b + alpha) underflows to 0, and
        # elsewhere finite samples and markers, unless the catalog's own
        # root cross-check fails (interior_quadratic raises it too)
        axis = (0.0, 0.5, 1.0, 2.0, 1e-160, 1e-200)
        outcomes = collections.Counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for b in (1e-160, 1e-200):
                for rest in itertools.product(axis, repeat=5):
                    p = ModelParams(b, *rest)
                    if not validate_params(p).ok:
                        continue
                    if b * (b + p.alpha) == 0.0:
                        with pytest.raises(DegenerateRegime):
                            equilibrium_curves(p)
                        outcomes["degenerate"] += 1
                        continue
                    try:
                        cur = equilibrium_curves(p)
                    except ArithmeticError:
                        with pytest.raises(ArithmeticError):
                            interior_quadratic(p)
                        outcomes["cross-check"] += 1
                        continue
                    markers = (cur.value_at_zero, cur.asymptote, cur.slope_linear,
                               cur.slope_saturating_at_zero, *cur.crossings)
                    assert all(map(math.isfinite, markers)), p
                    assert all(np.isfinite(a).all()
                               for a in (cur.xs, cur.linear, cur.saturating)), p
                    outcomes["finite"] += 1
        assert outcomes["degenerate"] == 2931 and outcomes["finite"] > 0, outcomes

    @pytest.mark.parametrize("rates, named", [
        ((-0.1, 0.2, 0.5, 0.3, 1.0, 0.5), "b=-0.1"),
        ((0.1, 0.2, 0.5, 0.3, math.nan, 0.5), "k1=nan"),
        ((0.1, 0.2, 0.5, 0.3, 1.0, -math.inf), "k2=-inf"),
    ], ids=["negative", "nan", "inf"])
    def test_bad_rate_is_named(self, rates, named):
        # a negative b still gives two crossings, so only the rate check
        # refuses it
        with pytest.raises(NegativeParameter, match=named):
            equilibrium_curves(ModelParams(*rates))
