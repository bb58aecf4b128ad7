"""Evolution operator, admissibility, and simplex invariants."""

import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sisi
from sisi import model
from sisi.model import (
    InadmissibleParams,
    ModelParams,
    NegativeParameter,
    SimplexPoint,
    apply_V,
    force_of_infection,
    iterate,
    validate_params,
)

from conftest import random_admissible, random_point

FIG1 = ModelParams(b=0.6, alpha=0.2, beta1=0.5, beta2=0.0, k1=1.0, k2=0.3)
FIG2 = ModelParams(b=0.1, alpha=0.2, beta1=0.5, beta2=0.0, k1=1.0, k2=0.3)


class TestValidateParams:
    def test_report_is_computed_once_per_params(self):
        p = ModelParams(0.2, 0.3, 0.6, 0.4, 1.0, 1.0)
        assert validate_params(p) is validate_params(p)
        assert validate_params(ModelParams(*p.as_tuple())) is not validate_params(p)

    def test_memo_stores_values_not_exceptions(self):
        calls = []

        @model._per_params
        def flaky(p):
            calls.append(p)
            if len(calls) == 1:
                raise ArithmeticError("first call fails")
            return object()

        p = ModelParams(0.2, 0.3, 0.6, 0.4, 1.0, 1.0)
        with pytest.raises(ArithmeticError):
            flaky(p)
        value = flaky(p)
        assert flaky(p) is value and len(calls) == 2
        assert flaky(ModelParams(*p.as_tuple())) is not value and len(calls) == 3

    def test_rejected_rates_raise_every_time(self):
        # nothing about rejected rates is memoized: no instance holding
        # them exists, made directly or from an admissible one
        p = ModelParams(0.2, 0.3, 0.6, 0.4, 1.0, 1.0)
        for _ in range(2):
            with pytest.raises(NegativeParameter):
                ModelParams(0.2, -0.1, 0.6, 0.4, 1.0, 1.0)
            with pytest.raises(NegativeParameter):
                dataclasses.replace(p, alpha=-0.1)
            assert p.admissible

    def test_reference_rates_admissible(self):
        assert validate_params(FIG1).ok
        assert FIG1.admissible

    def test_all_zero_admissible(self):
        assert validate_params(ModelParams(0, 0, 0, 0, 0, 0)).ok

    def test_turnover_plus_recovery_bound(self):
        report = validate_params(ModelParams(0.9, 0.5, 0, 0, 0, 0))
        names = [v.condition for v in report.violations]
        assert "alpha + b <= 1" in names

    def test_negative_rate_is_distinct_error(self):
        with pytest.raises(NegativeParameter):
            validate_params(ModelParams(-0.1, 0, 0, 0, 0, 0))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rate_is_malformed(self, value):
        # inf*0 and NaN compare false against every bound, so no inequality
        # can catch these; the rate check must
        with pytest.raises(NegativeParameter, match="finite"):
            ModelParams(0.1, 0.1, value, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("value", [-0.1, math.nan, math.inf, -math.inf],
                             ids=["negative", "nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", model._FIELDS)
    def test_bad_rate_is_named_on_construction(self, field, value):
        p = ModelParams(0.2, 0.3, 0.6, 0.4, 1.0, 1.0)
        message = f"^{re.escape(f'rate(s) must be finite and >= 0: {field}={value!r}')}$"
        with pytest.raises(NegativeParameter, match=message):
            ModelParams(**{**dataclasses.asdict(p), field: value})
        with pytest.raises(NegativeParameter, match=message):
            dataclasses.replace(p, **{field: value})

    def test_every_bad_rate_is_named(self):
        with pytest.raises(NegativeParameter,
                           match=r"^rate\(s\) must be finite and >= 0: b=-0.5, beta1=nan$"):
            ModelParams(-0.5, 0.0, math.nan, 0.0, 0.0, 0.0)

    def test_rates_are_stored_as_given(self):
        # checked, not coerced: an int stays an int, -0.0 keeps its sign
        p = ModelParams(-0.0, 0, 0.5, 0.0, 1, 0.25)
        assert math.copysign(1.0, p.b) == -1.0
        assert [type(r) for r in p.as_tuple()] == [float, int, float, float, int, float]

    def test_each_inequality_can_fail_alone_or_not(self, rng):
        # wide draws: report must flag exactly the violated conditions
        for _ in range(200):
            p = ModelParams(*rng.uniform(0.0, 2.5, size=6))
            report = validate_params(p)
            b, al, b1, b2, k1, k2 = p.as_tuple()
            expected = {
                "alpha + b <= 1": al + b > 1,
                "beta1*k2 <= 2": b1 * k2 > 2,
                "beta2*k1 <= 2": b2 * k1 > 2,
                "b + beta2*k2 <= 1": b + b2 * k2 > 1,
                "|b - beta1*k1| <= 1": abs(b - b1 * k1) > 1,
                "|b - beta2*k2| <= 1": abs(b - b2 * k2) > 1,
                "|b - beta1*k2| <= 1": abs(b - b1 * k2) > 1,
                "|alpha + b - beta1*k1| <= 1": abs(al + b - b1 * k1) > 1,
                "|alpha - b - beta2*k1| <= 1": abs(al - b - b2 * k1) > 1,
            }
            got = {v.condition for v in report.violations}
            assert got == {name for name, bad in expected.items() if bad}


class TestSimplexPoint:
    def test_clamps_round_off_negatives(self):
        s = SimplexPoint(1.0, -1e-13, 1e-13, 0.0)
        assert s.u == 0.0 and s.x == 1.0

    def test_negative_zero_is_stored_as_zero(self):
        # -0.0 < 0.0 is false: a clamp on c < 0.0 alone would keep the sign
        s = SimplexPoint(-0.0, 0.5, 0.25, 0.25)
        assert math.copysign(1.0, s.x) == 1.0
        assert all(math.copysign(1.0, c) == 1.0 for c in SimplexPoint(1.0, -0.0, -0.0, -0.0).as_tuple())

    def test_rejects_real_negatives(self):
        with pytest.raises(ValueError):
            SimplexPoint(1.0, -1e-9, 0.0, 0.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            SimplexPoint(math.nan, 0.0, 0.0, 1.0)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            SimplexPoint(0.5, 0.5, 0.5, 0.5)

    def test_from_array_takes_four_values(self):
        assert SimplexPoint.from_array([0.25, 0.25, 0.5, 0.0]).as_tuple() == (0.25, 0.25, 0.5, 0.0)
        assert SimplexPoint.from_array(np.array([0.0, 0.0, 0.0, 1.0])).v == 1.0

    @pytest.mark.parametrize("a", [
        [0.25, 0.25, 0.25, 0.25, 7.0],  # used to drop the fifth value
        [0.5, 0.25, 0.25],              # used to raise IndexError
        [[0.25, 0.25, 0.25, 0.25]],
        1.0,
    ], ids=["five", "three", "row", "scalar"])
    def test_from_array_rejects_other_shapes(self, a):
        with pytest.raises(ValueError, match=r"shape \(4,\), got \("):
            SimplexPoint.from_array(np.array(a))
        with pytest.raises(ValueError, match=r"shape \(4,\)"):
            SimplexPoint.from_array(a)


class TestForceOfInfection:
    def test_no_infected_no_force(self):
        assert force_of_infection(SimplexPoint(0.5, 0, 0.5, 0), FIG1) == 0.0

    def test_no_infectivity_no_force(self):
        p = ModelParams(0.2, 0.1, 0.5, 0.5, 0.0, 0.0)
        assert force_of_infection(SimplexPoint(0.25, 0.25, 0.25, 0.25), p) == 0.0

    def test_direct_arithmetic(self):
        s = SimplexPoint(0.4, 0.2, 0.3, 0.1)
        assert force_of_infection(s, FIG1) == pytest.approx(0.23, abs=1e-15)

    def test_bounded_by_max_infectivity(self, rng):
        for _ in range(100):
            p = random_admissible(rng)
            s = SimplexPoint.from_array(random_point(rng))
            A = force_of_infection(s, p)
            assert 0.0 <= A <= max(p.k1, p.k2) + 1e-15


class TestApplyV:
    def test_disease_free_state_is_fixed(self, rng):
        lam1 = SimplexPoint(1, 0, 0, 0)
        for _ in range(20):
            p = random_admissible(rng)
            out = apply_V(lam1, p)
            assert abs(out.x - 1.0) <= 1e-15  # (1 + b) - b rounds at the last bit
            assert out.u == 0.0 and out.y == 0.0 and out.v == 0.0

    def test_identity_regime(self):
        p = ModelParams(0, 0, 0.5, 0.5, 0, 0)
        s = SimplexPoint(0.25, 0.25, 0.25, 0.25)
        assert apply_V(s, p).as_tuple() == s.as_tuple()

    def test_boundary_fixed_point_residual(self):
        lam10 = SimplexPoint(0.6, 2 / 15, 4 / 15, 0.0)
        out = apply_V(lam10, FIG2)
        dev = np.max(np.abs(out.as_array() - lam10.as_array()))
        assert dev <= 1e-12

    def test_rejects_inadmissible(self):
        with pytest.raises(InadmissibleParams):
            apply_V(SimplexPoint(1, 0, 0, 0), ModelParams(0.9, 0.5, 0, 0, 0, 0))

    def test_simplex_invariance(self, rng):
        for _ in range(1000):
            p = random_admissible(rng)
            s = SimplexPoint.from_array(random_point(rng))
            out = apply_V(s, p).as_array()
            assert np.all(out >= -1e-12)
            assert abs(out.sum() - 1.0) <= 1e-12

    def test_sum_conserved_each_step(self, rng):
        # the birth and transfer terms cancel pairwise on the simplex
        for _ in range(20):
            p = random_admissible(rng)
            traj = iterate(SimplexPoint.from_array(random_point(rng)), p, 100)
            sums = traj.states.sum(axis=1)
            assert np.max(np.abs(np.diff(sums))) <= 1e-13

    def test_affine_when_no_infectivity(self, rng):
        # with k1 = k2 = 0 the map is affine: exact along segments
        p = ModelParams(0.3, 0.2, 0.8, 0.6, 0.0, 0.0)
        for _ in range(50):
            a, c = random_point(rng), random_point(rng)
            t = rng.uniform()
            mid = SimplexPoint.from_array(t * a + (1 - t) * c)
            va = apply_V(SimplexPoint.from_array(a), p).as_array()
            vc = apply_V(SimplexPoint.from_array(c), p).as_array()
            vmid = apply_V(mid, p).as_array()
            assert np.max(np.abs(vmid - (t * va + (1 - t) * vc))) <= 1e-12


class TestIterate:
    def test_zero_steps(self):
        s = SimplexPoint(0.25, 0.25, 0.25, 0.25)
        traj = iterate(s, FIG1, 0)
        assert len(traj) == 1
        assert traj[0].as_tuple() == s.as_tuple()

    def test_no_susceptibility_limit(self, rng):
        # without susceptibility, turnover empties every non-susceptible class
        for _ in range(10):
            b = rng.uniform(0.05, 0.9)
            p = ModelParams(b, rng.uniform(0, 1 - b), 0.0, 0.0,
                            rng.uniform(0, 1.5), rng.uniform(0, 1.5))
            traj = iterate(SimplexPoint.from_array(random_point(rng)), p, 10_000)
            assert np.max(np.abs(traj.states[-1] - [1, 0, 0, 0])) <= 1e-6

    def test_propagates_inadmissible(self):
        with pytest.raises(InadmissibleParams):
            iterate(SimplexPoint(1, 0, 0, 0), ModelParams(0.9, 0.5, 0, 0, 0, 0), 5)

    def test_monotone_coordinates_without_first_susceptibility(self, rng):
        # beta1 = 0: x never decreases; with alpha + b > 0, u never increases
        for _ in range(20):
            b = rng.uniform(0.0, 0.6)
            al = rng.uniform(0.05, min(0.9, 1 - b))
            p = ModelParams(b, al, 0.0, rng.uniform(0, 0.8),
                            rng.uniform(0, 1.0), rng.uniform(0, 1.0))
            if not p.admissible:
                continue
            traj = iterate(SimplexPoint.from_array(random_point(rng)), p, 300)
            xs, us = traj.states[:, 0], traj.states[:, 1]
            assert np.all(np.diff(xs) >= -1e-15)
            assert np.all(np.diff(us) <= 1e-15)

    def test_drift_stays_small(self, rng):
        p = random_admissible(rng)
        traj = iterate(SimplexPoint.from_array(random_point(rng)), p, 10_000)
        assert traj.max_drift() <= 1e-10

    def test_rejects_negative_step_count(self):
        with pytest.raises(ValueError):
            iterate(SimplexPoint(1, 0, 0, 0), FIG1, -1)

    @pytest.mark.parametrize("n", [2.5, math.nan, math.inf])
    def test_rejects_non_integer_step_count(self, n):
        # unchecked, each failed with a TypeError from numpy
        with pytest.raises(ValueError, match="n must be an integer"):
            iterate(SimplexPoint(1, 0, 0, 0), FIG1, n)

    def test_vectorized_path_matches_scalar_path(self, rng):
        # conjecture scans run _step on arrays; it must agree bitwise
        from sisi.model import _step

        for _ in range(20):
            p = random_admissible(rng)
            states = np.stack([random_point(rng) for _ in range(8)])
            batch = np.stack(_step(*states.T, *p.as_tuple()), axis=1)
            for row_in, row_out in zip(states, batch):
                direct = apply_V(SimplexPoint.from_array(row_in), p).as_array()
                assert np.array_equal(row_out, direct)


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency
    env = {**os.environ, "PYTHONPATH": str(Path(sisi.__file__).resolve().parents[1])}
    code = ("import sys, sisi; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
