"""1-D reduction of the no-recovery regime and its logistic conjugacy."""

import numpy as np
import pytest

from sisi.model import ModelParams, NegativeParameter, SimplexPoint, apply_V
from sisi.conjugacy import (
    DegenerateInput,
    QuadraticMap1D,
    WrongRegime,
    classify_1d_fixed_points,
    conjugacy_map,
    edge_map,
    logistic,
    normalized_edge_map,
    verify_conjugacy,
)

EDGE = ModelParams(b=0.2, alpha=0.0, beta1=0.6, beta2=0.0, k1=1.0, k2=0.0)


class TestEdgeMap:
    def test_disease_free_corner_fixed(self):
        assert edge_map(1.0, 0.0, EDGE) == (1.0, 0.0)

    def test_known_value(self):
        # x' = 0.5 + 0.2 - 0.1 - 0.6*0.25, u' = 0.5 - 0.1 + 0.15
        assert edge_map(0.5, 0.5, EDGE) == pytest.approx((0.45, 0.55), abs=1e-15)

    def test_matches_full_operator_on_edge(self, rng):
        for _ in range(50):
            x = rng.uniform(0, 1)
            u = 1.0 - x
            full = apply_V(SimplexPoint(x, u, 0, 0), EDGE)
            pair = edge_map(x, u, EDGE)
            assert pair[0] == pytest.approx(full.x, abs=1e-15)
            assert pair[1] == pytest.approx(full.u, abs=1e-15)

    def test_wrong_regime_rejected(self):
        with pytest.raises(WrongRegime):
            edge_map(0.5, 0.5, ModelParams(0.2, 0.1, 0.6, 0.0, 1.0, 0.0))
        with pytest.raises(WrongRegime):
            edge_map(0.5, 0.5, ModelParams(0.2, 0.0, 0.6, 0.0, 1.0, 0.3))


class TestNormalizedEdgeMap:
    def test_reduces_to_raw_map_on_unit_sum(self):
        xw, uw = edge_map(0.3, 0.7, EDGE)
        xn, un = normalized_edge_map(0.3, 0.7, EDGE)
        assert (xn, un) == pytest.approx((xw, uw), abs=1e-15)

    def test_known_normalization(self):
        # divisor 0.3 + 0.2 + 0.2 - 0.2*0.5 = 0.6
        xn, un = normalized_edge_map(0.3, 0.2, EDGE)
        assert xn == pytest.approx(0.404 / 0.6, abs=1e-14)
        assert un == pytest.approx(0.196 / 0.6, abs=1e-14)
        assert xn + un == pytest.approx(1.0, abs=1e-14)

    def test_output_sum_is_one(self, rng):
        for _ in range(100):
            x, u = rng.uniform(0.01, 0.9, size=2)
            xn, un = normalized_edge_map(x, u, EDGE)
            assert abs(xn + un - 1.0) <= 1e-14

    def test_degenerate_divisor(self):
        p = ModelParams(0.0, 0.0, 0.6, 0.0, 1.0, 0.0)
        with pytest.raises(DegenerateInput):
            normalized_edge_map(0.0, 0.0, p)

    def test_iteration_converges_to_infected_equilibrium(self, rng):
        # beta1*k1 > b: the x-coordinate settles at b/(beta1*k1)
        for _ in range(10):
            x = rng.uniform(0.05, 0.95)
            u = 1.0 - x
            for _ in range(2000):
                x, u = normalized_edge_map(x, u, EDGE)
            assert x == pytest.approx(EDGE.b / (EDGE.beta1 * EDGE.k1), abs=1e-10)


class TestQuadraticMap:
    def test_fixed_point_identities(self, rng):
        for _ in range(100):
            b = rng.uniform(0.0, 1.0)
            bk = rng.uniform(0.05, 2.0)
            f = QuadraticMap1D(b, bk)
            p1, p2 = f.fixed_points
            assert abs(f(p1) - p1) <= 1e-14
            assert abs(f(p2) - p2) <= 1e-14

    def test_intercept_root_pair(self, rng):
        # both fixed points solve B*q^2 - (b+B)*q + b = 0
        for _ in range(50):
            b = rng.uniform(0.0, 1.0)
            B = rng.uniform(0.05, 2.0)
            for q in (1.0, b / B):
                assert abs(B * q * q - (b + B) * q + b) <= 1e-14


class TestConjugacy:
    def test_logistic_parameter_and_map(self):
        cm = conjugacy_map(EDGE)
        assert cm.mu == pytest.approx(1.4, abs=1e-15)
        assert cm.slope == pytest.approx((EDGE.b - 0.6 - 1) / 0.6, abs=1e-15)
        assert cm.intercept == 1.0

    def test_identity_small_supnorm(self):
        assert verify_conjugacy(EDGE) <= 1e-12

    def test_identity_at_parameter_boundary(self):
        # b == beta1*k1 gives mu = 1; the identity is parameter-polynomial
        p = ModelParams(0.6, 0.0, 0.6, 0.0, 1.0, 0.0)
        assert verify_conjugacy(p) <= 1e-12

    def test_identity_random_draws(self, rng):
        for _ in range(100):
            b = rng.uniform(0.0, 1.0)
            bk = rng.uniform(b + 1e-3, 2.0)
            p = ModelParams(b, 0.0, bk, 0.0, 1.0, 0.0)
            cm = conjugacy_map(p)
            assert verify_conjugacy(p, grid_size=1000) <= 1e-12
            if b < bk <= 2.0 and b > 0:
                assert cm.in_logistic_window

    @pytest.mark.parametrize("grid_size", [2.5, float("nan"), float("inf")])
    def test_non_integer_grid_size_raises(self, grid_size):
        # unchecked, 2.5 and NaN died with a TypeError from numpy
        with pytest.raises(ValueError, match="grid_size must be an integer"):
            verify_conjugacy(EDGE, grid_size=grid_size)

    def test_alternative_root_also_conjugates(self):
        assert verify_conjugacy(EDGE, root="interior") <= 1e-12
        cm = conjugacy_map(EDGE, root="interior")
        assert cm.intercept == pytest.approx(EDGE.b / 0.6, abs=1e-15)

    def test_dynamics_transport(self, rng):
        # n-th iterate of f from h(x0) equals h of the n-th logistic iterate
        for _ in range(20):
            b = rng.uniform(0.05, 0.8)
            bk = rng.uniform(b + 0.05, min(2.0, b + 1.0))
            p = ModelParams(b, 0.0, bk, 0.0, 1.0, 0.0)
            cm = conjugacy_map(p)
            f = QuadraticMap1D.from_params(p)
            z = rng.uniform(0.05, 0.95)
            w = cm(z)
            for _ in range(100):
                z = logistic(cm.mu, z)
                w = f(w)
            assert abs(w - cm(z)) <= 1e-8

    def test_link_to_full_model_limit(self):
        # alpha = k2 = 0, beta1*k1 > b: the 4-D trajectory's x-limit is b/(beta1*k1)
        from sisi.dynamics import detect_limit

        p = ModelParams(0.2, 0.0, 0.6, 0.1, 1.0, 0.0)
        report = detect_limit(SimplexPoint(0.3, 0.3, 0.2, 0.2), p)
        assert report.converged
        assert abs(report.limit[0] - p.b / (p.beta1 * p.k1)) <= 1e-6


class TestClassify1D:
    def test_supercritical_labels(self):
        p1, p2 = classify_1d_fixed_points(EDGE)
        assert p1.label == "repelling" and p1.derivative == pytest.approx(1.4)
        assert p2.label == "attracting" and p2.derivative == pytest.approx(0.6)

    def test_coincident_fixed_points(self):
        p = ModelParams(0.6, 0.0, 0.6, 0.0, 1.0, 0.0)
        p1, p2 = classify_1d_fixed_points(p)
        assert p1.location == p2.location == 1.0
        assert p1.label == "nonhyperbolic"

    def test_subcritical_first_point_attracts(self):
        p = ModelParams(0.6, 0.0, 0.3, 0.0, 1.0, 0.0)  # beta1*k1 < b
        p1, p2 = classify_1d_fixed_points(p)
        assert p1.label == "attracting"
        assert p2.location > 1.0  # leaves the unit interval


class TestRegimeChecked:
    """The library's own entry points refuse rates off the no-recovery edge,
    where the 1-D reduction does not hold; unchecked, the identity and the
    1-D labels came out for any rates."""

    CALLS = [conjugacy_map, verify_conjugacy, QuadraticMap1D.from_params,
             classify_1d_fixed_points]
    IDS = ["conjugacy_map", "verify_conjugacy", "from_params", "classify_1d_fixed_points"]

    @pytest.mark.parametrize("call", CALLS, ids=IDS)
    def test_off_the_edge_raises(self, call):
        with pytest.raises(WrongRegime, match=r"^requires alpha = k2 = 0, got alpha=0.3, k2=0.4$"):
            call(ModelParams(0.2, 0.3, 0.6, 0.0, 1.0, 0.4))

    @pytest.mark.parametrize("call", CALLS, ids=IDS)
    def test_negative_rate_raises(self, call):
        with pytest.raises(NegativeParameter, match="b=-0.2"):
            call(ModelParams(-0.2, 0.0, 0.6, 0.0, 1.0, 0.0))

    def test_no_infection_product_raises(self):
        with pytest.raises(WrongRegime, match=r"^conjugacy requires beta1\*k1 > 0$"):
            conjugacy_map(ModelParams(0.2, 0.0, 0.0, 0.0, 1.0, 0.0))
