"""Fixed-point catalog: quadratic, interior point, derivation rules, residuals."""

import collections
import hashlib
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from sisi import dynamics, fixpoints, stability, tensor
from sisi.dynamics import equilibrium_curves
from sisi.model import (
    RESIDUAL_TOL,
    InadmissibleParams,
    ModelParams,
    NegativeParameter,
    SimplexPoint,
    _step,
    apply_V,
    validate_params,
)
from sisi.fixpoints import (
    DegenerateRegime,
    NoInteriorPoint,
    _balance_gap,
    _catalog_entries,
    _interior_coordinates,
    _quadratic,
    barycentric_grid,
    fixed_point_set,
    interior_fixed_point,
    interior_quadratic,
    residual,
)

from conftest import catalog_workload_rates, random_admissible, random_point

# the worked interior-equilibrium instance
WORKED = ModelParams(b=0.2, alpha=0.3, beta1=0.6, beta2=0.4, k1=1.0, k2=1.0)
FIG2 = ModelParams(b=0.1, alpha=0.2, beta1=0.5, beta2=0.0, k1=1.0, k2=0.3)
FIG4 = ModelParams(b=0.1, alpha=0.01, beta1=0.8, beta2=0.2, k1=0.5, k2=1.2)


class TestInteriorQuadratic:
    def test_worked_instance_is_30A2_minus_5A_minus_1(self):
        quad = interior_quadratic(WORKED)
        scale = quad.c2 / 30.0
        assert abs(quad.c1 / -5.0 - scale) <= 1e-12 * abs(scale)
        assert abs(quad.c0 / -1.0 - scale) <= 1e-12 * abs(scale)

    def test_worked_instance_positive_root(self):
        quad = interior_quadratic(WORKED)
        assert quad.positive_root == pytest.approx((5 + math.sqrt(145)) / 60,
                                                   abs=1e-12)

    def test_threshold_rates_give_zero_root(self):
        # beta1*k1 == b + alpha exactly: constant coefficient vanishes
        p = ModelParams(b=0.2, alpha=0.3, beta1=0.5, beta2=0.4, k1=1.0, k2=0.5)
        quad = interior_quadratic(p)
        assert quad.c0 == 0.0
        assert 0.0 in quad.roots
        assert quad.c1 > 0.0 and quad.positive_root is None

    def test_supercritical_always_one_positive_root(self, rng):
        # c0 < 0 forces exactly one sign change (product of roots negative)
        found = 0
        while found < 100:
            p = random_admissible(rng)
            if min(p.b, p.alpha, p.beta1, p.beta2, p.k1, p.k2) <= 0.01:
                continue
            if p.beta1 * p.k1 <= p.b + p.alpha:
                continue
            found += 1
            quad = interior_quadratic(p)
            assert quad.c0 < 0.0
            assert quad.positive_root is not None
            positive = [r for r in quad.roots if r > 0]
            assert len(positive) == 1

    def test_nonempty_at_or_above_threshold(self, rng):
        # positive root exists whenever beta1*k1 >= b + alpha (all rates > 0)
        found = 0
        while found < 100:
            p = random_admissible(rng)
            if min(p.b, p.alpha, p.beta1, p.beta2, p.k1, p.k2) <= 0.01:
                continue
            if p.beta1 * p.k1 < p.b + p.alpha:
                continue
            found += 1
            assert interior_quadratic(p).positive_root is not None

    def test_degenerate_leading_coefficient(self):
        with pytest.raises(DegenerateRegime):
            interior_quadratic(ModelParams(0.2, 0.3, 0.6, 0.0, 1.0, 1.0))

    def test_computed_once_per_params(self):
        p = ModelParams(*WORKED.as_tuple())
        assert interior_quadratic(p) is interior_quadratic(p)
        degenerate = ModelParams(0.2, 0.3, 0.6, 0.0, 1.0, 1.0)
        for _ in range(2):
            with pytest.raises(DegenerateRegime):
                interior_quadratic(degenerate)

    def test_balance_gap_bits(self, rng):
        # the closure forms its A-free factors once; each value keeps the
        # bits of the formula evaluated in full
        for _ in range(200):
            p = random_admissible(rng)
            b, al, b1, b2, k1, k2 = p.as_tuple()
            gap = _balance_gap(p)
            for A in rng.uniform(0.0, 3.0, 5).tolist():
                first = b * b1 * k1 / ((b + b1 * A) * (b + al))
                second = al * b1 * b2 * k2 * A / ((b + b1 * A) * (b + b2 * A) * (b + al))
                assert gap(A).hex() == (first + second - 1.0).hex(), (p, A)

    @staticmethod
    def spy_gap_evaluations(monkeypatch):
        # one list per balance gap made, of the points it is evaluated at
        calls, balance_gap = [], fixpoints._balance_gap

        def spy(p):
            gap, points = balance_gap(p), []
            calls.append(points)

            def counted(A):
                points.append(A)
                return gap(A)
            return counted

        monkeypatch.setattr(fixpoints, "_balance_gap", spy)
        return calls

    def test_cross_check_runs_between_two_positive_roots(self, monkeypatch):
        # roots 0.2 and 13/60: [0.5r, 1.5r] around the larger root holds
        # both; the gap is read at its ends, then within 1e-12 of 13/60
        calls = self.spy_gap_evaluations(monkeypatch)
        quad = interior_quadratic(ModelParams(0.1, 0.5, 0.3, 0.5, 0.7, 1.0))
        assert quad.roots == pytest.approx((0.2, 13 / 60), abs=1e-12)
        assert len(calls) == 1
        lo, hi, below, above = calls[0]
        assert 0.2 < lo < 13 / 60 < hi
        assert below < quad.positive_root < above
        assert above - below <= 2e-12 + 2 * math.ulp(13 / 60)

    def test_catalog_request_cross_checks_once(self, monkeypatch):
        # what one catalog request does with one ModelParams: the catalog,
        # stability at each isolated point, the tensor axioms and the
        # balance curves; the curves reuse the catalog's checked roots
        calls = self.spy_gap_evaluations(monkeypatch)
        p = ModelParams(*WORKED.as_tuple())
        assert validate_params(p).ok
        catalog = fixed_point_set(p)
        stability.classify_lambda1(p)
        for fp in catalog:
            stability.classify_at(SimplexPoint.from_array(fp.point), p)
        assert tensor.check_axioms(tensor.build_tensor(p)).ok
        equilibrium_curves(p)
        assert len(calls) == 1 and len(calls[0]) == 4

    def test_cross_check_skips_roots_a_fold_apart(self, monkeypatch):
        # roots 2.02310e-2 and 2.02314e-2: the balance gap is so flat between
        # them that rounding moves its root by 1.3e-11, more than the check's
        # 1e-12, while the closed form matches the exact root to 5.5e-13
        calls = self.spy_gap_evaluations(monkeypatch)
        p = ModelParams(0.18939696973581754, 0.2767837502669714, 0.9159323480762633,
                        0.8943812889563291, 0.5042110717298325, 0.4280731368532068)
        quad = interior_quadratic(p)
        assert 0.0 < quad.roots[0] < quad.positive_root < quad.roots[0] * (1 + 1e-4)
        assert calls == []

    @pytest.mark.parametrize("rates", [(0.1, 0.5, 0.3, 0.5, 0.7, 1.0),
                                       (0.2, 0.3, 0.6, 0.4, 1.0, 1.0)])
    def test_check_rejects_a_root_off_by_1e_9(self, monkeypatch, rates):
        # closed-form roots moved by a relative 1e-9 leave the balance gap
        # one sign on the whole window around the root
        roots = fixpoints._roots
        monkeypatch.setattr(fixpoints, "_roots",
                            lambda *args: tuple(r * (1 + 1e-9) for r in roots(*args)))
        with pytest.raises(ArithmeticError, match="balance gap keeps its sign"):
            interior_quadratic(ModelParams(*rates))

    def test_check_window_stays_above_the_gap_pole(self):
        # r is about 4e-160, far below the check's tol of 1e-12: the window's
        # lower end r - tol is clipped to 0.5r, clear of the gap's pole at
        # A = -b/beta1 = -2e-160
        p = ModelParams(1e-160, 0.5, 0.5, 1e-160, 2.0, 0.5)
        assert "lambda_11" in [fp.label for fp in fixed_point_set(p)]

    def test_positive_root_matches_50_digit_root(self, rng):
        # the larger root of Q, solved in 50-digit arithmetic from the
        # rates' exact binary values, where all six rates are positive
        from mpmath import mp

        found = 0
        while found < 200:
            p = random_admissible(rng)
            quad = interior_quadratic(p)
            root = quad.positive_root
            if min(p.as_tuple()) <= 0.0 or root is None or len(quad.roots) < 2:
                continue
            found += 1
            with mp.workdps(50):
                b, al, b1, b2, k1, k2 = map(mp.mpf, p.as_tuple())
                c2 = (b + al) * b1 * b2
                c1 = (b + al) * b * (b1 + b2) - b1 * b2 * (b * k1 + al * k2)
                c0 = b * b * (b + al - b1 * k1)
                exact = (-c1 + mp.sqrt(c1 * c1 - 4 * c2 * c0)) / (2 * c2)
                assert abs(root - exact) <= 1e-13 * exact, p

    def test_exact_rates_give_an_exact_discriminant(self):
        # the discriminant's 4 is an int, so Fraction rates stay exact
        rates = [Fraction(n, 8) for n in (1, 2, 4, 3, 8, 5)]
        outputs = _quadratic(*rates)
        assert all(type(c) is Fraction for c in outputs)
        c2, c1, c0, disc = outputs
        assert disc == c1 * c1 - 4 * c2 * c0

    def test_float_discriminant_keeps_the_bits_of_the_float_literal(self):
        # 20,000 rate sets over 200 decades, as scalars and as arrays
        rng = np.random.default_rng(26)
        rates = rng.uniform(0.0, 2.0, (20_000, 6)) * 10.0 ** rng.integers(-200, 1, (20_000, 6))
        c2, c1, c0, disc = _quadratic(*rates.T)
        assert disc.tobytes() == (c1 * c1 - 4.0 * c2 * c0).tobytes()
        for row in rates.tolist():
            c2, c1, c0, disc = _quadratic(*row)
            assert type(disc) is float
            assert disc.hex() == (c1 * c1 - 4.0 * c2 * c0).hex(), row


class TestInteriorFixedPoint:
    def test_worked_instance_point(self):
        fp = interior_fixed_point(WORKED)
        pt = fp.point
        assert np.all(pt > 0) and np.all(pt < 1)
        assert abs(pt.sum() - 1.0) <= 1e-12
        # oracle: direct evaluation of the operator
        image = apply_V(SimplexPoint.from_array(pt), WORKED).as_array()
        assert np.max(np.abs(image - pt)) <= 1e-10
        # the verified x-coordinate is b/(b+beta1*A), not b/(b+alpha)
        assert abs(pt[0] - WORKED.b / (WORKED.b + WORKED.alpha)) > 0.1
        assert fp.note  # discrepancy reported

    def test_reference_trajectory_limit_matches(self):
        from sisi.dynamics import detect_limit

        fp = interior_fixed_point(FIG4)
        report = detect_limit(SimplexPoint(0.2, 0.4, 0.1, 0.3), FIG4)
        assert report.converged
        assert np.max(np.abs(report.limit - fp.point)) <= 1e-5

    def test_no_interior_point_without_beta2(self):
        with pytest.raises(NoInteriorPoint):
            interior_fixed_point(ModelParams(0.2, 0.3, 0.6, 0.0, 1.0, 1.0))

    @pytest.mark.parametrize("p", [ModelParams(0.0, 0.2, 0.5, 0.5, 1.0, 1.0),
                                   ModelParams(0.2, 0.0, 0.8, 0.3, 1.0, 0.5)],
                             ids=["b=0", "alpha=0"])
    def test_no_interior_point_at_b_or_alpha_zero(self, p):
        # b = 0 used to raise ZeroDivisionError, and alpha = 0 to return the
        # catalog's lambda_9, (0.25, 0.75, 0, 0), labelled lambda_11
        with pytest.raises(NoInteriorPoint):
            interior_fixed_point(p)
        assert "lambda_11" not in [fp.label for fp in fixed_point_set(p)]

    def test_same_bits_as_the_catalog(self, rng):
        # b, alpha > 0: wherever the catalog lists lambda_11, this is it
        listed = 0
        for _ in range(300):
            p = random_admissible(rng)
            assert p.b > 0.0 and p.alpha > 0.0
            for fp in fixed_point_set(p):
                if fp.label == "lambda_11":
                    listed += 1
                    assert interior_fixed_point(p).point.tobytes() == fp.point.tobytes(), p
        assert listed >= 50

    def test_negative_rate_is_rejected(self):
        # the quadratic has a positive root here, whose "point" is off the simplex
        with pytest.raises(NegativeParameter, match="b=-0.2"):
            interior_fixed_point(ModelParams(-0.2, 0.3, 0.6, 0.4, 1.0, 1.0))


class TestElimination:
    def test_fixed_point_equations_imply_A_Q_A(self):
        # for b > 0 the fixed-point equations, with the force of infection
        # written A, have one solution: the interior map at A; and
        # A = k1*u + k2*v holds there exactly when A*Q(A) = 0, with Q the
        # library's cleared quadratic
        import sympy

        b, al, b1, b2, k1, k2, A = sympy.symbols("b alpha beta1 beta2 k1 k2 A", positive=True)
        x, u, y, v = sympy.symbols("x u y v")
        flows = (b1 * A * x, al * u, b2 * A * y)
        equations = [b - b * x - flows[0], -b * u + flows[0] - flows[1],
                     -b * y + flows[1] - flows[2], -b * v + flows[2]]
        (solution,) = sympy.solve(equations, [x, u, y, v], dict=True)
        mapped = _interior_coordinates(b, al, b1, b2, A)
        for coord, expr in zip((x, u, y, v), mapped):
            assert sympy.simplify(solution[coord] - expr) == 0
        c2, c1, c0, _ = _quadratic(b, al, b1, b2, k1, k2)
        _, mu, _, mv = mapped
        cleared = (b + b1 * A) * (b + al) * (b + b2 * A)
        identity = (k1 * mu + k2 * mv - A) * cleared + A * (c2 * A**2 + c1 * A + c0)
        assert sympy.simplify(identity) == 0


class TestFixedPointSet:
    def test_edge_fixed_point_with_reinfection_rates_present(self):
        # y = v = 0 cancels every beta2 term, so lambda_9 stays fixed even
        # with beta2*k2 > 0 -- verified, not assumed
        p = ModelParams(b=0.2, alpha=0.0, beta1=0.6, beta2=0.1, k1=1.0, k2=0.5)
        catalog = fixed_point_set(p)
        labels = {fp.label for fp in catalog}
        assert labels == {"lambda_1", "lambda_9"}
        lam9 = next(fp for fp in catalog if fp.label == "lambda_9")
        assert np.allclose(lam9.point, [1 / 3, 2 / 3, 0, 0], atol=1e-12)

    def test_reference_regime_catalog(self):
        catalog = fixed_point_set(FIG2)
        labels = [fp.label for fp in catalog]
        assert labels == ["lambda_1", "lambda_10"]
        lam10 = catalog[1]
        assert np.allclose(lam10.point, [0.6, 2 / 15, 4 / 15, 0], atol=1e-12)

    def test_everything_fixed_regime(self):
        catalog = fixed_point_set(ModelParams(0, 0, 0.5, 0.5, 0, 0))
        assert any(fp.label == "S3" for fp in catalog)

    def test_disease_free_always_present(self, rng):
        for _ in range(300):
            catalog = fixed_point_set(random_admissible(rng))
            assert catalog[0].label == "lambda_1"
            assert catalog[0].stability is not None

    def test_residual_bound_everywhere(self, rng):
        for _ in range(100):
            p = random_admissible(rng)
            for fp in fixed_point_set(p):
                for member in fp.members():
                    assert residual(member, p) <= 1e-10

    @pytest.mark.parametrize("i", range(4), ids=list("xuyv"))
    def test_residual_keeps_a_nan_coordinate(self, i):
        # a NaN y reaches only the last two differences, and Python's max,
        # unlike np.max, drops a NaN that is not its first argument
        point = np.array([0.5, 0.5, 0.0, 0.0])
        point[i] = math.nan
        assert math.isnan(residual(point, ModelParams(0.2, 0.1, 0.9, 0.3, 1.0, 0.5)))

    def test_pure_infected_vertex_dropped_when_not_fixed(self):
        # (0,1,0,0) is not fixed for alpha > 0: u decays (u' = 1 - alpha)
        p = ModelParams(b=0.0, alpha=0.3, beta1=0.5, beta2=0.0, k1=1.0, k2=0.5)
        catalog = fixed_point_set(p)
        labels = {fp.label for fp in catalog}
        assert "lambda_4" not in labels
        assert "Lambda_8" in labels
        assert {"lambda_1", "lambda_2", "lambda_3"} <= labels

    def test_b0_lists_the_fixed_edge_u_v_0(self):
        # b = 0 freezes x and y where A = 0, so the u = v = 0 edge is fixed
        # even with alpha > 0
        p = ModelParams(b=0.0, alpha=0.25, beta1=0.5, beta2=0.0, k1=0.5, k2=0.5)
        labels = [fp.label for fp in fixed_point_set(p)]
        assert labels == ["lambda_1", "lambda_2", "lambda_3", "Lambda_5", "Lambda_8"]

    def test_families_sampled_members_are_fixed(self):
        p = ModelParams(0.0, 0.0, 0.5, 0.0, 1.0, 0.5)  # x=0 face is fixed
        catalog = fixed_point_set(p)
        fam = next(fp for fp in catalog if fp.label == "Lambda_7")
        assert len(fam.representatives) >= 5
        assert fam.residual <= 1e-10


class TestDerivedEntries:
    def test_both_interior_roots_are_listed(self):
        # Q has roots A = 1/12 and 1/8; each gives an interior fixed point
        catalog = fixed_point_set(ModelParams(0.125, 0.125, 0.75, 0.5, 0.25, 1.0))
        assert [fp.label for fp in catalog] == ["lambda_1", "lambda_11", "lambda_11b"]
        assert np.allclose(catalog[1].point, [4 / 7, 3 / 14, 1 / 7, 1 / 14], atol=1e-12)
        assert np.allclose(catalog[2].point, [2 / 3, 1 / 6, 1 / 8, 1 / 24], atol=1e-12)

    def test_interior_point_without_second_infectivity(self):
        # k2 = 0: the interior point still exists, with A = k1*u
        catalog = fixed_point_set(ModelParams(0.125, 0.125, 0.5, 0.125, 0.75, 0.0))
        assert [fp.label for fp in catalog] == ["lambda_1", "lambda_11"]
        assert np.all(catalog[1].point > 0.0)
        assert catalog[1].residual <= RESIDUAL_TOL

    def test_b0_lists_maximal_faces_by_support(self):
        # b = alpha = 0 and k2 = 0: the edge x = y = 0 carries no flow
        catalog = fixed_point_set(ModelParams(0.0, 0.0, 0.25, 0.25, 0.25, 0.0))
        uv = catalog[-1]
        assert uv.label == "face_uv"
        assert uv.family == "x = y = 0; u in [0, 1], v = 1 - u"
        assert all(m[0] == m[2] == 0.0 for m in uv.representatives)

    def test_named_faces_keep_their_descriptions(self):
        catalog = fixed_point_set(ModelParams(0.0, 0.0, 0.0, 0.0, 0.5, 0.5))
        families = {fp.label: fp.family for fp in catalog if fp.point is None}
        assert families == {
            "Lambda_5": "u = v = 0; x in [0, 1], y = 1 - x",
            "Lambda_7": "x = 0; u, y, v >= 0 with u + y + v = 1",
            "S3": "the whole simplex (identity dynamics)",
            "Lambda_6": "u = 0; x, y, v >= 0 with x + y + v = 1",
            "Lambda_8": "x = u = 0; y in [0, 1], v = 1 - y",
        }

    def test_underflowing_lambda10_closed_form(self):
        # beta1*k1*(b + alpha) underflows to 0 in lambda_10's closed form
        catalog = fixed_point_set(ModelParams(1e-200, 1e-200, 1.0, 0.0, 1e-160, 0.0))
        assert [fp.label for fp in catalog] == ["lambda_1", "lambda_10"]
        assert np.allclose(catalog[1].point, [2e-40, 0.5, 0.5, 0.0], rtol=1e-12, atol=0.0)

    def test_lambda1_classified_once_per_catalog_request(self, monkeypatch):
        # the catalog's lambda_1 row and the request's own closed-form call
        calls = []
        spectrum = stability.lambda1_spectrum
        monkeypatch.setattr(stability, "lambda1_spectrum",
                            lambda p: calls.append(p) or spectrum(p))
        p = ModelParams(*WORKED.as_tuple())
        assert fixed_point_set(p)[0].stability == stability.classify_lambda1(p).classification
        assert len(calls) == 1


def _suite_rates():
    """The rates verify_proposition draws for every suite at seeds 0-2."""
    return [tuple(r) for seed in range(3) for index in dynamics._SUITES.values()
            for r in dynamics._sample(index, 100, np.random.default_rng(seed))[0].tolist()]


def _outcome(fn, rates):
    """``fn`` on fresh ModelParams of ``rates``, or what it raised."""
    try:
        return fn(ModelParams(*rates))
    except Exception as exc:
        return type(exc), str(exc)


def _interior_outcome(rates):
    """interior_fixed_point's point bytes and residual at ``rates``, or the
    class of what it raised."""
    fp = _outcome(interior_fixed_point, rates)
    return fp[0] if isinstance(fp, tuple) else (fp.point.tobytes(), fp.residual)


# the raising tuples' sha256 where none raises
_NONE_RAISE = hashlib.sha256(b"").hexdigest()
# the starts at which predicted_limit is checked against the catalog, and
# the regime of the rule that names lambda_11
_STARTS = ((0.7, 0.1, 0.1, 0.1), (0.25, 0.25, 0.25, 0.25), (0.4, 0.3, 0.2, 0.1),
           (0.1, 0.2, 0.3, 0.4))
_INTERIOR_RULE = next(rule.regime for rule in dynamics._RULES if rule.target == "lambda_11")


def _predicted_outcomes(rates, entries):
    """What predicted_limit does at each of _STARTS, for six positive
    ``rates`` whose catalog derivation gave ``entries``: where it names
    lambda_11, the catalog lists lambda_11 with the same point bytes; it
    raises only the catalog's own error, and names no lambda_11 where the
    catalog raises."""
    p = ModelParams(*rates)
    interior = [] if isinstance(entries, tuple) else [
        np.array(q).tobytes() for label, q, _, _ in entries if label == "lambda_11"]
    for start in _STARTS:
        try:
            pred = dynamics.predicted_limit(SimplexPoint(*start), p)
        except ArithmeticError as exc:
            assert (type(exc), str(exc)) == entries, (rates, start)
            yield "raises"
            continue
        if pred is not None and pred.regime == _INTERIOR_RULE:
            assert [pred.target.tobytes()] == interior, (rates, start)
            yield "lambda_11"
        else:
            yield "no lambda_11"


class TestCatalogEntries:
    # a change in whether or where the catalog lists lambda_11 moves the
    # raising tuples' pins; each such move changes a decision, and is
    # declared with its counts
    @pytest.mark.parametrize("inputs, counts, raising_sha256, predicted", [
        (catalog_workload_rates, {"listed": 30_000}, _NONE_RAISE, None),
        (lambda: itertools.product((0.0, 0.5, 1.0, 2.0, 1e-160, 1e-200), repeat=6),
         {"listed": 20_231, "ArithmeticError": 317, "InadmissibleParams": 26_108},
         "041f88489027a15bc026b1b665a6d8b1268aa5f2dcf57592bcf9a1457f5308de",
         {"lambda_11": 204, "raises": 152, "no lambda_11": 19_740}),
        (lambda: itertools.product((0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 1e-160), repeat=6),
         {"listed": 51_200, "ArithmeticError": 680, "InadmissibleParams": 65_769},
         "899039fcb09f9efea220be0533e46f1169d35cd97b3638d608bc66c3a316c79b",
         {"lambda_11": 8_044, "raises": 1_992, "no lambda_11": 52_604}),
        (_suite_rates, {"listed": 5_400}, _NONE_RAISE, None),
    ], ids=["catalog-workload", "extreme-grid-1", "extreme-grid-2", "suite-draws"])
    def test_isolated_entries_are_the_catalog_points(self, inputs, counts, raising_sha256,
                                                     predicted):
        # the derivation and the records list the same labels in the same
        # order, each isolated point with the record's coordinate bytes and
        # residual, or both raise the same error (inadmissible tuples of
        # the grids included, and the interior root's balance check, whose
        # raising tuples are pinned by one sha256); on admissible rates
        # interior_fixed_point reads the same decision: the catalog's
        # lambda_11, NoInteriorPoint where it lists none, or its error; on
        # the grids, so does predicted_limit where all six rates are
        # positive (the only rates whose rules read lambda_11's root), at
        # four starts, with what it did there pinned by count
        outcomes, raising, said = collections.Counter(), [], collections.Counter()
        for rates in inputs():
            entries = _outcome(_catalog_entries, rates)
            records = _outcome(fixed_point_set, rates)
            if predicted and min(rates) > 0.0 and entries[0] is not InadmissibleParams:
                said.update(_predicted_outcomes(rates, entries))
            if isinstance(entries, tuple):
                assert records == entries, rates
                outcomes[entries[0].__name__] += 1
                if issubclass(entries[0], ArithmeticError):
                    raising.append(rates)
                if entries[0] is not InadmissibleParams:
                    assert _interior_outcome(rates) == entries[0], rates
                continue
            assert [e[0] for e in entries] == [fp.label for fp in records], rates
            points = [(fp.label, fp.point.tobytes(), fp.residual)
                      for fp in records if fp.point is not None]
            assert [(label, np.array(q).tobytes(), res)
                    for label, q, res, _ in entries if q is not None] == points, rates
            interior = [point[1:] for point in points if point[0] == "lambda_11"]
            assert _interior_outcome(rates) == (interior[0] if interior else NoInteriorPoint), rates
            outcomes["listed"] += 1
        assert outcomes == counts
        got = hashlib.sha256("\n".join(map(repr, sorted(raising))).encode()).hexdigest()
        assert got == raising_sha256
        assert said == (predicted or {})


def _reference_faces(rates):
    """b = 0: the faces by the per-support rule, the oracle of
    fixpoints._faces: each of the 15 supports is tested on its own, and a
    fixed one that is not named is listed if no fixed support strictly
    contains it."""
    _, al, b1, b2, k1, k2 = rates

    def face_fixed(support):
        ks = [k for c, k in zip("uv", (k1, k2)) if c in support]
        return ("u" not in support or al == 0.0) and all(
            rate * k == 0.0 for c, rate in zip("xy", (b1, b2)) if c in support for k in ks)

    supports = [s for n in (1, 2, 3, 4) for s in map("".join, itertools.combinations("xuyv", n))]
    fixed = {s for s in supports if face_fixed(s)}
    maximal = [s for s in supports if s in fixed and s not in fixpoints._NAMED
               and not any(set(s) < set(t) for t in fixed)]
    faces = []
    for support in [s for s in fixpoints._NAMED if s in fixed] + maximal:
        label = fixpoints._NAMED.get(support, "face_" + support)
        if len(support) == 1:
            faces.append((label, tuple(float(c == support) for c in "xuyv"), None))
        else:
            faces.append((label, None, support))
    return faces


class TestFaces:
    def test_five_rate_tests_give_the_per_support_rule(self):
        # every tuple over five values, admissible or not; products such as
        # 1e-160 * 1e-200 underflow to 0 and 1e-160 * 1e-160 to a subnormal
        values = (0.0, 0.5, 2.0, 1e-160, 1e-200)
        listed = collections.Counter()
        for t in itertools.product(values, repeat=5):
            faces = list(fixpoints._faces((0.0, *t)))
            assert faces == _reference_faces((0.0, *t)), t
            listed[tuple(label for label, _, _ in faces)] += 1
        assert sum(listed.values()) == 3_125
        assert len(listed) == 18  # distinct catalogs of faces


class TestB0CatalogPin:
    @pytest.mark.parametrize("values, tuples, digest", [
        ((0.0, 0.5, 1.0, 2.0, 1e-160, 1e-200), 4_925,
         "e01ec0b152d161c5002f36968a64ca38ad7e7ba4a8af8c4afbab1f53de9b00cd"),
        ((0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 1e-160), 11_736,
         "012231803f745639aeb4c02d9caa0216913702076040d58cd556e0766e82f65f"),
    ], ids=["extreme-grid-1", "extreme-grid-2"])
    def test_every_record_field_is_pinned(self, values, tuples, digest):
        # label, point bytes, family, member bytes, residual hex, stability
        # and note of every record at every admissible b = 0 tuple
        h, admissible = hashlib.sha256(), 0
        for rest in itertools.product(values, repeat=5):
            p = ModelParams(0.0, *rest)
            if not p.admissible:
                continue
            admissible += 1
            for fp in fixed_point_set(p):
                fields = (fp.label, None if fp.point is None else fp.point.tobytes(),
                          fp.family, [m.tobytes() for m in fp.representatives],
                          fp.residual.hex(), fp.stability, fp.note)
                h.update(repr(fields).encode() + b"\n")
        assert (admissible, h.hexdigest()) == (tuples, digest)


class TestCompleteness:
    def test_every_fixed_grid_point_lies_in_a_listed_entry(self):
        # every admissible dyadic rate tuple; a resolution-8 grid point with
        # residual <= RESIDUAL_TOL must be a listed point or on a listed face
        values = (0.0, 0.125, 0.25, 0.5, 0.75, 1.0)
        rates = np.array([t for t in itertools.product(values, repeat=6)
                          if validate_params(ModelParams(*t)).ok])
        assert len(rates) == 27_630
        grid = barycentric_grid(8)
        fixed = np.empty((len(rates), len(grid)), dtype=bool)
        for j, q in enumerate(grid.tolist()):
            image = np.array(_step(*q, *rates.T))
            fixed[:, j] = np.max(np.abs(image - np.array(q)[:, None]), axis=0) <= RESIDUAL_TOL
        uncovered = []
        for t, row in zip(rates.tolist(), fixed):
            found = grid[row]
            covered = np.zeros(len(found), dtype=bool)
            for fp in fixed_point_set(ModelParams(*t)):
                if fp.point is None:
                    off = ~np.any(np.array(fp.representatives) > 0.0, axis=0)
                    covered |= np.all(found[:, off] == 0.0, axis=1)
                else:
                    covered |= np.max(np.abs(found - fp.point), axis=1) <= 1e-9
            if not covered.all():
                uncovered.append((t, found[~covered][0].tolist()))
        assert uncovered == [], (len(uncovered), uncovered[:3])


class TestListedExactlyWhereFixed:
    # members chosen here, apart from the catalog's own samples
    EDGE = (0.1, 0.3, 0.6, 0.9)
    FACE = ((0.2, 0.3, 0.5), (0.6, 0.1, 0.3), (1 / 3, 1 / 3, 1 / 3), (0.05, 0.9, 0.05))
    MEMBERS = {
        "lambda_1": [(1.0, 0.0, 0.0, 0.0)],
        "lambda_2": [(0.0, 0.0, 0.0, 1.0)],
        "lambda_3": [(0.0, 0.0, 1.0, 0.0)],
        "lambda_4": [(0.0, 1.0, 0.0, 0.0)],
        "Lambda_5": [(t, 0.0, 1.0 - t, 0.0) for t in EDGE],
        "Lambda_6": [(a, 0.0, c, d) for a, c, d in FACE],
        "Lambda_7": [(0.0, a, c, d) for a, c, d in FACE],
        "Lambda_8": [(0.0, 0.0, t, 1.0 - t) for t in EDGE],
        "S3": [(0.7, 0.1, 0.1, 0.1), (0.1, 0.2, 0.3, 0.4), (0.25, 0.25, 0.25, 0.25)],
    }

    def test_rate_free_entries_on_the_dyadic_grid(self):
        # every admissible rate tuple over six dyadic values (27,630 of them),
        # so each rate is 0 in some tuples, which is where families appear
        values = (0.0, 0.125, 0.25, 0.5, 0.75, 1.0)
        grid = np.array([t for t in itertools.product(values, repeat=6)
                         if validate_params(ModelParams(*t)).ok])
        assert len(grid) == 27_630
        listed = [{fp.label for fp in fixed_point_set(ModelParams(*t))}
                  for t in grid.tolist()]
        for label, members in self.MEMBERS.items():
            fixed = np.ones(len(grid), dtype=bool)
            for m in members:
                image = np.array(_step(*m, *grid.T))
                fixed &= np.max(np.abs(image - np.array(m)[:, None]), axis=0) <= RESIDUAL_TOL
            shown = np.array([label in labels for labels in listed])
            assert np.array_equal(shown, fixed), (label, grid[shown != fixed][:3])


class TestGridSweep:
    def test_barycentric_grid_shape(self):
        grid = barycentric_grid(4)
        assert grid.shape == (35, 4)  # C(7,3)
        assert np.allclose(grid.sum(axis=1), 1.0)
        assert np.all(grid >= 0)

    @pytest.mark.parametrize("resolution,named", [
        (2.5, "resolution must be an integer, got 2.5"),
        (math.inf, "resolution must be an integer, got inf"),
        (0, "resolution must be >= 1, got 0"),
    ], ids=["2.5", "inf", "0"])
    def test_resolution_must_be_a_positive_integer(self, resolution, named):
        with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
            barycentric_grid(resolution)

    def test_near_fixed_grid_points_are_near_catalog(self):
        # brute-force sweep against the catalog in the two-point regime
        from sisi.model import _step

        grid = barycentric_grid(50)
        image = np.stack(_step(*grid.T, *FIG2.as_tuple()), axis=1)
        res = np.max(np.abs(image - grid), axis=1)
        near_fixed = grid[res <= 1e-8]
        assert len(near_fixed) >= 1  # the disease-free vertex is a grid point
        anchors = [fp.point for fp in fixed_point_set(FIG2)]
        for pt in near_fixed:
            dist = min(np.max(np.abs(pt - a)) for a in anchors)
            assert dist <= 1.0 / 50.0
