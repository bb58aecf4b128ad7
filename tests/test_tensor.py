"""Heredity tensor: construction, axioms, and oracle equivalence."""

import math

import numpy as np
import pytest

from sisi.model import (
    InadmissibleParams,
    ModelParams,
    NegativeParameter,
    SimplexPoint,
    apply_V,
)
from sisi.tensor import (
    QsoTensor,
    apply_qso,
    build_tensor,
    check_axioms,
    heredity_values,
    tensor_rows,
)

from conftest import random_admissible, random_point


class TestBuildTensor:
    def test_pure_susceptible_coefficient_is_one(self, rng):
        for _ in range(20):
            t = build_tensor(random_admissible(rng))
            assert t.values[0, 0, 0] == 1.0

    def test_mixed_coefficient_value(self):
        p = ModelParams(b=0.2, alpha=0.1, beta1=0.6, beta2=0.2, k1=1.0, k2=0.5)
        t = build_tensor(p)
        # (1 + b - beta1*k1) / 2
        assert t.values[0, 1, 0] == pytest.approx(0.3, abs=1e-15)
        assert t.values[1, 0, 0] == t.values[0, 1, 0]

    def test_zero_rates_sparsity_pattern(self):
        t = build_tensor(ModelParams(0, 0, 0, 0, 0, 0))
        assert t.values[1, 1, 1] == 1.0   # infected stay infected
        assert t.values[3, 3, 3] == 1.0
        assert t.values[0, 2, 0] == 0.5   # susceptible/recovered split evenly

    def test_inadmissible_names_offending_entry(self):
        p = ModelParams(b=0.0, alpha=0.0, beta1=4.0, beta2=0.0, k1=0.0, k2=1.0)
        with pytest.raises(InadmissibleParams, match=r"P_\{\d\d,\d\} = .* outside"):
            build_tensor(p)
        # several entries lie outside [0, 1]; the first in C order is named
        for rates, first in [
            ((0.0, 0.0, 4.0, 0.0, 0.0, 1.0), "P_{14,1} = -1.5"),
            ((0.5, 0.5, 3.0, 3.0, 1.0, 1.0), "P_{12,1} = -0.75"),
            ((0.9, 0.1, 0.0, 2.5, 1.0, 0.6), "P_{12,2} = -1.3877787807814457e-17"),
            ((0.0, 0.0, 0.5, 2.0, 2.0, 1.0), "P_{23,3} = -1.5"),
        ]:
            p = ModelParams(*rates)
            P = heredity_values(p)
            assert np.count_nonzero((P < 0.0) | (P > 1.0)) >= 4
            with pytest.raises(InadmissibleParams) as exc:
                build_tensor(p)
            assert str(exc.value) == f"{first} lies outside [0, 1]"

    @pytest.mark.parametrize("value", [-0.1, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_rate(self, value):
        with pytest.raises(NegativeParameter):
            build_tensor(ModelParams(0.1, value, 0.0, 0.0, 0.0, 0.0))

    def test_row_sums_exact_for_any_nonnegative_rates(self, rng):
        # stochasticity is an algebraic identity, admissible or not
        for _ in range(300):
            p = ModelParams(*rng.uniform(0.0, 2.5, size=6))
            P = heredity_values(p)
            assert np.max(np.abs(P.sum(axis=2) - 1.0)) <= 1e-12

    def test_bounds_hold_iff_admissible(self, rng):
        for _ in range(500):
            p = ModelParams(*rng.uniform(0.0, 2.2, size=6))
            P = heredity_values(p)
            in_bounds = bool(np.all((P >= 0.0) & (P <= 1.0)))
            assert in_bounds == p.admissible


class TestCheckAxioms:
    def test_admissible_tensor_is_clean(self, rng):
        report = check_axioms(build_tensor(random_admissible(rng)))
        assert report.ok

    def test_symmetry_violation_located(self):
        values = heredity_values(ModelParams(0.2, 0.1, 0.5, 0.2, 1.0, 0.5))
        values[0, 1, 0] += 0.25
        report = check_axioms(QsoTensor(values))
        hits = [v for v in report.violations if v.axiom == "symmetry"]
        assert hits and hits[0].indices == (1, 2, 1)

    def test_full_report_pinned(self):
        # all four axioms broken: kinds in a fixed order, each in C order
        values = heredity_values(ModelParams(0.25, 0.25, 0.5, 0.5, 1.0, 0.5))
        values[0, 2, 1] = -0.125
        values[3, 3, 3] = 1.5
        values[2, 1, 0] += 0.25
        values[1, 0, 3] = -0.0625
        report = check_axioms(QsoTensor(values))
        assert [(v.axiom, v.indices, v.magnitude) for v in report.violations] == [
            ("non-negative", (1, 3, 2), 0.125),
            ("non-negative", (2, 1, 4), 0.0625),
            ("bounded", (4, 4, 4), 0.5),
            ("symmetry", (1, 2, 4), 0.0625),
            ("symmetry", (1, 3, 2), 0.125),
            ("symmetry", (2, 3, 1), 0.25),
            ("row-sum", (1, 3), 0.125),
            ("row-sum", (2, 1), 0.0625),
            ("row-sum", (3, 2), 0.25),
            ("row-sum", (4, 4), 0.75),
        ]
        assert str(report).startswith(
            "non-negative violated at (1,3,2) by 0.125; "
            "non-negative violated at (2,1,4) by 0.0625; bounded violated at (4,4,4)")
        assert str(report).endswith("row-sum violated at (4,4) by 0.75")

    def test_bound_violation_from_inadmissible_rates(self):
        p = ModelParams(b=0.0, alpha=0.0, beta1=4.0, beta2=0.0, k1=0.0, k2=1.0)
        report = check_axioms(QsoTensor(heredity_values(p)))
        bad = [v for v in report.violations if v.axiom == "bounded"]
        assert any(v.indices == (1, 4, 2) for v in bad)


class TestApplyQso:
    def test_vertex_maps_to_coefficient_row(self, rng):
        t = build_tensor(random_admissible(rng))
        out = apply_qso(t, SimplexPoint(1, 0, 0, 0)).as_array()
        assert np.allclose(out, t.values[0, 0, :], atol=1e-15)

    def test_uniform_tensor_flattens_everything(self, rng):
        t = QsoTensor(np.full((4, 4, 4), 0.25))
        for _ in range(10):
            out = apply_qso(t, SimplexPoint.from_array(random_point(rng))).as_array()
            assert np.allclose(out, 0.25, atol=1e-12)

    def test_equivalence_with_direct_operator(self, rng):
        # the rewrite used the sum constraint, so agreement holds on the simplex
        for _ in range(200):
            p = random_admissible(rng)
            t = build_tensor(p)
            for _ in range(5):
                s = SimplexPoint.from_array(random_point(rng))
                via_tensor = apply_qso(t, s).as_array()
                direct = apply_V(s, p).as_array()
                assert np.max(np.abs(via_tensor - direct)) <= 1e-12

    def test_output_sums_to_one(self, rng):
        t = build_tensor(random_admissible(rng))
        s = SimplexPoint.from_array(random_point(rng))
        assert abs(sum(apply_qso(t, s).as_tuple()) - 1.0) <= 1e-14

    def test_rows_export(self, rng):
        rows = list(tensor_rows(build_tensor(random_admissible(rng))))
        assert len(rows) == 64
        assert rows[0][:3] == (1, 1, 1)

    def test_rejects_invalid_tensor(self, rng):
        from sisi.tensor import InvalidTensor

        values = heredity_values(ModelParams(0.2, 0.1, 0.5, 0.2, 1.0, 0.5))
        values[0, 1, 0] += 0.25  # break symmetry
        with pytest.raises(InvalidTensor, match="symmetry"):
            apply_qso(QsoTensor(values), SimplexPoint(0.25, 0.25, 0.25, 0.25))
