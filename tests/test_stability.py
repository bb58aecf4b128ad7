"""Jacobian, eigenvalue solver, and hyperbolicity classification."""

import math

import numpy as np
import pytest

from sisi.model import ModelParams, NegativeParameter, SimplexPoint, apply_V
from sisi.stability import (
    LAMBDA1,
    NonConvergence,
    classify,
    classify_at,
    classify_lambda1,
    eigenvalues,
    jacobian,
    lambda1_spectrum,
)

from conftest import random_admissible, random_point

FIG1 = ModelParams(b=0.6, alpha=0.2, beta1=0.5, beta2=0.0, k1=1.0, k2=0.3)
FIG2 = ModelParams(b=0.1, alpha=0.2, beta1=0.5, beta2=0.0, k1=1.0, k2=0.3)


def finite_difference_jacobian(s: SimplexPoint, p: ModelParams, h: float = 1e-6):
    """Central-difference oracle, column by column."""
    base = s.as_array()
    J = np.empty((4, 4))
    for j in range(4):
        plus, minus = base.copy(), base.copy()
        plus[j] += h
        minus[j] -= h
        fp = _raw_apply(plus, p)
        fm = _raw_apply(minus, p)
        J[:, j] = (fp - fm) / (2 * h)
    return J


def _raw_apply(arr, p):
    # off-simplex evaluation of the defining formulas (the FD stencil
    # perturbs single coordinates)
    x, u, y, v = arr
    b, al, b1, b2, k1, k2 = p.as_tuple()
    A = k1 * u + k2 * v
    return np.array([
        x + b - b * x - b1 * A * x,
        u - b * u + b1 * A * x - al * u,
        y - b * y + al * u - b2 * A * y,
        v - b * v + b2 * A * y,
    ])


class TestJacobian:
    def test_disease_free_pattern(self, rng):
        for _ in range(20):
            p = random_admissible(rng)
            b, al, b1, b2, k1, k2 = p.as_tuple()
            J = jacobian(SimplexPoint(1, 0, 0, 0), p)
            expected = np.array([
                [1 - b, -b1 * k1, 0, -b1 * k2],
                [0, 1 - b - al + b1 * k1, 0, b1 * k2],
                [0, al, 1 - b, 0],
                [0, 0, 0, 1 - b],
            ])
            assert np.array_equal(J, expected)

    def test_zero_rates_identity(self):
        J = jacobian(SimplexPoint(0.25, 0.25, 0.25, 0.25),
                     ModelParams(0, 0, 0, 0, 0, 0))
        assert np.array_equal(J, np.eye(4))

    @pytest.mark.parametrize("rates, named", [
        ((-0.5, 0.0, 0.0, 0.0, 0.0, 0.0), "b=-0.5"),
        ((0.1, 0.2, math.nan, 0.0, 1.0, 0.0), "beta1=nan"),
        ((0.1, 0.2, math.inf, 0.0, 1.0, 0.0), "beta1=inf"),
    ], ids=["negative", "nan", "inf"])
    def test_bad_rate_is_named(self, rates, named):
        # a negative rate would still give a finite matrix and a class, so
        # only the rate check refuses it: on construction, before jacobian
        # or classify_at can be handed one
        with pytest.raises(NegativeParameter, match=named):
            ModelParams(*rates)

    def test_finite_difference_agreement(self, rng):
        for _ in range(100):
            p = random_admissible(rng)
            s = SimplexPoint.from_array(random_point(rng))
            J = jacobian(s, p)
            J_fd = finite_difference_jacobian(s, p)
            assert np.max(np.abs(J - J_fd)) <= 1e-5


class TestEigenvalues:
    def test_constructed_diagonal_similarity(self, rng):
        D = np.diag([0.1, 0.2, 0.3, 0.4])
        for _ in range(50):
            S = rng.normal(size=(4, 4))
            while abs(np.linalg.det(S)) < 0.3:
                S = rng.normal(size=(4, 4))
            J = S @ D @ np.linalg.inv(S)
            eigs = eigenvalues(J)
            assert np.max(np.abs(np.sort(eigs.real) - [0.1, 0.2, 0.3, 0.4])) <= 1e-8
            assert np.max(np.abs(eigs.imag)) <= 1e-8

    def test_identity_matrix(self):
        eigs = eigenvalues(np.eye(4))
        # quadruple root: cluster accuracy is ~eps^(1/4)
        assert np.max(np.abs(eigs - 1.0)) <= 1e-3

    def test_disease_free_spectrum(self, rng):
        for _ in range(30):
            p = random_admissible(rng)
            eigs = eigenvalues(jacobian(SimplexPoint(1, 0, 0, 0), p))
            expected = np.sort(np.array(lambda1_spectrum(p)))
            # triple root 1-b: cluster accuracy ~eps^(1/3)
            assert np.max(np.abs(np.sort(eigs.real) - expected)) <= 1e-3
            assert np.max(np.abs(eigs.imag)) <= 1e-3
            # triangular up to a permutation: the diagonal, exact
            assert np.array_equal(np.sort(eigs.real), expected)
            assert np.all(eigs.imag == 0.0)

    def test_spectrum_nonnegative_and_max_modulus(self, rng):
        for _ in range(100):
            p = random_admissible(rng)
            mu1, _, _, mu2 = lambda1_spectrum(p)
            assert mu1 >= 0.0 and mu2 >= 0.0
            eigs = eigenvalues(jacobian(SimplexPoint(1, 0, 0, 0), p))
            assert np.max(np.abs(eigs)) == pytest.approx(max(mu1, abs(mu2)),
                                                         abs=1e-3)

    def test_rejects_nonfinite(self):
        J = np.full((4, 4), np.nan)
        with pytest.raises(ValueError):
            eigenvalues(J)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            eigenvalues(np.eye(3))

    def test_residual_check_refuses_a_wrong_eigenpair(self, rng, monkeypatch):
        # a dense matrix: a diagonal one never reaches LAPACK
        S = rng.normal(size=(4, 4))
        while abs(np.linalg.det(S)) < 0.3:
            S = rng.normal(size=(4, 4))
        J = S @ np.diag([0.1, 0.2, 0.3, 0.4]) @ np.linalg.inv(S)
        mu, V = np.linalg.eig(J)
        mu[2] += 1e-6
        monkeypatch.setattr(np.linalg, "eig", lambda _: (mu, V))
        with pytest.raises(NonConvergence):
            eigenvalues(J)

    def test_permuted_triangular_gives_the_lapack_bits(self, rng, monkeypatch):
        # the diagonal, read off, is what LAPACK returns after its balancing
        # isolates every eigenvalue; ties among equal diagonal entries and
        # zeros off the diagonal included (a diagonal -0.0 could sort apart
        # from 0.0 in another order, so none is drawn)
        cases = []
        for _ in range(300):
            T = np.triu(rng.uniform(-2.0, 2.0, size=(4, 4)), 1)
            T[rng.random((4, 4)) < 0.3] = 0.0
            diagonal = rng.uniform(-2.0, 2.0, size=4)
            if rng.random() < 0.5:
                diagonal = rng.choice([0.0, 0.5, -1.0], size=4)
            T[np.diag_indices(4)] = diagonal
            perm = rng.permutation(4)
            J = T[np.ix_(perm, perm)]
            cases.append((J, np.sort_complex(np.linalg.eig(J)[0]).tobytes()))

        def no_lapack(_):
            raise AssertionError("np.linalg.eig called")
        monkeypatch.setattr(np.linalg, "eig", no_lapack)
        for J, lapack in cases:
            eigs = eigenvalues(J)
            assert eigs.dtype == np.complex128
            assert eigs.tobytes() == lapack, J

    @pytest.mark.parametrize("kind", ["three-cycle", "dense"])
    def test_a_cycle_reaches_lapack(self, kind, rng, monkeypatch):
        if kind == "three-cycle":
            # (0, 1), (1, 2) and (2, 0): a cycle, but no two-cycle
            J = np.diag([0.1, 0.2, 0.3, 0.4])
            J[0, 1], J[1, 2], J[2, 0] = 0.5, -0.25, 0.75
        else:
            J = rng.uniform(-1.0, 1.0, size=(4, 4))
        expected = np.sort_complex(np.linalg.eig(J)[0])
        calls = []
        eig = np.linalg.eig

        def counted(A):
            calls.append(A)
            return eig(A)
        monkeypatch.setattr(np.linalg, "eig", counted)
        eigs = eigenvalues(J)
        assert len(calls) == 1
        assert eigs.tobytes() == expected.tobytes()


def _bits(eigs) -> bytes:
    return np.sort_complex(np.array(eigs, dtype=complex)).tobytes()


class TestClassification:
    def test_three_types_from_synthetic_spectra(self):
        assert classify([0.5, 0.2, 0.1, 0.9]).classification == "attracting"
        assert classify([1.5, 2.0, 1.2, 3.0]).classification == "repelling"
        assert classify([0.5, 2.0, 0.1, 0.3]).classification == "saddle"
        assert classify([0.5, 1.0, 0.1, 0.3]).classification == "nonhyperbolic"
        assert classify([0.5, 1.0 + 5e-11, 0.1, 0.3]).classification == "nonhyperbolic"

    def test_reference_attracting(self):
        assert classify_lambda1(FIG1).classification == "attracting"

    def test_no_turnover_nonhyperbolic(self):
        p = ModelParams(0.0, 0.2, 0.5, 0.0, 1.0, 0.3)
        assert classify_lambda1(p).classification == "nonhyperbolic"

    def test_threshold_nonhyperbolic(self):
        p = ModelParams(0.2, 0.3, 0.5, 0.1, 1.0, 0.5)  # beta1*k1 = b + alpha
        assert classify_lambda1(p).classification == "nonhyperbolic"

    def test_reference_saddle(self):
        assert classify_lambda1(FIG2).classification == "saddle"

    def test_closed_form_matches_generic_path(self, rng):
        # agreement away from the measure-zero nonhyperbolic boundary
        checked = 0
        while checked < 500:
            p = random_admissible(rng)
            gap = p.beta1 * p.k1 - (p.b + p.alpha)
            if p.b < 1e-2 or abs(gap) < 1e-2:
                continue
            checked += 1
            closed = classify_lambda1(p).classification
            generic = classify_at(SimplexPoint(1, 0, 0, 0), p).classification
            assert closed == generic, p

    def test_generic_lambda1_spectrum_is_the_closed_form(self, rng):
        # the last rates give a J whose entries all lie below 2^-459: LAPACK
        # rescales such a matrix and returns 9.999999999999998e-162 where
        # the diagonal holds 1e-161
        rates = [random_admissible(rng) for _ in range(300)]
        for p in [*rates, ModelParams(1.0, 0.0, 0.1, 2.0, 1e-160, 1e-160)]:
            assert _bits(classify_at(LAMBDA1, p).eigenvalues) == _bits(
                classify_lambda1(p).eigenvalues), p

    def test_tiny_turnover_generic_path_agrees(self):
        # the triple eigenvalue 1 - b sits 3.8e-6 inside the unit circle; a
        # root-cluster error larger than b used to read it as a saddle
        p = ModelParams(3.8e-6, 0.6, 0.5, 0.2, 1.0, 0.5)
        closed = classify_lambda1(p)
        assert closed.classification == "attracting"
        assert classify_at(LAMBDA1, p).classification == closed.classification

    def test_lambda1_constant_exported(self):
        assert LAMBDA1.as_tuple() == (1.0, 0.0, 0.0, 0.0)
