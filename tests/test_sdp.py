"""Tests for the dense Hermitian SDP solver."""

import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qdbench.sdp import (CanonicalSDP, HadamardMaskMap, ScalarMap, SDPConfig, SDPError,
                         SDPProblem, SDPStatus, BlockSwapMap, hmat, hvec, realify, solve)
from qdbench.sdp import _factor_schur

from conftest import brute_negativity, dense_partial_transpose


class TestHermitianCoordinates:
    def test_round_trip(self, rng):
        for d in (1, 2, 6):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            a = (a + a.conj().T) / 2
            np.testing.assert_allclose(hmat(hvec(a), d), a, atol=1e-14)

    def test_isometry(self, rng):
        d = 5
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a = (a + a.conj().T) / 2
        b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        b = (b + b.conj().T) / 2
        assert abs(hvec(a) @ hvec(b) - np.real(np.trace(a @ b))) <= 1e-12


class TestRealify:
    def test_scalar(self):
        np.testing.assert_allclose(realify(np.array([[1.0]])), np.eye(2))

    def test_pauli_y(self):
        h = np.array([[0, -1j], [1j, 0]])
        out = realify(h)
        assert out.shape == (4, 4)
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(out)), [-1, -1, 1, 1],
                                   atol=1e-12)

    def test_spectrum_doubling(self, rng):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = (a + a.conj().T) / 2
        doubled = np.sort(np.repeat(np.linalg.eigvalsh(h), 2))
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(realify(h))), doubled,
                                   atol=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(SDPError, match="Hermitian"):
            realify(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _trace_min_problem():
    p = SDPProblem()
    p.add_variable("X", 2)
    p.set_objective({"X": np.eye(2)})
    p.add_equality({"X": np.diag([1.0, 0.0])}, 1.0)
    p.add_equality({"X": np.diag([0.0, 1.0])}, 2.0)
    return p


class TestSolveBasics:
    def test_trace_minimum_with_fixed_diagonal(self):
        sol = _trace_min_problem().solve()
        assert sol.status is SDPStatus.OPTIMAL
        assert sol.objective == pytest.approx(3.0, abs=1e-7)
        np.testing.assert_allclose(sol.variables["X"], np.diag([1.0, 2.0]), atol=1e-6)

    def test_max_offdiagonal_is_one(self):
        p = SDPProblem()
        p.add_variable("X", 2)
        p.set_objective({"X": np.array([[0, 0.5], [0.5, 0]], dtype=complex)}, maximize=True)
        p.add_equality({"X": np.diag([1.0, 0.0])}, 1.0)
        p.add_equality({"X": np.diag([0.0, 1.0])}, 1.0)
        sol = p.solve()
        assert sol.status is SDPStatus.OPTIMAL
        assert sol.objective == pytest.approx(1.0, abs=1e-7)

    def test_negativity_upsilon_form(self, rng):
        psi = np.zeros(4, dtype=complex)
        psi[0], psi[3] = np.sqrt(0.62), np.sqrt(0.38)
        tau = np.outer(psi, psi.conj())
        pt = dense_partial_transpose(tau, 2, 2)
        oracle = brute_negativity(tau, 2, 2)
        p = SDPProblem()
        p.add_variable("tau_minus", 4)
        p.set_objective({"tau_minus": np.eye(4)})
        p.add_psd_constraint([("tau_minus", ScalarMap(4))], constant=pt)
        sol = p.solve()
        assert sol.status is SDPStatus.OPTIMAL
        assert sol.objective == pytest.approx(oracle, abs=1e-6)

    def test_interval_constraint(self):
        p = SDPProblem()
        p.add_variable("X", 2)
        p.set_objective({"X": np.diag([1.0, 0.0])})
        p.add_interval({"X": np.diag([1.0, 0.0])}, 0.3, 0.7)
        p.add_equality({"X": np.diag([0.0, 1.0])}, 1.0)
        sol = p.solve()
        assert sol.status is SDPStatus.OPTIMAL
        assert sol.objective == pytest.approx(0.3, abs=1e-7)

    def test_hadamard_mask_map(self, rng):
        # max <J, X o mask> subject to unit diagonal: PSD slack route
        mask = np.array([[0.0, 1.0], [1.0, 0.0]])
        p = SDPProblem()
        p.add_variable("X", 2)
        p.add_variable("S", 2)  # plain PSD witness for the masked part
        p.set_objective({"X": np.array([[0, 0.5], [0.5, 0]], dtype=complex)}, maximize=True)
        p.add_equality({"X": np.diag([1.0, 0.0])}, 1.0)
        p.add_equality({"X": np.diag([0.0, 1.0])}, 1.0)
        p.add_psd_constraint([("X", HadamardMaskMap(mask)), ("S", ScalarMap(2, -1.0))],
                             constant=np.eye(2) * 0.0)
        sol = p.solve()
        assert sol.status is SDPStatus.OPTIMAL

    def test_block_swap_map_adjointness(self, rng):
        m, d = 3, 4
        swap = BlockSwapMap(m, d)
        a = rng.standard_normal((m * d, m * d)) + 1j * rng.standard_normal((m * d, m * d))
        a = (a + a.conj().T) / 2
        b = rng.standard_normal((m * d, m * d)) + 1j * rng.standard_normal((m * d, m * d))
        b = (b + b.conj().T) / 2
        lhs = np.real(np.trace(swap.apply(a) @ b))
        rhs = np.real(np.trace(a @ swap.adjoint(b)))
        assert abs(lhs - rhs) <= 1e-10
        np.testing.assert_allclose(swap.apply(a),
                                   dense_partial_transpose(a, m, d), atol=1e-14)


class TestSolverContracts:
    def test_weak_duality_every_iteration(self, rng):
        p = SDPProblem()
        p.add_variable("X", 4)
        c = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        p.set_objective({"X": (c + c.conj().T) / 2})
        p.add_equality({"X": np.eye(4)}, 1.0)
        sol = p.solve()
        for h in sol.history:
            assert h["primal_objective"] - h["dual_objective"] >= -1e-9
        # at the solution the raw dual b.y also satisfies weak duality
        assert sol.history[-1]["primal_objective"] - sol.history[-1]["dual_objective_raw"] \
            >= -1e-9

    def test_determinism_bit_identical(self):
        sol1 = _trace_min_problem().solve()
        sol2 = _trace_min_problem().solve()
        assert len(sol1.history) == len(sol2.history)
        for h1, h2 in zip(sol1.history, sol2.history):
            assert h1["mu"] == h2["mu"]
            assert h1["primal_objective"] == h2["primal_objective"]
        assert np.array_equal(sol1.variables["X"], sol2.variables["X"])

    def test_objective_scaling(self, rng):
        def solve_scaled(c):
            p = SDPProblem()
            p.add_variable("X", 3)
            p.set_objective({"X": c * np.diag([1.0, 2.0, 3.0])})
            p.add_equality({"X": np.eye(3)}, 1.0)
            return p.solve()

        base = solve_scaled(1.0)
        scaled = solve_scaled(7.5)
        assert scaled.objective == pytest.approx(7.5 * base.objective, rel=1e-6)
        np.testing.assert_allclose(scaled.variables["X"], base.variables["X"], atol=1e-6)

    def test_primal_infeasible_detected(self):
        p = SDPProblem()
        p.add_variable("X", 2)
        p.set_objective({"X": np.eye(2)})
        p.add_equality({"X": np.diag([1.0, 0.0])}, 1.0)
        p.add_equality({"X": np.diag([1.0, 0.0])}, 2.0)
        sol = p.solve()
        assert sol.status is SDPStatus.PRIMAL_INFEASIBLE

    def test_dual_infeasible_detected(self):
        # unbounded below: minimize -Tr X over the PSD cone with no constraints
        p = SDPProblem()
        p.add_variable("X", 2)
        p.set_objective({"X": -np.eye(2)})
        sol = p.solve()
        assert sol.status is SDPStatus.DUAL_INFEASIBLE

    def test_residuals_reported_on_optimal(self):
        sol = _trace_min_problem().solve(SDPConfig(tol=1e-9))
        assert sol.primal_residual <= 1e-9
        assert sol.dual_residual <= 1e-9


class TestValidation:
    def test_unknown_variable_in_objective(self):
        p = SDPProblem()
        p.add_variable("X", 2)
        with pytest.raises(SDPError, match="unknown variable"):
            p.set_objective({"Y": np.eye(2)})

    def test_non_hermitian_coefficient(self):
        p = SDPProblem()
        p.add_variable("X", 2)
        with pytest.raises(SDPError, match="Hermitian"):
            p.add_equality({"X": np.array([[0.0, 1.0], [0.0, 0.0]])}, 0.0)

    def test_interval_ordering(self):
        p = SDPProblem()
        p.add_variable("X", 2)
        with pytest.raises(SDPError, match="lower"):
            p.add_interval({"X": np.eye(2)}, 1.0, 0.0, label="bad-interval")

    def test_dimension_mismatch(self):
        p = SDPProblem()
        p.add_variable("X", 2)
        with pytest.raises(SDPError, match="2x2"):
            p.add_equality({"X": np.eye(3)}, 1.0)

    def test_duplicate_variable(self):
        p = SDPProblem()
        p.add_variable("X", 2)
        with pytest.raises(SDPError, match="already declared"):
            p.add_variable("X", 3)

    def test_psd_constraint_mixed_dims(self):
        p = SDPProblem()
        p.add_variable("X", 2)
        p.add_variable("Y", 3)
        with pytest.raises(SDPError, match="dimension"):
            p.add_psd_constraint([("X", ScalarMap(2)), ("Y", ScalarMap(3))])


class TestDumpLoad:
    def test_canonical_round_trip(self, tmp_path):
        p = _trace_min_problem()
        canon = p.canonicalize()
        path = tmp_path / "problem.json"
        canon.dump(path)
        again = CanonicalSDP.load(path)
        sol = solve(again)
        assert sol.status is SDPStatus.OPTIMAL
        assert sol.objective == pytest.approx(3.0, abs=1e-7)

    def test_json_is_self_describing(self, tmp_path):
        canon = _trace_min_problem().canonicalize()
        payload = canon.dump_json_dict()
        assert set(payload) >= {"block_names", "block_dims", "a_blocks", "c_blocks", "b"}
        json.dumps(payload)  # serializable


JITTERS = (0.0, 1e-13, 1e-10, 1e-7)


def _reference_schur_solve(mat, rhs):
    """Factor a fresh jittered copy per attempt; return (solution, jitter or None)."""
    scale = float(np.mean(np.diag(mat))) or 1.0
    for jitter in JITTERS:
        try:
            cho = scipy.linalg.cho_factor(mat + jitter * scale * np.eye(mat.shape[0]),
                                          lower=True, check_finite=False)
        except scipy.linalg.LinAlgError:
            continue
        return scipy.linalg.cho_solve(cho, rhs, check_finite=False), jitter
    return np.linalg.lstsq(mat, rhs, rcond=None)[0], None


def _rank_deficient(rng, n):
    b = rng.standard_normal((n, n // 2))
    b[n // 3] = 0.0  # an exactly zero pivot: the unjittered factorization must fail
    mat = b @ b.T
    return (mat + mat.T) / 2.0


def _indefinite(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    mat = (q * np.linspace(-1.0, 2.0, n)) @ q.T
    return (mat + mat.T) / 2.0


class TestSchurFactorization:
    def test_factored_at_most_once_per_iteration(self, monkeypatch):
        calls = []
        real = scipy.linalg.cho_factor

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "cho_factor", counting)
        psi = np.zeros(4, dtype=complex)
        psi[0], psi[3] = np.sqrt(0.62), np.sqrt(0.38)
        p = SDPProblem()
        p.add_variable("tau_minus", 4)
        p.set_objective({"tau_minus": np.eye(4)})
        p.add_psd_constraint([("tau_minus", ScalarMap(4))],
                             constant=dense_partial_transpose(np.outer(psi, psi.conj()), 2, 2))
        sol = p.solve()
        assert sol.status is SDPStatus.OPTIMAL
        assert 0 < len(calls) <= sol.iterations

    @pytest.mark.parametrize("n", [7, 300])
    @pytest.mark.parametrize("build, falls_back", [(_rank_deficient, False), (_indefinite, True)])
    def test_matches_jittered_copy_reference(self, rng, n, build, falls_back):
        mat = build(rng, n)
        rhs = rng.standard_normal(n)
        ref, jitter = _reference_schur_solve(mat, rhs)
        assert jitter is None if falls_back else jitter > 0.0
        buf = np.asfortranarray(mat)
        assert np.array_equal(_factor_schur(buf)(rhs), ref)
        if falls_back:
            assert np.array_equal(buf, mat)  # lstsq ran on the restored matrix

    @pytest.mark.parametrize("n", [7, 300])
    def test_failed_attempts_restore_the_matrix(self, rng, monkeypatch, n):
        mat = _indefinite(rng, n)
        scale = float(np.mean(np.diag(mat)))
        seen = []
        real = scipy.linalg.cho_factor

        def snapshot(a, *args, **kwargs):
            seen.append(np.array(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "cho_factor", snapshot)
        _factor_schur(np.asfortranarray(mat))
        assert len(seen) == len(JITTERS)
        for got, jitter in zip(seen, JITTERS):
            assert np.array_equal(got, mat + jitter * scale * np.eye(n))

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0)),
        arrays(np.float64, n, elements=st.floats(-10.0, 10.0)))))
    def test_spd_solutions_match_dense_solve(self, data):
        b, rhs = data
        n = rhs.size
        mat = b @ b.T + n * np.eye(n)
        mat = (mat + mat.T) / 2.0
        ref = np.linalg.solve(mat, rhs)
        got = _factor_schur(np.asfortranarray(mat))(rhs)
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)
