"""Tests for the dense Hermitian SDP solver."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qdbench import sdp
from qdbench.bench import (QuadraturesWithErrors, Tomography, benchmark_general,
                           benchmark_symmetric)
from qdbench.channels import loss_channel
from qdbench.fock import DensityMatrix, noisy_coherent, rotation
from qdbench.gramopt import optimize_gram, rotation_ensemble
from qdbench.sdp import (CanonicalSDP, HadamardMaskMap, LinearMatrixMap, ScalarMap, SDPConfig,
                         SDPError, SDPProblem, SDPStatus, BlockSwapMap, hmat, hvec, solve)
from qdbench.sdp import (_congruence_matrix, _factor_schur, _gather_part, _hermitian_basis,
                         _psd_step_length, _row_order, _row_runs, _Scaling, _scatter_add,
                         _signed_rows)

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

    @pytest.mark.parametrize("m, d", [(1, 1), (2, 3), (3, 4), (4, 10)])
    def test_block_swap_closed_form_matches_basis_probe(self, m, d):
        swap = BlockSwapMap(m, d)
        closed = swap.coordinate_matrix()
        probed = LinearMatrixMap.coordinate_matrix(swap)
        assert closed.shape == probed.shape == ((m * d) ** 2, (m * d) ** 2)
        assert abs(closed - probed).max() <= 1e-15


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
        assert sol.stop_reason == "primal_infeasible"

    def test_dual_infeasible_detected(self):
        # unbounded below: minimize -Tr X over the PSD cone with no constraints
        p = SDPProblem()
        p.add_variable("X", 2)
        p.set_objective({"X": -np.eye(2)})
        sol = p.solve()
        assert sol.status is SDPStatus.DUAL_INFEASIBLE
        assert sol.stop_reason == "dual_infeasible"

    def test_stop_reason_converged(self):
        sol = _trace_min_problem().solve()
        assert sol.status is SDPStatus.OPTIMAL
        assert sol.stop_reason == "converged"

    def test_stop_reason_max_iter(self):
        sol = _trace_min_problem().solve(SDPConfig(max_iter=2))
        assert sol.status is SDPStatus.MAX_ITERATIONS
        assert sol.stop_reason == "max_iter"
        assert sol.iterations == 2

    def test_stop_reason_non_finite(self, monkeypatch):
        monkeypatch.setattr(sdp, "_factor_schur",
                            lambda assemble: lambda rhs: np.full_like(rhs, np.nan))
        sol = _trace_min_problem().solve()
        assert sol.status is SDPStatus.MAX_ITERATIONS
        assert sol.stop_reason == "non_finite"
        assert sol.iterations == 1

    def test_residuals_reported_on_optimal(self):
        sol = _trace_min_problem().solve(SDPConfig(tol=1e-9))
        assert sol.primal_residual <= 1e-9
        assert sol.dual_residual <= 1e-9


def _benchmark_problem(monkeypatch, build, *args, **kwargs):
    """The SDPProblem a benchmark builds, captured instead of solved."""

    class Built(Exception):
        pass

    def capture(prob, config=None):
        raise Built(prob)

    monkeypatch.setattr(SDPProblem, "solve", capture)
    with pytest.raises(Built) as built:
        build(*args, **kwargs)
    monkeypatch.undo()
    return built.value.args[0]


def _small_benchmark_inputs(m, cutoff):
    """Gram matrix and per-state lossy outputs of a small rotation ensemble."""
    d = cutoff + 1
    seed = noisy_coherent(0.5, 0.08, d, deficit_tol=1e-2)
    gram = optimize_gram(rotation_ensemble(seed, m), symmetric=True).gram
    u = rotation(2 * np.pi / m, d).matrix
    out = loss_channel(0.92, d)(seed).matrix
    outs = [DensityMatrix(np.linalg.matrix_power(u, k) @ out
                          @ np.linalg.matrix_power(u, k).conj().T, allow_sub_normalized=True)
            for k in range(m)]
    return gram, outs


def _errors_scenario(state):
    return QuadraturesWithErrors(state.quadrature_moments(),
                                 dict.fromkeys(("x", "p", "xx", "pp"), 0.05), 1)


class TestCongruenceMatrix:
    @settings(max_examples=60, deadline=None, database=None)
    @given(st.tuples(st.integers(1, 3), st.integers(1, 12)).flatmap(lambda nd: arrays(
        np.float64, (nd[0], 2, nd[1], nd[1]), elements=st.floats(-1.0, 1.0))))
    def test_matches_conjugated_basis(self, parts):
        """K of a stack of W is the matrix of X -> sum_n W_n X W_n."""
        r = parts[:, 0] + 1j * parts[:, 1]
        d = r.shape[-1]
        ws = r @ r.conj().swapaxes(-1, -2)
        got = _congruence_matrix(ws)
        basis = _hermitian_basis(d)
        ref = sum(hvec((w[None] @ basis) @ w[None]).T for w in ws)
        scale = max(float(np.max(np.abs(ref))), 1e-300)
        assert got.shape == (d * d, d * d)
        assert np.max(np.abs(got - ref)) <= 1e-13 * scale
        assert np.max(np.abs(got - got.T)) <= 1e-13 * scale

    def test_solve_is_bit_identical_on_both_assembly_paths(self, monkeypatch):
        """Every block of a benchmark_general problem carries the d^2 rows of
        the partial-transpose constraint, so it is assembled through K; one
        extra block with a single row adds the small-row path."""
        m, cutoff = 2, 3
        d = cutoff + 1
        gram, outs = _small_benchmark_inputs(m, cutoff)
        prob = _benchmark_problem(monkeypatch, benchmark_general, gram,
                                  [Tomography(outs[0]), _errors_scenario(outs[1])],
                                  cutoff=cutoff)
        prob.add_variable("aux", 3)
        prob.add_equality({"aux": np.eye(3)}, 1.0)

        k_dims = []
        real_k = sdp._congruence_matrix
        monkeypatch.setattr(sdp, "_congruence_matrix",
                            lambda ws: k_dims.append(ws.shape[-1]) or real_k(ws))
        first = solve(prob)
        second = solve(prob)
        assert first.status is SDPStatus.OPTIMAL
        assert set(k_dims) == {m * d}  # K for every block but the one-row one
        assert np.array_equal(first.y, second.y)
        assert first.variables.keys() == second.variables.keys()
        for name, x in first.variables.items():
            assert np.array_equal(x, second.variables[name])
        assert first.history == second.history


def _symmetric_problem(monkeypatch, scenario_kind, m=3, cutoff=4):
    gram, outs = _small_benchmark_inputs(m, cutoff)
    scenario = Tomography(outs[0]) if scenario_kind == "tomography" else _errors_scenario(outs[0])
    return _benchmark_problem(monkeypatch, benchmark_symmetric, gram, scenario, m,
                              cutoff=cutoff)


def _run_rows(pieces):
    """Sorted rows from (gap, length) pairs: one run per pair."""
    rows, at = [], 0
    for gap, length in pieces:
        at += gap
        rows.extend(range(at, at + length))
        at += length
    return np.array(rows)


class TestRowGrouping:
    @settings(max_examples=80, deadline=None, database=None)
    @given(st.one_of(
        st.lists(st.tuples(st.integers(0, 5), st.integers(1, 9)), min_size=1, max_size=12),
        st.integers(1, 30).map(lambda n: [(0, n)]),             # one run
        st.integers(1, 30).map(lambda n: [(1, 1)] * n)),        # all singletons
        st.integers(0, 2**32 - 1))
    def test_run_pair_scatter_matches_ix_reference(self, pieces, seed):
        rows = _run_rows(pieces)
        rng = np.random.default_rng(seed)
        size = int(rows[-1]) + 1 + int(rng.integers(0, 3))
        part = rng.standard_normal((rows.size, rows.size))
        ref = np.asfortranarray(rng.standard_normal((size, size)))
        got = ref.copy(order="F")
        ref[np.ix_(rows, rows)] += part.T
        runs = _row_runs(rows)
        assert len(runs) == 1 + np.count_nonzero(np.diff(rows) != 1)
        _scatter_add(got, rows, runs, part)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("scenario_kind", ["tomography", "quadratures_errors"])
    def test_blocks_of_symmetric_problem_have_few_runs(self, monkeypatch, scenario_kind):
        m = 3
        canon = _symmetric_problem(monkeypatch, scenario_kind, m=m).canonicalize()
        order = _row_order(canon.a_blocks, canon.b.size)
        assert not np.array_equal(order, np.arange(canon.b.size))
        assert np.array_equal(np.sort(order), np.arange(canon.b.size))
        for name, a in zip(canon.block_names, canon.a_blocks):
            rows = np.flatnonzero(np.diff(a.tocsr()[order].indptr))
            assert 1 <= len(_row_runs(rows)) <= (m + 1 if name.startswith("E") else 1), name

    def test_general_problem_keeps_its_row_order(self, monkeypatch):
        gram, outs = _small_benchmark_inputs(3, 3)
        prob = _benchmark_problem(monkeypatch, benchmark_general, gram,
                                  [Tomography(outs[0])] + [_errors_scenario(o) for o in outs[1:]],
                                  cutoff=3)
        canon = prob.canonicalize()
        assert np.array_equal(_row_order(canon.a_blocks, canon.b.size),
                              np.arange(canon.b.size))

    def test_canonical_blocks_store_no_zeros(self, monkeypatch):
        gram, outs = _small_benchmark_inputs(2, 3)
        problems = [_symmetric_problem(monkeypatch, kind, m=2, cutoff=3)
                    for kind in ("tomography", "quadratures_errors")]
        problems.append(_benchmark_problem(monkeypatch, benchmark_general, gram,
                                           [Tomography(outs[0]), _errors_scenario(outs[1])],
                                           cutoff=3))
        for prob in problems:
            canon = prob.canonicalize()
            for a in canon.a_blocks + [canon.a_orthant]:
                assert a.nnz == np.count_nonzero(a.data)

    def test_solution_is_in_the_callers_row_order(self, monkeypatch, rng):
        canon = _symmetric_problem(monkeypatch, "quadratures_errors", m=2, cutoff=3).canonicalize()
        perm = rng.permutation(canon.b.size)
        shuffled = CanonicalSDP(
            block_names=canon.block_names, block_dims=canon.block_dims,
            a_blocks=[a.tocsr()[perm] for a in canon.a_blocks], c_blocks=canon.c_blocks,
            a_orthant=canon.a_orthant.tocsr()[perm], c_orthant=canon.c_orthant,
            b=canon.b[perm], maximize=canon.maximize,
            row_labels=[canon.row_labels[i] for i in perm])
        first, second = solve(canon), solve(shuffled)
        assert first.status is second.status is SDPStatus.OPTIMAL
        assert np.max(np.abs(first.y[perm] - second.y)) <= 1e-8
        assert first.objective == pytest.approx(second.objective, abs=1e-8)


def _reference_scaling(x, s):
    """Nesterov-Todd scaling of one block, computed on its own."""
    def clipped_eigh(a):
        vals, vecs = np.linalg.eigh(a)
        return np.clip(vals, max(1e-250, float(vals[-1]) * 1e-17), None), vecs

    wx, vx = clipped_eigh(x)
    sqrt_x = (vx * np.sqrt(wx)) @ vx.conj().T
    x_isqrt = (vx * (1.0 / np.sqrt(wx))) @ vx.conj().T
    t = sqrt_x @ s @ sqrt_x
    wt, vt = clipped_eigh((t + t.conj().T) / 2.0)
    q = wt ** 0.25
    r = sqrt_x @ (vt * (1.0 / q)) @ vt.conj().T
    ws, vs = clipped_eigh(s)
    return {"w": r @ r.conj().T, "r": r, "r_inv": (vt * q) @ vt.conj().T @ x_isqrt,
            "x_isqrt": x_isqrt, "s_isqrt": (vs * (1.0 / np.sqrt(ws))) @ vs.conj().T}


def _random_pd(rng, n, d):
    a = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    return a @ a.conj().swapaxes(-1, -2) + 0.1 * np.eye(d)


def _random_hermitian(rng, n, d):
    a = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def _signed_permutation(rng, d, permuted):
    """Rows of +-1 at distinct columns: a random signed permutation, or the
    identity with one sign for every row."""
    n = d * d
    cols = rng.permutation(n) if permuted else np.arange(n)
    signs = rng.choice([-1.0, 1.0], n) if permuted else np.full(n, rng.choice([-1.0, 1.0]))
    return sp.csr_matrix((signs, (np.arange(n), cols)), shape=(n, n))


class TestBatchedLayer:
    @settings(max_examples=60, deadline=None, database=None)
    @given(st.integers(1, 6), st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_scaling_matches_per_block_reference(self, n, d, seed):
        rng = np.random.default_rng(seed)
        x, s = _random_pd(rng, n, d), _random_pd(rng, n, d)
        got = _Scaling(x, s)
        for i in range(n):
            for name, want in _reference_scaling(x[i], s[i]).items():
                have = getattr(got, name)[i]
                assert np.max(np.abs(have - want)) <= 1e-12 * np.max(np.abs(want)), name

    def test_step_length_is_the_per_block_minimum(self, rng):
        isqrt = _Scaling(*(2 * [_random_pd(rng, 5, 6)])).x_isqrt
        dx = 3.0 * _random_hermitian(rng, 5, 6)
        per_block = []
        for i in range(5):
            lam = np.linalg.eigvalsh(isqrt[i] @ dx[i] @ isqrt[i])[0]
            per_block.append(1.0 if lam >= -1e-14 else min(1.0, -1.0 / lam))
        assert min(per_block) < 1.0
        assert _psd_step_length(isqrt, dx) == pytest.approx(min(per_block), rel=1e-12)

    def test_step_length_is_one_on_psd_directions(self, rng):
        isqrt = _Scaling(*(2 * [_random_pd(rng, 4, 5)])).x_isqrt
        assert _psd_step_length(isqrt, _random_pd(rng, 4, 5)) == 1.0

    def test_step_length_is_zero_with_one_non_finite_block(self, rng):
        isqrt = _Scaling(*(2 * [_random_pd(rng, 4, 5)])).x_isqrt
        dx = _random_pd(rng, 4, 5)
        dx[2, 1, 3] = np.nan
        assert _psd_step_length(isqrt, dx) == 0.0

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.integers(1, 6), st.booleans(), st.integers(0, 2**32 - 1))
    def test_shared_gather_matches_the_two_sparse_products(self, d, permuted, seed):
        """Two blocks whose rows hold one +-1 each, at the same columns and with
        the same relative signs, like an F_k block and its PSD slack: one
        gather of the K of both congruences equals the sum of their parts."""
        rng = np.random.default_rng(seed)
        sub = _signed_permutation(rng, d, permuted)
        subs = (sub, rng.choice([-1.0, 1.0]) * sub)
        ws = _random_pd(rng, 2, d)
        ref = sum(s @ (s @ _congruence_matrix(w[None])).T for s, w in zip(subs, ws))
        (index, signs), (index2, signs2) = map(_signed_rows, subs)
        identity = np.array_equal(sub.indices, np.arange(d * d))
        assert (index is None) is (index2 is None) is identity
        assert (signs is None) is (signs2 is None)
        if not identity:
            assert np.array_equal(index, index2)
            assert signs is None or np.array_equal(signs, signs2)
        got = _gather_part(_congruence_matrix(ws), index, signs)
        assert got.flags.c_contiguous
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_rows_with_other_coefficients_are_not_gathered(self):
        assert _signed_rows(sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 2.0]]))) is None
        assert _signed_rows(sp.csr_matrix(np.array([[1.0, 1.0], [0.0, -1.0]]))) is None

    def test_symmetric_solves_are_bit_identical(self, monkeypatch):
        prob = _symmetric_problem(monkeypatch, "quadratures_errors", m=3)
        first, second = solve(prob), solve(prob)
        assert first.status is SDPStatus.OPTIMAL
        assert first.stop_reason == second.stop_reason == "converged"
        assert np.array_equal(first.y, second.y)
        assert first.variables.keys() == second.variables.keys()
        for name, x in first.variables.items():
            assert np.array_equal(x, second.variables[name])
        assert first.history == second.history

    @pytest.mark.parametrize("groups", [1, 2])
    def test_eigen_solves_per_size_group_per_iteration(self, monkeypatch, groups):
        """Nine 5x5 blocks (plus a 3x3 one for two size groups): at most three
        eigh calls (the scaling) and four eigvalsh calls (the step lengths) per
        size group per iteration, however many blocks a group holds."""
        prob = _symmetric_problem(monkeypatch, "quadratures_errors", m=3)
        if groups == 2:
            prob.add_variable("aux", 3)
            prob.add_equality({"aux": np.eye(3)}, 1.0)
        calls = {"eigh": 0, "eigvalsh": 0}
        for name in calls:
            def counting(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counting)
        sol = solve(prob)
        assert sol.status is SDPStatus.OPTIMAL
        assert 0 < calls["eigh"] <= 3 * groups * sol.iterations
        assert 0 < calls["eigvalsh"] <= 4 * groups * sol.iterations


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
        assembled = []

        def assemble():
            assembled.append(1)
            return np.array(mat, order="F")

        assert np.array_equal(_factor_schur(assemble)(rhs), ref)
        # one assembly per attempt, and one more for lstsq
        tries = len(JITTERS) + 1 if falls_back else JITTERS.index(jitter) + 1
        assert len(assembled) == tries

    @pytest.mark.parametrize("n", [7, 300])
    def test_failed_attempts_restore_the_matrix(self, rng, monkeypatch, n):
        """The buffer's upper triangle only matches its lower one to rounding,
        as in the solver; every attempt factors the lower triangle's matrix
        plus its jitter, and lstsq solves with that same matrix."""
        mat = _indefinite(rng, n)
        scale = float(np.mean(np.diag(mat)))
        noisy = mat + np.triu(1e-15 * rng.standard_normal((n, n)), 1)
        seen = []
        real = scipy.linalg.cho_factor

        def snapshot(a, *args, **kwargs):
            seen.append(np.tril(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "cho_factor", snapshot)
        rhs = rng.standard_normal(n)
        got = _factor_schur(lambda: np.array(noisy, order="F"))(rhs)
        assert len(seen) == len(JITTERS)
        for low, jitter in zip(seen, JITTERS):
            assert np.array_equal(low, np.tril(mat + jitter * scale * np.eye(n)))
        assert np.array_equal(got, np.linalg.lstsq(mat, rhs, rcond=None)[0])

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
        got = _factor_schur(lambda: np.array(mat, order="F"))(rhs)
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)
