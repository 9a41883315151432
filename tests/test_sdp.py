"""Tests for the dense Hermitian SDP solver."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qdbench import sdp
from qdbench.bench import (Quadratures, QuadraturesWithErrors, Tomography,
                           benchmark_general, benchmark_symmetric)
from qdbench.channels import loss_channel
from qdbench.fock import DensityMatrix, noisy_coherent, rotation
from qdbench.gramopt import optimize_gram, rotation_ensemble
from qdbench.sdp import (CanonicalSDP, SDPConfig, SDPError, SDPProblem, SDPStatus,
                         block_swap_matrix, hmat, hvec, mask_matrix, solve)
from qdbench.sdp import (_congruence_rows, _entry_pairs, _factor_schur, _index, _Packed,
                         _psd_step_length, _real_rows, _row_order, _Scaling, _scatter_add,
                         _scatter_plan, _schur_terms)

from conftest import brute_negativity, dense_partial_transpose


def _hermitian_basis(d):
    """Stack (d^2, d, d) of the orthonormal Hermitian basis in hvec order."""
    return hmat(np.eye(d * d), d)


def _basis_k(ws):
    """K of X -> sum_n W_n X W_n in hvec coordinates, one basis matrix at a
    time: the reference for the row kernel.  A real stack keeps the real
    coordinate group, the first d(d+1)/2."""
    d = ws.shape[-1]
    basis = _hermitian_basis(d)
    k = sum(hvec((w[None] @ basis) @ w[None]).T for w in ws)
    half = d * (d + 1) // 2
    return k if np.iscomplexobj(ws) else k[:half, :half]


def _kernel_coords(at, d):
    """hvec coordinate of each row the kernel forms for the entry pairs
    ``at`` (the diagonal ones first) of a complex stack: a pair's real part,
    then its imaginary part."""
    off = at[at >= d]
    return np.concatenate([at[at < d], np.stack([off, off + d * (d - 1) // 2], 1).ravel()])


def _k_matrix(ws):
    """K in hvec order: the row kernel at every entry pair."""
    d = ws.shape[-1]
    pairs = _entry_pairs(d)
    k = _congruence_rows(ws, pairs, pairs)
    if np.iscomplexobj(ws):
        inv = np.argsort(_kernel_coords(np.arange(pairs[0].size), d))
        k = k[np.ix_(inv, inv)]
    return k


def _packed(mat):
    """The lower triangle of a symmetric matrix, packed."""
    return _Packed(mat.shape[0], scipy.linalg.lapack.dtrttf(np.asfortranarray(mat), uplo="L")[0])


def _unpacked(packed):
    """The lower triangle that a :class:`_Packed` holds, as an m x m array."""
    return scipy.linalg.lapack.dtfttr(packed.m, packed.buf, uplo="L")[0]


def _probed_coordinate_matrix(linear_map, d):
    """Matrix of a real-linear map of d x d Hermitian matrices in hvec
    coordinates, one basis matrix at a time: the reference for the closed
    forms."""
    return hvec(np.stack([linear_map(b) for b in _hermitian_basis(d)])).T


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
        p.add_psd_constraint([("tau_minus", sp.identity(16))], constant=pt)
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

    @pytest.mark.parametrize("coeff", [
        np.diag([1.0, 0.0, 2.0]), np.eye(3) + np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]])],
        ids=["real", "complex"])
    def test_interval_is_two_1x1_slacks_and_two_equalities(self, coeff):
        """An interval written by hand as two 1x1 variables and the rows
        f - s_lo == lo and s_lo + s_hi == hi - lo solves bit-identically to
        add_interval, over real blocks or complex ones."""
        def solved(by_hand):
            p = SDPProblem()
            p.add_variable("X", 3)
            p.set_objective({"X": np.diag([3.0, 2.0, 1.0])})
            p.add_equality({"X": np.eye(3)}, 1.0)
            if by_hand:
                p.add_variable("s_lo", 1)
                p.add_variable("s_hi", 1)
                p.add_equality({"X": coeff, "s_lo": -np.eye(1)}, 1.1)
                p.add_equality({"s_lo": np.eye(1), "s_hi": np.eye(1)}, 1.7 - 1.1)
            else:
                p.add_interval({"X": coeff}, 1.1, 1.7)
            return p.solve()

        interval, by_hand = solved(False), solved(True)
        assert interval.status is SDPStatus.OPTIMAL
        assert interval.objective == by_hand.objective
        assert np.array_equal(interval.y, by_hand.y)
        assert interval.history == by_hand.history
        assert [x.tobytes() for x in interval.variables.values()] == \
            [x.tobytes() for x in by_hand.variables.values()]

    def test_hadamard_mask_map(self, rng):
        # max <J, X o mask> subject to unit diagonal: PSD slack route
        mask = np.array([[0.0, 1.0], [1.0, 0.0]])
        p = SDPProblem()
        p.add_variable("X", 2)
        p.add_variable("S", 2)  # plain PSD witness for the masked part
        p.set_objective({"X": np.array([[0, 0.5], [0.5, 0]], dtype=complex)}, maximize=True)
        p.add_equality({"X": np.diag([1.0, 0.0])}, 1.0)
        p.add_equality({"X": np.diag([0.0, 1.0])}, 1.0)
        p.add_psd_constraint([("X", mask_matrix(mask)), ("S", -sp.identity(4))],
                             constant=np.eye(2) * 0.0)
        sol = p.solve()
        assert sol.status is SDPStatus.OPTIMAL

    def test_block_swap_map_adjointness(self, rng):
        m, d = 3, 4
        swap = block_swap_matrix(m, d)
        a = rng.standard_normal((m * d, m * d)) + 1j * rng.standard_normal((m * d, m * d))
        a = (a + a.conj().T) / 2
        b = rng.standard_normal((m * d, m * d)) + 1j * rng.standard_normal((m * d, m * d))
        b = (b + b.conj().T) / 2
        assert abs(hvec(b) @ (swap @ hvec(a)) - hvec(a) @ (swap @ hvec(b))) <= 1e-10
        np.testing.assert_allclose(swap @ hvec(a), hvec(dense_partial_transpose(a, m, d)),
                                   atol=1e-14)

    @pytest.mark.parametrize("m, d", [(1, 1), (2, 3), (3, 4), (4, 10)])
    def test_block_swap_closed_form_matches_basis_probe(self, m, d):
        closed = block_swap_matrix(m, d)
        probed = _probed_coordinate_matrix(lambda x: dense_partial_transpose(x, m, d), m * d)
        assert closed.shape == probed.shape == ((m * d) ** 2, (m * d) ** 2)
        assert np.max(np.abs(closed.toarray() - probed)) <= 1e-15

    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_scalar_and_mask_closed_forms_match_basis_probe(self, rng, d):
        mask = rng.integers(0, 2, (d, d)).astype(float)
        mask = np.triu(mask) + np.triu(mask, 1).T
        for closed, linear_map in ((-2.5 * sp.identity(d * d), lambda x: -2.5 * x),
                                   (mask_matrix(mask), lambda x: mask * x)):
            probed = _probed_coordinate_matrix(linear_map, d)
            assert np.max(np.abs(closed.toarray() - probed)) <= 1e-15


_PROBLEM_DIMS = {"A": 4, "B": 4, "C": 3, "D": 6}
_CONSTRAINT_KINDS = ("equality", "interval", "entries", "psd")


def _add_random_constraint(prob, kind, xs, rng, real=False):
    """Add one random constraint of the given kind to ``prob``; return its
    rows' functionals evaluated directly on the dense Hermitian ``xs`` (a PSD
    constraint's slack gets a random value in ``xs``, an interval's two 1x1
    slacks none), and its targets.  With ``real``, every coefficient, target
    and constant is real symmetric, so the rows are invariant under complex
    conjugation."""
    def hermitian(d):
        a = _random_hermitian(rng, 1, d)[0]
        return a.real if real else a

    names = list(_PROBLEM_DIMS)
    if kind in ("equality", "interval"):
        used = rng.choice(names, size=int(rng.integers(1, len(names) + 1)), replace=False)
        coeffs = {v: hermitian(_PROBLEM_DIMS[v]) for v in used}
        target = float(rng.standard_normal())
        value = sum(np.trace(c @ xs[v]).real for v, c in coeffs.items())
        if kind == "equality":
            prob.add_equality(coeffs, target)
            return [value], [target]
        prob.add_interval(coeffs, target, target + 1.0)
        return [value, 0.0], [target, 1.0]  # f - s_lo == lo, s_lo + s_hi == hi - lo
    if kind == "entries":
        used = rng.choice(names, size=int(rng.integers(1, len(names) + 1)), replace=False)
        room = min(_PROBLEM_DIMS[v] for v in used)
        t = int(rng.integers(1, room + 1))
        offset = int(rng.integers(0, room - t + 1))
        target = hermitian(t)
        prob.add_entry_equalities(list(used), target, offset=offset)
        z = sum(xs[v][offset:offset + t, offset:offset + t] for v in used)
        iu, ju = np.triu_indices(t, 1)

        def entries(a):
            pairs = np.stack([a[iu, ju].real, a[iu, ju].imag], axis=1).ravel()
            return np.concatenate([a.diagonal().real, pairs])

        return entries(z), entries(target)
    dout = int(rng.choice([3, 4, 6]))
    same = [v for v in names if _PROBLEM_DIMS[v] == dout]
    swaps = {3: [(1, 3), (3, 1)], 4: [(2, 2)], 6: [(2, 3), (3, 2)]}[dout]
    terms, value = [], np.zeros((dout, dout), dtype=complex)
    for _ in range(int(rng.integers(1, 4))):
        var = str(rng.choice(same))
        x = xs[var]
        form = rng.choice(["scalar", "mask", "swap"])
        if form == "scalar":
            c = float(rng.standard_normal())
            terms.append((var, c * sp.identity(dout * dout)))
            value += c * x
        elif form == "mask":
            mask = rng.integers(0, 2, (dout, dout)).astype(float)
            mask = np.triu(mask) + np.triu(mask, 1).T
            terms.append((var, mask_matrix(mask)))
            value += mask * x
        else:
            m, d = swaps[int(rng.integers(len(swaps)))]
            terms.append((var, block_swap_matrix(m, d)))
            value += dense_partial_transpose(x, m, d)
    constant = hermitian(dout)
    slack = prob.add_psd_constraint(terms, constant=constant)
    xs[slack] = _random_hermitian(rng, 1, dout)[0]
    in_pairs = _kernel_coords(np.arange(dout * (dout + 1) // 2), dout)
    return hvec(xs[slack] - value)[in_pairs], hvec(constant)[in_pairs]


class TestConstraintRows:
    @settings(max_examples=60, deadline=None, database=None)
    @given(st.lists(st.sampled_from(_CONSTRAINT_KINDS), min_size=1, max_size=8),
           st.integers(0, 2**32 - 1))
    def test_canonical_rows_evaluate_each_functional(self, kinds, seed):
        """A applied to hvec(X_v) gives every row's functional of the dense
        X_v, in the order the rows were added, with b holding their targets.
        An entrywise pin and a PSD constraint add their rows entry pair by
        entry pair: the diagonal entries, then each off-diagonal pair's real
        part followed by its imaginary part.  An interval adds two 1x1 slack
        blocks s_lo and s_hi, with -1 from s_lo on its row and +1 from each on
        the next row, whose target is hi - lo."""
        rng = np.random.default_rng(seed)
        prob = SDPProblem()
        for name, d in _PROBLEM_DIMS.items():
            prob.add_variable(name, d)
        xs = {name: _random_hermitian(rng, 1, d)[0] for name, d in _PROBLEM_DIMS.items()}
        values, targets, intervals = [], [], []
        for kind in kinds:
            if kind == "interval":
                intervals.append(len(values))
            row_values, row_targets = _add_random_constraint(prob, kind, xs, rng)
            values.extend(row_values)
            targets.extend(row_targets)
        canon = prob.canonicalize()
        n = len(values)
        assert canon.b.size == n
        blocks = dict(zip(canon.block_names, canon.a_blocks))
        got = sum(blocks[name] @ hvec(x) for name, x in xs.items())
        assert np.max(np.abs(got - values)) <= 1e-12 * (1.0 + np.max(np.abs(values)))
        assert np.max(np.abs(canon.b - targets)) <= 1e-15 * (1.0 + np.max(np.abs(targets)))
        slacks = [(name, d) for name, d in zip(canon.block_names, canon.block_dims)
                  if name not in xs]
        assert len(slacks) == 2 * len(intervals)
        for k, row in enumerate(intervals):
            (s_lo, d_lo), (s_hi, d_hi) = slacks[2 * k:2 * k + 2]
            assert d_lo == d_hi == 1
            want_lo, want_hi = np.zeros((n, 1)), np.zeros((n, 1))
            want_lo[row], want_lo[row + 1], want_hi[row + 1] = -1.0, 1.0, 1.0
            assert np.array_equal(blocks[s_lo].toarray(), want_lo)
            assert np.array_equal(blocks[s_hi].toarray(), want_hi)

    @pytest.mark.parametrize("seed", range(4))
    def test_canonical_blocks_match_a_per_variable_scan(self, seed):
        """The gather by index arithmetic gives every variable the CSR matrix,
        to the bit and in index dtype, that scipy's COO-to-CSR conversion of
        the entries stored for that variable gives."""
        rng = np.random.default_rng(seed)
        prob = SDPProblem()
        for name, d in _PROBLEM_DIMS.items():
            prob.add_variable(name, d)
        xs = {name: _random_hermitian(rng, 1, d)[0] for name, d in _PROBLEM_DIMS.items()}
        for kind in rng.permutation(_CONSTRAINT_KINDS * 3):
            _add_random_constraint(prob, str(kind), xs, rng)
        canon = prob.canonicalize()
        m = canon.b.size
        for name, d, got in zip(canon.block_names, canon.block_dims, canon.a_blocks):
            parts = prob._entries[name]
            rows = np.concatenate([np.zeros(0, dtype=int)] + [r for r, _, _ in parts])
            cols = np.concatenate([np.zeros(0, dtype=int)] + [c for _, c, _ in parts])
            vals = np.concatenate([np.zeros(0)] + [v for _, _, v in parts])
            want = sp.csr_matrix((vals, (rows, cols)), shape=(m, d * d))
            for field in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), (name, field)
                assert getattr(got, field).dtype == getattr(want, field).dtype
        assert np.array_equal(canon.b, np.concatenate(prob._targets))
        assert len(canon.block_names) == len(_PROBLEM_DIMS) + 2 * 3 + 3  # interval, PSD slacks

    def test_entry_pin_running_past_its_variable_is_rejected(self):
        p = SDPProblem()
        p.add_variable("X", 4)
        p.add_entry_equalities(["X"], np.eye(2), offset=2)
        with pytest.raises(SDPError, match="runs past variable 'X'"):
            p.add_entry_equalities(["X"], np.eye(2), offset=3)

    def test_unknown_variable_fails_at_add_time(self):
        p = SDPProblem()
        p.add_variable("X", 2)
        with pytest.raises(SDPError, match="unknown variable 'Y'"):
            p.add_equality({"Y": np.eye(2)}, 1.0)
        with pytest.raises(SDPError, match="unknown variable 'Y'"):
            p.add_entry_equalities(["Y"], np.eye(2))
        with pytest.raises(SDPError, match="unknown variable 'Y'"):
            p.add_psd_constraint([("Y", sp.identity(4))])


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
                            lambda assemble: (lambda rhs: np.full_like(rhs, np.nan), 0))
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
    u = rotation(2 * np.pi / m, d)
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
        np.float64, (nd[0], 2, nd[1], nd[1]), elements=st.floats(-1.0, 1.0))),
        st.integers(0, 2**32 - 1))
    def test_matches_conjugated_basis(self, parts, seed):
        """The rows of K that the kernel forms at every entry pair are the
        matrix of X -> sum_n W_n X W_n; at a random subset of row and column
        pairs, in random order, they are its rows and columns there."""
        r = parts[:, 0] + 1j * parts[:, 1]
        d = r.shape[-1]
        ws = r @ r.conj().swapaxes(-1, -2)
        got = _k_matrix(ws)
        ref = _basis_k(ws)
        scale = max(float(np.max(np.abs(ref))), 1e-300)
        assert got.shape == (d * d, d * d)
        assert np.max(np.abs(got - ref)) <= 1e-13 * scale
        assert np.max(np.abs(got - got.T)) <= 1e-13 * scale
        rng = np.random.default_rng(seed)
        pair_i, pair_j = _entry_pairs(d)
        n = pair_i.size

        def pick():
            """A random subset of the entry pairs, the diagonal ones first."""
            at = rng.permutation(n)[:int(rng.integers(1, n + 1))]
            return np.concatenate([at[at < d], at[at >= d]])

        at_r, at_c = pick(), pick()
        rows = _congruence_rows(ws, (pair_i[at_r], pair_j[at_r]), (pair_i[at_c], pair_j[at_c]))
        want = ref[np.ix_(_kernel_coords(at_r, d), _kernel_coords(at_c, d))]
        assert np.max(np.abs(rows - want)) <= 1e-13 * scale

    @settings(max_examples=40, deadline=None, database=None)
    @given(st.tuples(st.integers(1, 3), st.integers(1, 12)).flatmap(lambda nd: arrays(
        np.float64, (nd[0], nd[1], nd[1]), elements=st.floats(-1.0, 1.0))))
    def test_real_stack_gives_the_real_square(self, r):
        """For real W, K has no entry between the real and imaginary coordinate
        groups, and a real stack forms exactly its real square."""
        d = r.shape[-1]
        half = d * (d + 1) // 2
        ws = r @ r.swapaxes(-1, -2)
        full = _k_matrix(ws.astype(complex))
        assert np.all(full[:half, half:] == 0.0) and np.all(full[half:, :half] == 0.0)
        assert np.array_equal(_k_matrix(ws), full[:half, :half])

    def test_solve_is_bit_identical_with_k_for_every_block(self, monkeypatch):
        """Every block is assembled through rows of K: the blocks of a
        benchmark_general problem, which carry the d^2 rows of the
        partial-transpose constraint, its 1x1 interval slacks, and one extra
        block with a single row."""
        m, cutoff = 2, 3
        d = cutoff + 1
        gram, outs = _small_benchmark_inputs(m, cutoff)
        prob = _benchmark_problem(monkeypatch, benchmark_general, gram,
                                  [Tomography(outs[0]), _errors_scenario(outs[1])],
                                  cutoff=cutoff)
        prob.add_variable("aux", 3)
        prob.add_equality({"aux": np.eye(3)}, 1.0)

        k_dims = []
        real_k = sdp._congruence_rows
        monkeypatch.setattr(sdp, "_congruence_rows",
                            lambda ws, *args: k_dims.append(ws.shape[-1]) or real_k(ws, *args))
        first = solve(prob)
        second = solve(prob)
        assert first.status is SDPStatus.OPTIMAL
        assert set(k_dims) == {m * d, 3, 1}
        assert np.array_equal(first.y, second.y)
        assert first.variables.keys() == second.variables.keys()
        for name, x in first.variables.items():
            assert np.array_equal(x, second.variables[name])
        assert first.history == second.history


def _symmetric_problem(monkeypatch, scenario_kind, m=3, cutoff=4):
    """The interval scenario reads the seed output turned by pi/4, so that
    neither its <x> nor its <p> interval admits 0 and the problem keeps its
    <p> row and the complex path.  An output-side phase keeps the joint state
    covariant with the same Gram matrix, so the problem stays feasible."""
    gram, outs = _small_benchmark_inputs(m, cutoff)
    if scenario_kind == "tomography":
        scenario = Tomography(outs[0])
    else:
        u = rotation(np.pi / 4, cutoff + 1)
        scenario = _errors_scenario(DensityMatrix(u @ outs[0].matrix @ u.conj().T,
                                                  allow_sub_normalized=True))
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


_RUN_PIECES = st.one_of(
    st.lists(st.tuples(st.integers(0, 5), st.integers(1, 9)), min_size=1, max_size=12),
    st.integers(1, 30).map(lambda n: [(0, n)]),             # one run
    st.integers(1, 30).map(lambda n: [(1, 1)] * n))         # all singletons


def _shuffled(canon, perm):
    """The problem with its rows in the order ``perm``."""
    return CanonicalSDP(
        block_names=canon.block_names, block_dims=canon.block_dims,
        a_blocks=[a.tocsr()[perm] for a in canon.a_blocks], c_blocks=canon.c_blocks,
        b=canon.b[perm], maximize=canon.maximize)


def _in_solver_order(canon, y):
    """y in the row order the solver works in (the rows on real parts of a
    conjugation-invariant problem, grouped by ``_row_order``), padded with
    zeros to the caller's row count: a y that was never mapped back."""
    kept = _real_rows(canon)
    rows = np.arange(canon.b.size) if kept is None else kept
    order = _row_order([np.diff(a.tocsr().indptr)[rows] for a in canon.a_blocks],
                       canon.block_dims)
    assert not np.array_equal(order, np.arange(rows.size))
    return np.concatenate([y[rows[order]], np.zeros(canon.b.size - rows.size)])


def _gives_the_dual_objective(canon, sol, y):
    """b . y equals the solve's objective within its duality gap, plus the
    tolerance for the residual terms of objective - b . y."""
    return abs(canon.b @ y - sol.objective) <= sol.duality_gap + SDPConfig().tol


def _check_y_order(canon, perm):
    """Solve the problem and a row-shuffled copy: each y, in its caller's row
    order, gives that problem's dual objective, and the shuffled solve's y
    left in the solver's row order does not."""
    shuffled = _shuffled(canon, perm)
    first, second = solve(canon), solve(shuffled)
    assert first.status is second.status is SDPStatus.OPTIMAL
    assert _gives_the_dual_objective(canon, first, first.y)
    assert _gives_the_dual_objective(shuffled, second, second.y)
    assert not _gives_the_dual_objective(shuffled, second, _in_solver_order(shuffled, second.y))
    assert first.objective == pytest.approx(second.objective, abs=1e-8)
    return first, second


class TestRowGrouping:
    @settings(max_examples=120, deadline=None, database=None)
    @given(_RUN_PIECES, _RUN_PIECES, st.integers(0, 4), st.sampled_from([1, 3, sdp.DIAG_STRIP]),
           st.integers(0, 2**32 - 1))
    def test_run_pair_scatter_matches_ix_reference(self, pieces, pieces_j, shift, strip, seed):
        """part[a, b] is S[rows_i[a], rows_j[b]] of a symmetric S, added to the
        lower triangle from the side the packed views hold it: columns from
        the row on in rows before k = ceil(m/2), from k up to the row after
        it.  By slice adds, for odd and even m from 1 up, runs on both sides
        of row k and across the diagonal, and diagonal strips of 1, 3 or the
        default number of rows."""
        rows, rows_j = _run_rows(pieces), _run_rows(pieces_j) + shift
        rng = np.random.default_rng(seed)
        m = max(int(rows[-1]), int(rows_j[-1])) + 1 + int(rng.integers(0, 2))
        k = (m + 1) // 2
        part = rng.standard_normal((rows.size, rows_j.size))
        base = rng.standard_normal((m, m))
        ref = np.tril(base)
        r, c = rows[:, None], rows_j[None, :]
        ii, jj = np.nonzero(np.where(r < k, c >= r, (c >= k) & (c <= r)))
        low, high = np.minimum(rows[ii], rows_j[jj]), np.maximum(rows[ii], rows_j[jj])
        ref[high, low] += part[ii, jj]
        default = sdp.DIAG_STRIP
        sdp.DIAG_STRIP = strip
        try:
            runs = _index(rows)
            plan = _scatter_plan(runs, _index(rows_j), k)
        finally:
            sdp.DIAG_STRIP = default
        assert len(runs) == 1 + np.count_nonzero(np.diff(rows) != 1)
        packed = _packed(base)
        _scatter_add(packed, plan, part)
        assert np.array_equal(_unpacked(packed), ref)

    @pytest.mark.parametrize("scenario_kind", ["tomography", "quadratures_errors"])
    def test_blocks_of_symmetric_problem_have_few_runs(self, monkeypatch, scenario_kind):
        """At most M + 1 runs for an E_k block, one for an F_k or PSD slack
        block, and at most two for a 1x1 interval slack: its interval row
        among the rows on the E blocks, and its row s_lo + s_hi == hi - lo."""
        m = 3
        canon = _symmetric_problem(monkeypatch, scenario_kind, m=m).canonicalize()
        order = _row_order([np.diff(a.indptr) for a in canon.a_blocks], canon.block_dims)
        assert not np.array_equal(order, np.arange(canon.b.size))
        assert np.array_equal(np.sort(order), np.arange(canon.b.size))
        n_slack = 0
        for name, d, a in zip(canon.block_names, canon.block_dims, canon.a_blocks):
            rows = np.flatnonzero(np.diff(a.tocsr()[order].indptr))
            runs = 1 + np.count_nonzero(np.diff(rows) != 1)
            n_slack += d == 1
            assert 1 <= runs <= (m + 1 if name.startswith("E") else 2 if d == 1 else 1), name
        assert n_slack == (0 if scenario_kind == "tomography" else 8)

    def test_general_problem_keeps_its_row_order(self, monkeypatch):
        """The rows of benchmark_general are grouped as added, so the solver
        keeps their order, except that each interval's row on its two 1x1
        slacks alone moves to the end, in order."""
        gram, outs = _small_benchmark_inputs(3, 3)
        for scenarios, n_moved in (([Tomography(o) for o in outs], 0),
                                   ([Tomography(outs[0])] + [_errors_scenario(o) for o in outs[1:]],
                                    8)):
            prob = _benchmark_problem(monkeypatch, benchmark_general, gram, scenarios, cutoff=3)
            canon = prob.canonicalize()
            on_slacks_only = np.all([np.diff(a.tocsr().indptr) == 0 for a, d in
                                     zip(canon.a_blocks, canon.block_dims) if d > 1], axis=0)
            assert np.count_nonzero(on_slacks_only) == n_moved
            assert np.array_equal(_row_order([np.diff(a.indptr) for a in canon.a_blocks],
                                             canon.block_dims),
                                  np.concatenate([np.flatnonzero(~on_slacks_only),
                                                  np.flatnonzero(on_slacks_only)]))

    def test_canonical_blocks_store_no_zeros(self, monkeypatch):
        gram, outs = _small_benchmark_inputs(2, 3)
        problems = [_symmetric_problem(monkeypatch, kind, m=2, cutoff=3)
                    for kind in ("tomography", "quadratures_errors")]
        problems.append(_benchmark_problem(monkeypatch, benchmark_general, gram,
                                           [Tomography(outs[0]), _errors_scenario(outs[1])],
                                           cutoff=3))
        for prob, n_slack in zip(problems, (0, 8, 8)):
            canon = prob.canonicalize()
            for a in canon.a_blocks:
                assert a.nnz == np.count_nonzero(a.data)
            assert sum(a.nnz for a, d in zip(canon.a_blocks, canon.block_dims)
                       if d == 1) == 3 * n_slack // 2

    def test_solution_is_in_the_callers_row_order(self, monkeypatch, rng):
        canon = _symmetric_problem(monkeypatch, "quadratures_errors", m=2, cutoff=3).canonicalize()
        _check_y_order(canon, rng.permutation(canon.b.size))


def _reference_solver_form(canon):
    """The solver's rows by per-block scipy row indexing, column slicing and
    hstack, independent of the solver's index arithmetic: (to_caller, b,
    blocks, A, terms), each block a CSR matrix in the solver's row order and
    each term (d, rows, the block's CSR matrix at its rows with entries) for
    the first of the blocks sharing it."""
    dims, b = canon.block_dims, canon.b
    blocks = [a.tocsr() for a in canon.a_blocks]
    kept = _real_rows(canon)
    if kept is not None:
        blocks = [a[kept][:, :d * (d + 1) // 2] for a, d in zip(blocks, dims)]
        b = b[kept]
    touched = np.zeros((b.size, len(dims)), dtype=bool)
    for bi, (a, d) in enumerate(zip(blocks, dims)):
        if d > 1:
            touched[:, bi] = np.diff(a.indptr) > 0
    _, first, group = np.unique(touched, axis=0, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=int)
    rank[np.argsort(first)] = np.arange(first.size)
    order = np.argsort(rank[group.reshape(-1)], kind="stable")
    to_caller = kept
    if not np.array_equal(order, np.arange(b.size)):
        blocks, b = [a[order] for a in blocks], b[order]
        to_caller = order if kept is None else kept[order]
    a_all = sp.hstack([blocks[bi] for bi in _stack_order(dims)], format="csr")
    terms, keys = [], set()
    for a, d in zip(blocks, dims):
        if a.nnz:
            rows = np.flatnonzero(np.diff(a.indptr))
            sub = a[rows]
            key = (d, rows.tobytes(), sub.indices.tobytes(),
                   (sub.data * np.sign(sub.data[0])).tobytes())
            if key not in keys:
                keys.add(key)
                terms.append((d, rows, sub))
    return to_caller, b, blocks, a_all, terms


def _stack_order(dims):
    """The blocks in the order of the solver's stacks: by dimension, in order
    of first appearance."""
    return [bi for d in dict.fromkeys(dims) for bi, db in enumerate(dims) if db == d]


def _same_csr(got, want):
    """Equal CSR arrays, entry by entry in storage order."""
    return all(np.array_equal(getattr(got, f), getattr(want, f))
               for f in ("indptr", "indices", "data"))


def _shuffled_coo(dense, rng):
    """COO holding every entry of a dense matrix in random order, zeros
    included, with some nonzero entries split into two equal halves."""
    rows, cols = np.indices(dense.shape).reshape(2, -1)
    vals = dense.ravel()
    split = np.flatnonzero(vals)[::3]
    rows, cols = np.concatenate([rows, rows[split]]), np.concatenate([cols, cols[split]])
    vals = np.concatenate([vals, vals[split] / 2.0])
    vals[split] /= 2.0
    perm = rng.permutation(vals.size)
    return sp.coo_matrix((vals[perm], (rows[perm], cols[perm])), shape=dense.shape)


def _raw_csr(dense, rng):
    """CSR with the entries of :func:`_shuffled_coo` as they fall in each row:
    zeros stored, columns out of order and some repeated."""
    coo = _shuffled_coo(dense, rng)
    at = np.argsort(coo.row, kind="stable")
    indptr = np.searchsorted(coo.row[at], np.arange(dense.shape[0] + 1))
    return sp.csr_matrix((coo.data[at], coo.col[at], indptr), shape=dense.shape)


class TestSolverRows:
    @settings(max_examples=80, deadline=None, database=None)
    @given(st.lists(st.sampled_from(_CONSTRAINT_KINDS), min_size=1, max_size=8), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_matches_the_per_block_scipy_reference(self, kinds, real, seed):
        """The solver's rows, b, row order, to_caller, A and the rows, indices
        and data each Schur term reads equal, to the bit, what the per-block
        scipy row indexing, column slicing and hstack give, for problems
        with intervals (1x1 slacks) and, with ``real`` (or by chance, as for
        a lone 1x1 pin), conjugation-invariant ones that take the real
        reduction."""
        rng = np.random.default_rng(seed)
        prob = SDPProblem()
        for name, d in _PROBLEM_DIMS.items():
            prob.add_variable(name, d)
        xs = {name: _random_hermitian(rng, 1, d)[0] for name, d in _PROBLEM_DIMS.items()}
        for kind in kinds:
            _add_random_constraint(prob, kind, xs, rng, real=real)
        canon = prob.canonicalize()
        dims = canon.block_dims
        to_caller, b, blocks, a_all, terms = _reference_solver_form(canon)
        is_real, got_to_caller, got_b, _, got_blocks = sdp._solver_rows(canon)
        assert is_real == (_real_rows(canon) is not None) and is_real >= real
        assert (got_to_caller is None) == (to_caller is None)
        assert to_caller is None or np.array_equal(got_to_caller, to_caller)
        assert np.array_equal(got_b, b)
        assert all(_same_csr(got, want) for got, want in zip(got_blocks, blocks))
        stacked = _stack_order(dims)
        widths = [d * (d + 1) // 2 if is_real else d * d for d in dims]
        got_a = sdp._hstack([got_blocks[bi] for bi in stacked], [widths[bi] for bi in stacked])
        assert got_a.shape == a_all.shape and _same_csr(got_a, a_all)

        built, real_term = [], sdp._SchurTerm
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sdp, "_SchurTerm", lambda *args: built.append(args) or real_term(*args))
            where = {bi: (0, j) for j, bi in enumerate(stacked)}
            sdp._schur_terms(got_blocks, dims, where, is_real)
        assert len(built) == len(terms)
        for (rows, got_sub, d, *_), (want_d, want_rows, sub) in zip(built, terms):
            assert d == want_d and np.array_equal(rows, want_rows) and _same_csr(got_sub, sub)

    def test_psd_term_format_builds_the_same_rows(self, rng):
        """A PSD term given as CSR with explicit stored zeros (its columns out
        of order and some entries split into two repeats), as a shuffled COO
        with the same entries, or as CSC builds the rows a plain CSR builds,
        and all four solve bit-identically: _schur_terms keys stream sharing
        on the exact sparsity.  A second term on the same variable cancels on
        some coordinates, which then store nothing."""
        m, d = 2, 3
        n = m * d
        swap = block_swap_matrix(m, d).toarray()
        mask = np.triu(rng.integers(0, 2, (n, n))).astype(float)
        mask = mask_matrix(mask + np.triu(mask, 1).T).toarray()
        psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        tau = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real

        def solved(form):
            p = SDPProblem()
            p.add_variable("tau", n)
            p.add_variable("tau_minus", n)
            p.set_objective({"tau_minus": np.eye(n)})
            p.add_entry_equalities(["tau"], tau)
            p.add_psd_constraint([("tau", form(swap + mask)), ("tau_minus", form(np.eye(n * n))),
                                  ("tau", form(-mask))], label="pt")
            canon = p.canonicalize()
            return canon, solve(canon)

        forms = [sp.csr_matrix, lambda a: _raw_csr(a, rng), lambda a: _shuffled_coo(a, rng),
                 sp.csc_matrix]
        (canon, first), *rest = [solved(form) for form in forms]
        assert first.status is SDPStatus.OPTIMAL
        assert first.objective == pytest.approx(brute_negativity(tau, m, d), abs=1e-6)
        for other_canon, sol in rest:
            assert all(_same_csr(a, b) for a, b in zip(other_canon.a_blocks, canon.a_blocks))
            assert np.array_equal(sol.y, first.y) and sol.history == first.history
            for name, x in first.variables.items():
                assert np.array_equal(sol.variables[name], x)
        stored = canon.a_blocks[0]
        assert stored.nnz == np.count_nonzero(stored.data) == np.count_nonzero(swap) + n * n


def _schur_sizes(monkeypatch):
    """The Schur size of every ``dpftrf`` call, recorded as the solver runs."""
    sizes, factor = [], scipy.linalg.lapack.dpftrf
    monkeypatch.setattr(scipy.linalg.lapack, "dpftrf",
                        lambda n, *args, **kw: sizes.append(n) or factor(n, *args, **kw))
    return sizes


# <C, X> = -2 Im X_01: a functional on the imaginary part of the only pair.
_IMAG_PART = np.array([[0.0, -1j], [1j, 0.0]])


class TestRealReduction:
    @pytest.mark.parametrize("m, rows", [(2, 31), (3, 42), (4, 53)])
    def test_complex_alpha_tomography_row_count(self, monkeypatch, m, rows):
        """A complex-alpha ring under tomography is solved on its real rows:
        M d(d+1)/2 partial-transpose rows, d(d+1)/2 pinned entries and the
        Gram rows, one per circulant distance and part that is not real by
        construction."""
        cutoff = 3
        d = cutoff + 1
        seed = noisy_coherent(0.5 * np.exp(0.7j), 0.08, d, deficit_tol=1e-2)
        gram = optimize_gram(rotation_ensemble(seed, m), symmetric=True).gram
        sizes = _schur_sizes(monkeypatch)
        res = benchmark_symmetric(gram, Tomography(loss_channel(0.92, d)(seed)), m,
                                  cutoff=cutoff)
        half = d * (d + 1) // 2
        gram_rows = sum(1 if 2 * dist == m else 2 for dist in range(1, m // 2 + 1))
        assert rows == m * half + half + gram_rows
        assert res.diagnostics["solver_status"] == "Optimal"
        assert set(sizes) == {rows}

    @settings(max_examples=25, deadline=None, database=None)
    @given(st.integers(2, 5), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_real_data_matches_its_phase_conjugated_copy(self, d, n_rows, seed):
        """Conjugating every coefficient by a diagonal unitary U maps the
        feasible set onto itself, so the optimum is the same; the copy is not
        conjugation invariant and takes the complex path."""
        rng = np.random.default_rng(seed)
        phases = np.exp(2j * np.pi * rng.random(d))

        def sym(a):
            return (a + a.T) / 2.0

        x0 = rng.standard_normal((d, d))
        x0 = x0 @ x0.T + 0.1 * np.eye(d)
        x0 /= np.trace(x0)
        c, g = sym(rng.standard_normal((d, d))), sym(rng.standard_normal((d, d)))
        rows = [sym(rng.standard_normal((d, d))) for _ in range(n_rows)]
        mask = np.triu(rng.integers(0, 2, (d, d))).astype(float)
        mask = mask + np.triu(mask, 1).T
        shift = 0.1 - min(0.0, float(np.linalg.eigvalsh(mask * x0)[0]))

        def solved(u):
            p = SDPProblem()
            p.add_variable("X", d)
            p.set_objective({"X": u(c)})
            p.add_equality({"X": np.eye(d)}, 1.0)
            for a in rows[1:]:
                p.add_equality({"X": u(a)}, float(np.trace(a @ x0)))
            value = float(np.trace(g @ x0))
            p.add_interval({"X": u(g)}, value - 0.3, value + 0.3)
            p.add_psd_constraint([("X", mask_matrix(mask))], constant=shift * np.eye(d))
            return p.solve()

        real = solved(lambda a: a)
        rotated = solved(lambda a: phases[:, None] * a * phases.conj())
        assert real.status is rotated.status is SDPStatus.OPTIMAL
        assert np.all(real.variables["X"].imag == 0.0)
        assert np.any(rotated.variables["X"].imag != 0.0)
        assert abs(real.objective - rotated.objective) <= 1e-7 * (1.0 + abs(real.objective))

    @pytest.mark.parametrize("build", ["quadratures_errors", "general"])
    def test_non_invariant_problem_keeps_the_complex_path(self, monkeypatch, build):
        """A problem that fails the check (a <p> interval, or complex Gram
        rows) forms the rows of every K from complex stacks at every
        coordinate, factors every row, and solves bit-identically with the
        reduction switched off."""
        if build == "general":
            gram, outs = _small_benchmark_inputs(2, 3)
            prob = _benchmark_problem(monkeypatch, benchmark_general, gram,
                                      [Tomography(outs[0]), _errors_scenario(outs[1])],
                                      cutoff=3)
        else:
            prob = _symmetric_problem(monkeypatch, build, m=2, cutoff=3)
        canon = prob.canonicalize()
        assert _real_rows(canon) is None
        shapes = []
        real_k = sdp._congruence_rows
        monkeypatch.setattr(sdp, "_congruence_rows", lambda ws, rows, cols: shapes.append(
            (ws.dtype, ws.shape[-1] ** 2, 2 * cols[0].size - ws.shape[-1]))
            or real_k(ws, rows, cols))
        sizes = _schur_sizes(monkeypatch)
        first = solve(canon)
        assert first.status is SDPStatus.OPTIMAL
        assert set(sizes) == {canon.b.size}
        assert all(dtype == complex and n == k for dtype, n, k in shapes)
        monkeypatch.setattr(sdp, "_real_rows", lambda canon: None)
        second = solve(canon)
        assert np.array_equal(first.y, second.y)
        for name, x in first.variables.items():
            assert np.array_equal(x, second.variables[name])
        assert first.history == second.history

    def test_y_of_a_shuffled_reduced_problem_is_in_the_callers_order(self, monkeypatch, rng):
        canon = _symmetric_problem(monkeypatch, "tomography", m=2, cutoff=3).canonicalize()
        kept = _real_rows(canon)
        n = canon.b.size
        dropped = np.setdiff1d(np.arange(n), kept)
        assert kept is not None and dropped.size == n - kept.size > 0
        perm = rng.permutation(n)
        first, second = _check_y_order(canon, perm)
        assert first.y.size == second.y.size == n
        assert np.all(first.y[dropped] == 0.0)
        assert np.all(second.y[np.argsort(perm)[dropped]] == 0.0)
        assert all(x.dtype == complex for x in first.variables.values())

    @pytest.mark.parametrize("add, invariant", [
        (lambda p: p.add_equality({"X": _IMAG_PART}, 0.0), True),
        (lambda p: p.add_equality({"X": _IMAG_PART}, 0.5), False),
        (lambda p: p.add_interval({"X": _IMAG_PART}, -0.1, 0.1), False),
        (lambda p: p.add_equality({"X": np.eye(2) + _IMAG_PART}, 1.2), False),
        (lambda p: p.set_objective({"X": np.eye(2) + _IMAG_PART}), False),
        (lambda p: p.add_interval({"X": np.diag([1.0, 0.0])}, 0.2, 0.4), True),
    ], ids=["imag-zero", "imag-nonzero", "imag-interval", "mixed-row", "imag-objective",
            "real-interval"])
    def test_invariance_check(self, add, invariant):
        """Rows on imaginary parts must be equalities to 0.0, no row may mix
        real and imaginary parts, and the objective must be real; an interval
        on an imaginary part fails through its row, which also holds its
        1x1 slack's real coordinate."""
        p = SDPProblem()
        p.add_variable("X", 2)
        p.set_objective({"X": np.diag([1.0, 2.0])})
        p.add_equality({"X": np.eye(2)}, 1.0)
        add(p)
        canon = p.canonicalize()
        kept = _real_rows(canon)
        assert (kept is not None) == invariant
        if invariant:
            imag = np.diff(canon.a_blocks[0].tocsr()[:, 3:].indptr) > 0
            assert np.array_equal(kept, np.flatnonzero(~imag))
        sol = p.solve()
        assert sol.status is SDPStatus.OPTIMAL
        assert np.all(sol.variables["X"].imag == 0.0) == invariant


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
        the same relative signs, like an F_k block and its PSD slack: one term,
        with the K of both congruences, adds the sum of their parts."""
        rng = np.random.default_rng(seed)
        sub = _signed_permutation(rng, d, permuted)
        subs = (sub, rng.choice([-1.0, 1.0]) * sub)
        ws = _random_pd(rng, 2, d)
        ref = sum(s @ (s @ _basis_k(w[None])).T for s, w in zip(subs, ws))
        terms = _schur_terms(subs, [d, d], {0: (0, 0), 1: (0, 1)})
        assert [js for _, js, _ in terms] == [[0, 1]]
        got = _assemble(terms, [ws], d * d)
        assert np.max(np.abs(got - np.tril(ref))) <= 1e-13 * np.max(np.abs(ref))

    def test_blocks_share_a_term_only_with_rows_equal_up_to_one_sign(self):
        """Blocks share one term when their rows are equal, or equal after one
        sign flips them all, whatever the coefficients: like the E_k blocks of
        the symmetric Gram optimization, which all carry the same pin."""
        where = {0: (0, 0), 1: (0, 1)}
        eye = np.eye(4)
        other = np.eye(4)
        other[3, 3] = 2.0
        dense = np.eye(4)
        dense[3, 0] = 0.5
        for a in (eye, other, dense):
            for b in (a, -a):
                terms = _schur_terms([sp.csr_matrix(a), sp.csr_matrix(b)], [2, 2], where)
                assert [js for _, js, _ in terms] == [[0, 1]]
        flipped = eye.copy()
        flipped[1, 1] = -1.0
        for a, b in ((eye, other), (eye, dense), (eye, flipped), (other, 0.5 * other)):
            terms = _schur_terms([sp.csr_matrix(a), sp.csr_matrix(b)], [2, 2], where)
            assert [js for _, js, _ in terms] == [[0], [1]]

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
        """Nine 5x5 blocks (plus a 3x3 one for two groups of larger blocks)
        and a size group of eight 1x1 interval slacks: at most three eigh calls
        (the scaling) and four eigvalsh calls (the step lengths) per size group
        per iteration, however many blocks a group holds."""
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
        assert 0 < calls["eigh"] <= 3 * (groups + 1) * sol.iterations
        assert 0 < calls["eigvalsh"] <= 4 * (groups + 1) * sol.iterations


def _assemble(terms, stacks, m):
    """The lower triangle of the Schur matrix that a plan from ``_schur_terms``
    adds up."""
    packed = _Packed(m)
    for g, js, term in terms:
        term.add(packed, stacks[g][js])
    return _unpacked(packed)


_ROW_KINDS = ("+-1", "1/sqrt2", "single", "dense")


def _block_rows(rng, kinds, n):
    """Dense rows over n columns: one +-1, one +-1/sqrt2 or one arbitrary
    coefficient at a random column, or up to four arbitrary ones."""
    rows = np.zeros((len(kinds), n))
    for i, kind in enumerate(kinds):
        if kind == "dense":
            cols = rng.choice(n, size=min(n, int(rng.integers(2, 5))), replace=False)
            rows[i, cols] = rng.uniform(0.1, 3.0, cols.size) * rng.choice([-1.0, 1.0], cols.size)
        else:
            value = {"+-1": 1.0, "1/sqrt2": np.sqrt(0.5), "single": rng.uniform(0.1, 3.0)}[kind]
            rows[i, rng.integers(n)] = rng.choice([-1.0, 1.0]) * value
    return rows


class TestKPathAssembly:
    @settings(max_examples=150, deadline=None, database=None)
    @given(st.integers(1, 4).flatmap(lambda d: st.tuples(
               st.just(d), st.lists(st.sampled_from(_ROW_KINDS), min_size=1, max_size=d * d + 12),
               st.integers(1, d * d))),
           st.integers(0, 12), st.sampled_from(["identity", "unit", "other"]), st.booleans(),
           st.booleans(), st.sampled_from([1, 50, sdp.K_CHUNK]),
           st.sampled_from([1, 3, sdp.DIAG_STRIP]), st.integers(0, 2**32 - 1))
    def test_assembly_matches_dense_products(self, d_kinds, extra, shared, real, subset, chunk,
                                             strip, seed):
        """The packed triangle is the lower triangle of sum_b A_b K_b A_b^T,
        for m from 1 up, odd and even, over complex or real stacks.  Block 0 mixes rows of one coefficient with dense rows, touches
        all of its coordinates or a random subset, and has one coordinate hit
        by two single-entry rows (a partial-transpose row and a pin).  Blocks
        1 and 2 are equal up to one sign and share one term: identity rows,
        +-1 rows at other columns, or rows of other single coefficients.
        Blocks 3 to 5 are 1x1, like interval slacks, each with a few rows of
        arbitrary coefficients, at W = 1.  Rows sit at random positions, so runs straddle row k and the diagonal; K is
        formed for chunks of one row, a few rows or all of them.  Entries in
        the rows that nothing touches stay exactly zero, so no write reached
        the other half's aliased positions."""
        d, kinds, n_shared = d_kinds
        n = d * (d + 1) // 2 if real else d * d
        n_shared = n if shared == "identity" else min(n_shared, n)
        rng = np.random.default_rng(seed)
        m = max(len(kinds) + 1, n_shared) + extra

        def positions(size):
            return np.sort(rng.choice(m, size, replace=False))

        cover = np.sort(rng.choice(n, int(rng.integers(1, n + 1)), replace=False)) \
            if subset else np.arange(n)
        rows0 = np.zeros((len(kinds) + 1, n))
        rows0[:-1, cover] = _block_rows(rng, kinds, cover.size)
        single = [np.flatnonzero(r) for r in rows0[:-1] if np.count_nonzero(r) == 1]
        rows0[-1, single[0] if single else rng.choice(cover)] = rng.uniform(0.1, 3.0)
        rows1 = np.zeros((n_shared, n))
        cols = np.arange(n) if shared == "identity" else rng.choice(n, n_shared, replace=False)
        values = rng.choice([-1.0, 1.0], n_shared)
        if shared == "identity":
            values[:] = values[0]
        elif shared == "other":
            values *= rng.uniform(0.1, 3.0, n_shared)
        rows1[np.arange(n_shared), cols] = values
        blocks = []
        for rows in (rows0, rows1):
            a = np.zeros((m, n))
            a[positions(rows.shape[0])] = rows
            blocks.append(a)
        blocks.append(rng.choice([-1.0, 1.0]) * blocks[1])
        scalars = np.zeros((m, 3))
        scalars[positions(min(m, 3))] = rng.uniform(-2.0, 2.0, (min(m, 3), 3))
        ws = _random_pd(rng, 3, d)
        if real:
            ws = ws.real
        ref = sum(a @ _basis_k(w[None]) @ a.T for a, w in zip(blocks, ws))
        ref = ref + scalars @ scalars.T
        defaults = sdp.K_CHUNK, sdp.DIAG_STRIP
        sdp.K_CHUNK, sdp.DIAG_STRIP = chunk, strip
        try:
            terms = _schur_terms([sp.csr_matrix(a) for a in blocks + list(scalars.T[:, :, None])],
                                 [d] * 3 + [1] * 3,
                                 {bi: (bi // 3, bi % 3) for bi in range(6)}, real)
        finally:
            sdp.K_CHUNK, sdp.DIAG_STRIP = defaults
        assert any({1, 2} <= set(js) for _, js, _ in terms)
        got = _assemble(terms, [ws, np.ones((3, 1, 1), dtype=ws.dtype)], m)
        assert np.max(np.abs(got - np.tril(ref))) <= 1e-13 * np.max(np.abs(ref))
        untouched = ~np.any([np.any(a != 0.0, axis=1) for a in blocks + [scalars]], axis=0)
        assert not np.any(got[untouched]) and not np.any(got[:, untouched])

    def test_general_problem_in_solver_order_matches_dense_products(self, monkeypatch, rng):
        """benchmark_general's problem at M = 3, N = 7 (tomography pins on
        state 0, 1-sigma intervals on the others), in the order the solver
        gives its rows and with chunks small enough that each 24 x 24 term
        spans at least three: each entry pair's two partial-transpose rows are
        adjacent, and the packed Schur matrix is the lower triangle of
        sum_b A_b K_b A_b^T at random positive definite scalings."""
        m, cutoff = 3, 7
        n = m * (cutoff + 1)
        gram, outs = _small_benchmark_inputs(m, cutoff)
        prob = _benchmark_problem(monkeypatch, benchmark_general, gram,
                                  [Tomography(outs[0])] + [_errors_scenario(o) for o in outs[1:]],
                                  cutoff=cutoff)

        class Captured(Exception):
            pass

        def capture(*args):
            raise Captured(*args)

        monkeypatch.setattr(sdp, "K_CHUNK", n ** 4 // 4)
        monkeypatch.setattr(sdp, "_schur_terms", capture)
        with pytest.raises(Captured) as captured:
            solve(prob)
        a_blocks, dims, where, real = captured.value.args
        terms = _schur_terms(a_blocks, dims, where, real)
        assert not real and dims[:3] == [n, n, n]
        big = [term for _, _, term in terms if term.n_cols > 1]
        assert len(big) == 2 and all(len(term.chunks) >= 3 for term in big)
        # The partial-transpose rows (those on tau_minus) on one pair of tau.
        tau, pt = a_blocks[0], np.flatnonzero(np.diff(a_blocks[1].indptr))
        npair = n * (n - 1) // 2
        coord = tau.indices[tau.indptr[pt]]
        pair = np.where(coord >= n + npair, coord - npair, coord)
        for p in range(n, n + npair):
            assert np.ptp(pt[pair == p]) == 1
        stacks = [None] * (1 + max(g for g, _ in where.values()))
        for g in range(len(stacks)):
            blocks = [bi for bi, (gb, _) in where.items() if gb == g]
            stacks[g] = _random_pd(rng, len(blocks), dims[blocks[0]])
        dense = [sp.csr_matrix((a.data, a.indices, a.indptr), shape=(len(a.indptr) - 1, d * d))
                 .toarray() for a, d in zip(a_blocks, dims)]
        ref = sum(a @ _basis_k(stacks[g][j][None]) @ a.T
                  for a, (g, j) in zip(dense, (where[bi] for bi in range(len(a_blocks)))))
        got = _assemble(terms, stacks, ref.shape[0])
        assert np.max(np.abs(got - np.tril(ref))) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("case", ["general", "symmetric_quadratures"])
    def test_solve_is_bit_identical_at_every_chunk_size(self, monkeypatch, case):
        """benchmark_general at M = 2, N = 7 (tomography pins on state 0, a
        1-sigma interval scenario on state 1), and benchmark_symmetric at
        M = 3, N = 7 on the exact quadratures of an output turned by pi/4
        (complex blocks): the bound, y, the iteration count and the history
        are the same to the bit whether a block's Schur term spans one chunk
        or several, and whatever rows a diagonal strip holds."""
        if case == "general":
            gram, outs = _small_benchmark_inputs(2, 7)
            scenarios = [Tomography(outs[0]), _errors_scenario(outs[1])]

            def run():
                return benchmark_general(gram, scenarios, cutoff=7)
        else:
            gram, outs = _small_benchmark_inputs(3, 7)
            u = rotation(np.pi / 4, 8)
            turned = DensityMatrix(u @ outs[0].matrix @ u.conj().T, allow_sub_normalized=True)
            scenario = Quadratures(turned.quadrature_moments())

            def run():
                return benchmark_symmetric(gram, scenario, 3, cutoff=7)

        solved, unpatched = [], SDPProblem.solve

        def record(prob, config=None):
            solved.append((prob, unpatched(prob, config)))
            return solved[-1][1]

        monkeypatch.setattr(SDPProblem, "solve", record)
        runs = []
        for chunk in (sdp.K_CHUNK, 16384, 2000):
            for strip in (128, 3):
                monkeypatch.setattr(sdp, "K_CHUNK", chunk)
                monkeypatch.setattr(sdp, "DIAG_STRIP", strip)
                runs.append((run().negativity_lower_bound, solved[-1][1]))
        assert _real_rows(solved[0][0].canonicalize()) is None
        (bound, first), rest = runs[0], runs[1:]
        assert first.optimal
        for other_bound, sol in rest:
            assert other_bound.hex() == bound.hex()
            assert np.array_equal(sol.y, first.y)
            assert sol.iterations == first.iterations
            assert sol.history == first.history

    def test_peak_memory_is_the_schur_matrix_plus_chunks(self, monkeypatch):
        """benchmark_general at M = 4, N = 9: 1739 Schur rows, 1727 of them on
        tau, whose K would be 1600 x 1600 (20 MB).  The tracemalloc peak of
        three iterations stays within 1.4 times the packed Schur matrix
        (m(m+1)/2 doubles) plus four chunks of ``K_CHUNK`` doubles."""
        m, cutoff = 4, 9
        gram, outs = _small_benchmark_inputs(m, cutoff)
        prob = _benchmark_problem(monkeypatch, benchmark_general, gram,
                                  [Tomography(outs[0])] + [_errors_scenario(o) for o in outs[1:]],
                                  cutoff=cutoff)
        canon = prob.canonicalize()
        tracemalloc.start()
        try:
            sol = solve(canon, SDPConfig(max_iter=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.iterations == 3
        m_schur = canon.b.size
        assert peak <= 1.4 * 4 * m_schur * (m_schur + 1) + 4 * 8 * sdp.K_CHUNK


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

    @pytest.mark.parametrize("kwargs, name", [
        ({"max_iter": 0}, "max_iter"), ({"max_iter": 2.5}, "max_iter"),
        ({"max_iter": True}, "max_iter"), ({"tol": -1.0}, "tol"), ({"tol": 0.0}, "tol"),
        ({"tol": float("nan")}, "tol"), ({"tol": float("inf")}, "tol")])
    def test_config_rejects_bad_settings(self, kwargs, name):
        with pytest.raises(SDPError, match=f"SDPConfig.{name}"):
            SDPConfig(**kwargs)

    def test_asymmetric_mask_is_rejected(self):
        with pytest.raises(SDPError, match="symmetric"):
            mask_matrix(np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("add", [
        lambda p, v: p.add_equality({"X": np.eye(2)}, v, label="row-a"),
        lambda p, v: p.add_equality({"X": np.diag([1.0, v])}, 1.0, label="row-a"),
        lambda p, v: p.add_interval({"X": np.eye(2)}, 0.0, v, label="row-a"),
        lambda p, v: p.add_interval({"X": np.eye(2)}, v, 1.0, label="row-a"),
        lambda p, v: p.add_entry_equalities(["X"], np.diag([v, 0.5]), label="row-a"),
        lambda p, v: p.add_psd_constraint([("X", sp.identity(4))], constant=np.diag([v, 0.0]),
                                          label="row-a"),
        lambda p, v: p.add_psd_constraint([("X", v * sp.identity(4))], label="row-a"),
    ], ids=["target", "coefficient", "upper", "lower", "entry-target",
            "psd-constant", "psd-term"])
    def test_non_finite_data_is_rejected_by_label(self, add, bad):
        p = SDPProblem()
        p.add_variable("X", 2)
        with pytest.raises(SDPError, match="row-a.*finite"):
            add(p, bad)
        assert p.canonicalize().b.size == 0

    def test_non_finite_objective_is_rejected(self):
        p = SDPProblem()
        p.add_variable("X", 2)
        with pytest.raises(SDPError, match="objective"):
            p.set_objective({"X": np.diag([1.0, float("nan")])})

    def test_psd_constraint_mixed_dims(self):
        p = SDPProblem()
        p.add_variable("X", 2)
        p.add_variable("Y", 3)
        with pytest.raises(SDPError, match="dimension"):
            p.add_psd_constraint([("X", sp.identity(4)), ("Y", sp.identity(9))])


JITTERS = (0.0, 1e-13, 1e-10, 1e-7)


def _reference_schur_solve(mat, rhs):
    """Factor a fresh packed, jittered copy per attempt; return (solution,
    jitter or None)."""
    n = mat.shape[0]
    scale = float(np.mean(np.diag(mat))) or 1.0
    for jitter in JITTERS:
        packed = _packed(mat + jitter * scale * np.eye(n))
        factor, info = scipy.linalg.lapack.dpftrf(n, packed.buf, uplo="L")
        if info == 0:
            return scipy.linalg.lapack.dpftrs(n, factor, rhs, uplo="L")[0], jitter
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
        real = scipy.linalg.lapack.dpftrf

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dpftrf", counting)
        psi = np.zeros(4, dtype=complex)
        psi[0], psi[3] = np.sqrt(0.62), np.sqrt(0.38)
        p = SDPProblem()
        p.add_variable("tau_minus", 4)
        p.set_objective({"tau_minus": np.eye(4)})
        p.add_psd_constraint([("tau_minus", sp.identity(16))],
                             constant=dense_partial_transpose(np.outer(psi, psi.conj()), 2, 2))
        sol = p.solve()
        assert sol.status is SDPStatus.OPTIMAL
        assert 0 < len(calls) <= sol.iterations

    def test_solution_reports_schur_rows_and_failed_attempts(self, monkeypatch):
        """A solve reports the size of the Schur matrix it factors and counts
        each failed Cholesky attempt, here the first one of the solve."""
        calls, real = [], scipy.linalg.lapack.dpftrf

        def fail_once(m, buf, *args, **kwargs):
            calls.append(m)
            return (buf, 1) if len(calls) == 1 else real(m, buf, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dpftrf", fail_once)
        p = SDPProblem()
        p.add_variable("X", 3)
        p.set_objective({"X": np.diag([1.0, 2.0, 3.0])})
        p.add_equality({"X": np.eye(3)}, 1.0)
        p.add_interval({"X": np.diag([0.0, 1.0, 0.0])}, 0.2, 0.4)
        sol = p.solve()
        assert sol.status is SDPStatus.OPTIMAL
        assert sol.schur_rows == 3 == calls[0]
        assert sol.factor_failures == 1 and len(calls) == sol.iterations

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
            return _packed(mat)

        solve_schur, failed = _factor_schur(assemble)
        assert np.array_equal(solve_schur(rhs), ref)
        # one assembly per attempt, and one more for lstsq
        tries = len(JITTERS) + 1 if falls_back else JITTERS.index(jitter) + 1
        assert len(assembled) == tries and failed == tries - 1

    @pytest.mark.parametrize("n", [7, 300])
    def test_failed_attempts_restore_the_matrix(self, rng, monkeypatch, n):
        """The packed buffer holds the lower triangle only (an upper triangle
        that agrees with it only to rounding, as in the solver, is never
        stored); every attempt factors that triangle plus its jitter, and
        lstsq solves with the same symmetric matrix."""
        mat = _indefinite(rng, n)
        scale = float(np.mean(np.diag(mat)))
        noisy = mat + np.triu(1e-15 * rng.standard_normal((n, n)), 1)
        seen = []
        real = scipy.linalg.lapack.dpftrf

        def snapshot(m, buf, *args, **kwargs):
            seen.append(_unpacked(_Packed(m, buf.copy())))
            return real(m, buf, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dpftrf", snapshot)
        rhs = rng.standard_normal(n)
        got = _factor_schur(lambda: _packed(noisy))[0](rhs)
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
        got = _factor_schur(lambda: _packed(mat))[0](rhs)
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)
