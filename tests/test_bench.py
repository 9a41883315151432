"""Tests for the negativity-bound benchmark."""

import numpy as np
import pytest
import scipy.linalg

from qdbench.bench import (Quadratures, QuadraturesWithErrors, Tomography,
                           benchmark_general, benchmark_symmetric, input_negativity)
from qdbench.blocksym import BipartiteBlockMatrix, gram_of, negativity
from qdbench.channels import build_channel, heterodyne_mp_channel, loss_channel
from qdbench.fock import (DensityMatrix, _coherent_amplitudes, coherent_state, moment_operators,
                          noisy_coherent, rotation)
from qdbench.gramopt import GramMatrix, optimize_gram, rotation_ensemble
from qdbench import bench, sdp
from qdbench.sdp import SDPConfig

from conftest import brute_negativity

TABLE_ERRORS = {"x": 0.03, "p": 0.03, "xx": 0.04, "pp": 0.09}


def pure_ring_gram(m, alpha, dim):
    amps = [_coherent_amplitudes(alpha * np.exp(-2j * np.pi * k / m), dim) for k in range(m)]
    tau = BipartiteBlockMatrix.from_pure_family(amps)
    z = gram_of(tau)
    np.fill_diagonal(z, 1.0)
    return GramMatrix(z), tau


def real_solves(monkeypatch):
    """Whether each solve runs over real symmetric blocks, in call order."""
    seen, check = [], sdp._real_rows

    def recorded(canon):
        kept = check(canon)
        seen.append(kept is not None)
        return kept

    monkeypatch.setattr(sdp, "_real_rows", recorded)
    return seen


def rotated_outputs(rho_out, m):
    u = rotation(2 * np.pi / m, rho_out.dim)
    outs = [rho_out.matrix]
    for _ in range(m - 1):
        outs.append(u @ outs[-1] @ u.conj().T)
    return [DensityMatrix(o, allow_sub_normalized=True) for o in outs]


class TestScenarios:
    def test_tomography_state_larger_than_the_cutoff_is_renormalized(self):
        rho = noisy_coherent(complex(0.00707, -0.67175), 0.219, 24, deficit_tol=1e-6)
        target = bench._prepare_tomography_state(rho, 16)
        assert target.shape == (16, 16)
        assert abs(np.trace(target).real - 1.0) <= 1e-15
        lost = 1.0 - np.trace(rho.matrix[:16, :16]).real
        np.testing.assert_allclose(target * (1.0 - lost), rho.matrix[:16, :16], rtol=1e-15)

    def test_tomography_estimates_mean_photon(self):
        # <n> = 0.25, so the guard asks for N >= 1
        scen = Tomography(coherent_state(0.5, 12))
        assert scen.tag == "tomography"
        bench._cutoff_guard(1, scen)
        with pytest.raises(ValueError, match=r"N = 0 is too small .* ~0\.250"):
            bench._cutoff_guard(0, scen)

    def test_quadratures_tag_and_cutoff_guard_read_the_intervals(self):
        moments = {"x": 0.0, "p": 0.0, "xx": 1.5, "pp": 1.5}
        exact = Quadratures(moments)
        assert exact.tag == "quadratures"
        assert exact.intervals()["xx"] == (1.5, 1.5)
        bench._cutoff_guard(4, exact)  # <n> = 1
        errs = QuadraturesWithErrors(moments, {"x": 0, "p": 0, "xx": 0.25, "pp": 0.25}, 2)
        assert errs.tag == "quadratures_errors"
        assert errs.intervals()["pp"] == (1.0, 2.0)
        with pytest.raises(ValueError, match=r"N = 4 is too small .* ~1\.500"):
            bench._cutoff_guard(4, errs)  # upper ends give <n> = 1.5

    def test_quadratures_validates_moments(self):
        with pytest.raises(ValueError, match="unphysical"):
            Quadratures({"x": 1.0, "p": 0.0, "xx": 0.5, "pp": 0.5})

    def test_error_widening_admits_borderline(self):
        # xx < x^2 but within 1 sigma of physical
        QuadraturesWithErrors({"x": 1.0, "p": 0.0, "xx": 0.95, "pp": 0.5},
                              {"x": 0.0, "p": 0.0, "xx": 0.08, "pp": 0.01}, 1)

    def test_sigma_level_restricted(self):
        moments = {"x": 0, "p": 0, "xx": 0.5, "pp": 0.5}
        for bad in (5, True):
            with pytest.raises(ValueError, match="sigma_level"):
                QuadraturesWithErrors(moments, {"x": 0, "p": 0, "xx": 0, "pp": 0}, bad)
        for level in (1, 2, 3):
            assert QuadraturesWithErrors(moments, dict.fromkeys(moments, 0.01),
                                         level).sigma_level == level

    @pytest.mark.parametrize("make, field", [
        (lambda: Quadratures({"x": float("nan"), "p": 0, "xx": 0.5, "pp": 0.5}),
         "moment 'x'"),
        (lambda: QuadraturesWithErrors({"x": 0, "p": 0, "xx": 0.5, "pp": 0.5},
                                       {"x": 0, "p": 0, "xx": 0, "pp": float("inf")}, 1),
         "standard error 'pp'"),
    ], ids=["nan-moment", "inf-standard-error"])
    def test_non_finite_data_rejected(self, make, field):
        with pytest.raises(ValueError, match=f"{field} is not finite"):
            make()

    @pytest.mark.parametrize("value", [None, "0.1", True], ids=["null", "string", "bool"])
    def test_non_number_data_rejected_by_key(self, value):
        with pytest.raises(ValueError, match="moment 'p' must be a number"):
            Quadratures({"x": 0, "p": value, "xx": 0.5, "pp": 0.5})
        with pytest.raises(ValueError, match="standard error 'xx' must be a number"):
            QuadraturesWithErrors({"x": 0, "p": 0, "xx": 0.5, "pp": 0.5},
                                  {"x": 0, "p": 0, "xx": value, "pp": 0}, 1)

    @pytest.mark.parametrize("moments, errors, what", [
        (5, None, "moments"),
        ({"x": 0, "p": 0, "xx": 0.5, "pp": 0.5}, 7, "standard errors")],
        ids=["moments", "standard-errors"])
    def test_non_object_data_rejected_by_name(self, moments, errors, what):
        with pytest.raises(ValueError, match=f"{what} must be an object"):
            Quadratures(moments, errors)

    def test_negative_errors_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            QuadraturesWithErrors({"x": 0, "p": 0, "xx": 0.5, "pp": 0.5},
                                  {"x": -0.1, "p": 0, "xx": 0, "pp": 0}, 1)


class TestBenchmarkSymmetric:
    def test_identity_channel_recovers_input_negativity(self):
        m, cutoff = 3, 9
        gram, tau = pure_ring_gram(m, 0.5, cutoff + 1)
        exact = brute_negativity(tau.full_matrix(), m, cutoff + 1)
        res = benchmark_symmetric(gram, Tomography(coherent_state(0.5, cutoff + 1)),
                                  m, cutoff=cutoff)
        assert res.negativity_lower_bound == pytest.approx(exact, abs=1e-4)
        assert res.certified

    def test_orthogonal_gram_gives_zero(self):
        m, cutoff = 3, 7
        gram = GramMatrix(np.eye(m, dtype=complex))
        res = benchmark_symmetric(gram, Tomography(coherent_state(0.5, cutoff + 1)),
                                  m, cutoff=cutoff)
        assert res.negativity_lower_bound <= 1e-6
        assert res.verdict == "Inconclusive"

    def test_mp_channel_never_certified(self):
        m, cutoff = 3, 15
        d = cutoff + 1
        seed = noisy_coherent(0.45, 0.12, d, deficit_tol=1e-6)
        states = rotation_ensemble(seed, m)
        gram = optimize_gram(states, symmetric=True).gram
        rho_out = heterodyne_mp_channel(d)(seed)
        for scen in (Tomography(rho_out),
                     Quadratures(rho_out.quadrature_moments()),
                     QuadraturesWithErrors(rho_out.quadrature_moments(), TABLE_ERRORS, 3)):
            res = benchmark_symmetric(gram, scen, m, cutoff=cutoff)
            assert res.negativity_lower_bound <= 1e-6, scen.tag
            assert not res.certified

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_mp_tomography_in_the_real_frame_never_certifies(self, monkeypatch, m):
        # The complex-alpha heterodyne output is phase covariant, so its
        # tomography problem is solved over real symmetric blocks.
        cutoff = 11
        d = cutoff + 1
        seed = noisy_coherent(complex(0.00707, -0.67175), 0.219, d, deficit_tol=1e-6)
        gram = optimize_gram(rotation_ensemble(seed, m), symmetric=True).gram
        rho_out = heterodyne_mp_channel(d)(seed)
        real = real_solves(monkeypatch)
        res = benchmark_symmetric(gram, Tomography(rho_out), m, cutoff=cutoff)
        assert real == [True]
        assert res.diagnostics["solver_status"] == "Optimal"
        assert res.negativity_lower_bound <= 1e-6
        assert not res.certified
        np.testing.assert_allclose(res.optimized_state.sum(axis=0),
                                   rho_out.matrix / (1.0 - rho_out.trace_deficit), atol=1e-7)

    def test_tomography_without_a_real_frame_is_pinned_as_given(self, monkeypatch):
        # Superdiagonal phases 0.4 and 1.6: no diagonal phase makes this real.
        m, cutoff = 2, 7
        psi = np.zeros(cutoff + 1, dtype=complex)
        psi[:3] = np.exp(1j * np.array([0.0, 0.4, 2.0])) / np.sqrt(3.0)
        rho = DensityMatrix(np.outer(psi, psi.conj()))
        real = real_solves(monkeypatch)
        res = benchmark_symmetric(GramMatrix(np.eye(m, dtype=complex)), Tomography(rho), m,
                                  cutoff=cutoff)
        assert real == [False]
        assert res.diagnostics["solver_status"] == "Optimal"
        np.testing.assert_allclose(res.optimized_state.sum(axis=0), rho.matrix, atol=1e-7)

    @pytest.mark.parametrize("m", [2, 4])
    def test_unconverged_solve_is_inconclusive(self, m):
        # A heterodyne measure-and-prepare output stopped after 8 iterations
        # still has a positive primal bound; it must not certify.
        cutoff = 11
        d = cutoff + 1
        seed = noisy_coherent(complex(0.00707, -0.67175), 0.219, d, deficit_tol=1e-6)
        gram = optimize_gram(rotation_ensemble(seed, m), symmetric=True).gram
        res = benchmark_symmetric(gram, Tomography(heterodyne_mp_channel(d)(seed)), m,
                                  cutoff=cutoff, solver_config=SDPConfig(max_iter=8))
        assert res.diagnostics["solver_status"] == "MaxIterations"
        assert res.negativity_lower_bound > 1e-6  # the bound is kept as it is
        assert res.verdict == "Inconclusive"
        assert not res.certified

    @pytest.mark.parametrize("tol", [
        0.3,
        pytest.param(0.5, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1")),
    ])
    def test_loose_solver_tolerance_never_certifies(self, tol):
        # The verdict margin cfg.tol + 1e-6 grows with the tolerance, yet at
        # tol 0.5 this entanglement-breaking output stops "Optimal" after 3
        # iterations with a primal bound of 0.638 and certifies (at tol 0.3 it
        # stops at 0.065).  Only a certified dual bound can close this.
        cutoff = 9
        d = cutoff + 1
        seed = noisy_coherent(complex(0.00707, -0.67175), 0.219, d, deficit_tol=1e-6)
        gram = optimize_gram(rotation_ensemble(seed, 2), symmetric=True).gram
        res = benchmark_symmetric(gram, Tomography(heterodyne_mp_channel(d)(seed)), 2,
                                  cutoff=cutoff, solver_config=SDPConfig(tol=tol))
        assert not res.certified

    def test_information_ordering(self):
        m, cutoff = 3, 9
        d = cutoff + 1
        seed = noisy_coherent(0.4, 0.08, d, deficit_tol=1e-6)
        states = rotation_ensemble(seed, m)
        gram = optimize_gram(states, symmetric=True).gram
        rho_out = loss_channel(0.9, d)(seed)
        mom = rho_out.quadrature_moments()
        bounds = [
            benchmark_symmetric(gram, Tomography(rho_out), m, cutoff).negativity_lower_bound,
            benchmark_symmetric(gram, Quadratures(mom), m, cutoff).negativity_lower_bound,
        ]
        for s in (1, 2, 3):
            bounds.append(benchmark_symmetric(
                gram, QuadraturesWithErrors(mom, TABLE_ERRORS, s), m,
                cutoff).negativity_lower_bound)
        for tighter, looser in zip(bounds, bounds[1:]):
            assert tighter >= looser - 1e-6

    def test_cutoff_monotonicity(self):
        m = 3
        d0 = 8
        seed8 = noisy_coherent(0.4, 0.08, d0, deficit_tol=1e-6)
        gram = optimize_gram(rotation_ensemble(seed8, m), symmetric=True).gram
        rho_out = loss_channel(0.9, d0)(seed8)
        mom = rho_out.quadrature_moments()
        b_low = benchmark_symmetric(gram, Quadratures(mom), m, cutoff=7).negativity_lower_bound
        b_high = benchmark_symmetric(gram, Quadratures(mom), m, cutoff=9).negativity_lower_bound
        assert b_high >= b_low - 1e-6

    def test_bound_below_input_negativity(self):
        m, cutoff = 3, 9
        d = cutoff + 1
        seed = noisy_coherent(0.4, 0.08, d, deficit_tol=1e-6)
        states = rotation_ensemble(seed, m)
        opt = optimize_gram(states, symmetric=True)
        rho_out = loss_channel(0.85, d)(seed)
        res = benchmark_symmetric(opt.gram, Tomography(rho_out), m, cutoff=cutoff)
        assert res.negativity_lower_bound <= input_negativity(opt.rho_in) + 1e-6

    def test_rejects_non_circulant_gram(self):
        z = np.eye(3, dtype=complex)
        z[0, 1] = z[1, 0] = 0.5
        with pytest.raises(ValueError, match="circulant"):
            benchmark_symmetric(GramMatrix(z), Tomography(coherent_state(0.3, 8)), 3, cutoff=7)

    def test_rejects_an_ensemble_size_other_than_the_grams(self):
        gram = GramMatrix(np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match="gram has M = 2, requested M = 3"):
            benchmark_symmetric(gram, Tomography(coherent_state(0.3, 8)), 3, cutoff=7)
        # so M >= 1 needs no check of its own: there is no 0 x 0 Gram
        with pytest.raises(ValueError, match=r"Gram matrix must be square and at least 1x1, "
                                             r"got \(0, 0\)"):
            GramMatrix(np.zeros((0, 0)))

    def test_cutoff_guard(self):
        gram = GramMatrix(np.eye(2, dtype=complex))
        hot = Tomography(noisy_coherent(0.5, 0.9, 24, deficit_tol=1e-3))
        with pytest.raises(ValueError, match="cutoff"):
            benchmark_symmetric(gram, hot, 2, cutoff=3)

    def test_jointly_infeasible_moments_raise(self):
        # marginally physical moments that violate the uncertainty relation
        m, cutoff = 2, 7
        gram, _ = pure_ring_gram(m, 0.4, cutoff + 1)
        scen = Quadratures({"x": 0.3, "p": 0.0, "xx": 0.13, "pp": 0.3})
        with pytest.raises(RuntimeError, match="infeasible"):
            benchmark_symmetric(gram, scen, m, cutoff=cutoff)

    def test_exact_moments_equal_zero_width_intervals(self):
        m, cutoff = 2, 7
        gram, _ = pure_ring_gram(m, 0.4, cutoff + 1)
        mom = loss_channel(0.9, cutoff + 1)(coherent_state(0.4, cutoff + 1)).quadrature_moments()
        exact = benchmark_symmetric(gram, Quadratures(mom), m, cutoff=cutoff)
        zero_width = benchmark_symmetric(
            gram, QuadraturesWithErrors(mom, dict.fromkeys(mom, 0.0), 1), m, cutoff=cutoff)
        assert exact.negativity_lower_bound == zero_width.negativity_lower_bound

    def test_result_serialization(self):
        m, cutoff = 2, 7
        gram, _ = pure_ring_gram(m, 0.4, cutoff + 1)
        res = benchmark_symmetric(gram, Tomography(coherent_state(0.4, cutoff + 1)),
                                  m, cutoff=cutoff)
        payload = res.to_json_dict()
        assert payload["M"] == m and payload["N"] == cutoff
        assert payload["verdict"] in ("QuantumDomain", "Inconclusive")

    @pytest.mark.parametrize("max_iter, status, reason", [
        (200, "Optimal", "converged"), (2, "MaxIterations", "max_iter")])
    def test_diagnostics_say_why_the_solve_stopped(self, monkeypatch, max_iter, status, reason):
        m, cutoff = 2, 7
        gram, _ = pure_ring_gram(m, 0.4, cutoff + 1)
        factored, dpftrf = [], scipy.linalg.lapack.dpftrf

        def recorded(n, *args, **kwargs):
            out = dpftrf(n, *args, **kwargs)
            factored.append((n, out[1]))
            return out

        monkeypatch.setattr(scipy.linalg.lapack, "dpftrf", recorded)
        res = benchmark_symmetric(gram, Tomography(coherent_state(0.4, cutoff + 1)), m,
                                  cutoff=cutoff, solver_config=SDPConfig(max_iter=max_iter))
        assert res.diagnostics["solver_status"] == status
        assert res.diagnostics["stop_reason"] == reason
        payload = res.to_json_dict()
        assert set(payload) == {"M", "scenario", "N", "bound", "verdict", "stop_reason",
                                "iterations", "residuals", "schur_rows", "factor_failures"}
        assert payload["stop_reason"] == reason
        # d(d+1)/2 pinned entries and M of them per partial-transpose sector
        # (tomography of a real seed runs over real blocks), and the Gram row
        assert {n for n, _ in factored} == {payload["schur_rows"]} == {(m + 1) * 36 + 1}
        assert payload["factor_failures"] == sum(info != 0 for _, info in factored)
        assert payload["iterations"] == res.diagnostics["solver_iterations"]
        assert (payload["iterations"] == 2) == (reason == "max_iter")


class TestBenchmarkGeneral:
    def test_matches_symmetric_under_tomography(self):
        m, cutoff = 3, 7
        d = cutoff + 1
        seed = noisy_coherent(0.45, 0.1, d, deficit_tol=1e-6)
        gram = optimize_gram(rotation_ensemble(seed, m), symmetric=True).gram
        rho_out = loss_channel(0.9, d)(seed)
        outs = rotated_outputs(rho_out, m)
        r_sym = benchmark_symmetric(gram, Tomography(rho_out), m, cutoff=cutoff)
        r_gen = benchmark_general(gram, [Tomography(o) for o in outs], cutoff=cutoff)
        assert abs(r_sym.negativity_lower_bound - r_gen.negativity_lower_bound) <= 1e-5

    def test_matches_symmetric_under_complex_alpha_tomography(self, monkeypatch):
        # The symmetric problem is rotated into the real frame and solved over
        # real blocks; the general one, with complex Gram rows, is not.
        m, cutoff = 3, 7
        d = cutoff + 1
        seed = noisy_coherent(0.45 * np.exp(2.1j), 0.1, d, deficit_tol=1e-6)
        gram = optimize_gram(rotation_ensemble(seed, m), symmetric=True).gram
        rho_out = loss_channel(0.9, d)(seed)
        outs = rotated_outputs(rho_out, m)
        real = real_solves(monkeypatch)
        r_sym = benchmark_symmetric(gram, Tomography(rho_out), m, cutoff=cutoff)
        r_gen = benchmark_general(gram, [Tomography(o) for o in outs], cutoff=cutoff)
        assert real == [True, False]
        assert r_sym.certified and r_gen.certified
        assert abs(r_sym.negativity_lower_bound - r_gen.negativity_lower_bound) <= 1e-6
        e = r_sym.optimized_state
        np.testing.assert_allclose(e.sum(axis=0), rho_out.matrix / (1.0 - rho_out.trace_deficit),
                                   atol=1e-7)
        assert np.max(np.abs(e.imag)) > 1e-3  # the blocks are back in the caller's frame

    def test_quadrature_bound_is_weaker_without_symmetry(self):
        # at M = 3 the lab-frame second moments of the rotated outputs read the
        # seed's unconstrained <xp + px>, so neither feasible set contains the
        # other; on this fixture the general bound sits at or below the
        # symmetric one
        m, cutoff = 3, 7
        d = cutoff + 1
        seed = noisy_coherent(0.45, 0.1, d, deficit_tol=1e-6)
        gram = optimize_gram(rotation_ensemble(seed, m), symmetric=True).gram
        rho_out = loss_channel(0.9, d)(seed)
        outs = rotated_outputs(rho_out, m)
        r_sym = benchmark_symmetric(gram, Quadratures(rho_out.quadrature_moments()),
                                    m, cutoff=cutoff)
        r_gen = benchmark_general(gram, [Quadratures(o.quadrature_moments()) for o in outs],
                                  cutoff=cutoff)
        assert r_gen.negativity_lower_bound <= r_sym.negativity_lower_bound + 1e-6

    def test_matches_symmetric_under_error_bars_at_m2(self):
        # the half turn maps the rotated outputs' moment boxes onto each other,
        # so the general feasible set is twirl invariant and the bounds agree
        m, cutoff = 2, 7
        d = cutoff + 1
        seed = noisy_coherent(-0.5j, 0.08, d, deficit_tol=1e-6)
        gram = optimize_gram(rotation_ensemble(seed, m), symmetric=True).gram
        rho_out = loss_channel(0.92, d)(seed)
        errors = {"x": 0.03, "p": 0.03, "xx": 0.04, "pp": 0.09}
        r_sym = benchmark_symmetric(
            gram, QuadraturesWithErrors(rho_out.quadrature_moments(), errors, 1), m,
            cutoff=cutoff)
        r_gen = benchmark_general(
            gram, [QuadraturesWithErrors(o.quadrature_moments(), errors, 1)
                   for o in rotated_outputs(rho_out, m)], cutoff=cutoff)
        assert r_sym.diagnostics["solver_status"] == r_gen.diagnostics["solver_status"] == "Optimal"
        assert abs(r_sym.negativity_lower_bound - r_gen.negativity_lower_bound) <= 1e-6

    def test_mixed_scenarios_bound_between_uniform_ones(self):
        m, cutoff = 2, 7
        d = cutoff + 1
        seed = noisy_coherent(0.5, 0.08, d, deficit_tol=1e-6)
        gram = optimize_gram(rotation_ensemble(seed, m), symmetric=True).gram
        rho_out = loss_channel(0.92, d)(seed)
        outs = rotated_outputs(rho_out, m)
        tomo = [Tomography(o) for o in outs]
        quad = [Quadratures(o.quadrature_moments()) for o in outs]
        mixed = [tomo[0], quad[1]]
        b_tomo = benchmark_general(gram, tomo, cutoff=cutoff).negativity_lower_bound
        b_quad = benchmark_general(gram, quad, cutoff=cutoff).negativity_lower_bound
        b_mixed = benchmark_general(gram, mixed, cutoff=cutoff).negativity_lower_bound
        assert b_quad - 1e-6 <= b_mixed <= b_tomo + 1e-6

    def test_mixed_with_error_bars_bound_between_uniform_ones(self):
        m, cutoff = 2, 7
        d = cutoff + 1
        seed = noisy_coherent(0.5, 0.08, d, deficit_tol=1e-6)
        gram = optimize_gram(rotation_ensemble(seed, m), symmetric=True).gram
        outs = rotated_outputs(loss_channel(0.92, d)(seed), m)
        tomo = [Tomography(o) for o in outs]
        errs = [QuadraturesWithErrors(o.quadrature_moments(), TABLE_ERRORS, 1) for o in outs]
        b_tomo = benchmark_general(gram, tomo, cutoff=cutoff).negativity_lower_bound
        b_errs = benchmark_general(gram, errs, cutoff=cutoff).negativity_lower_bound
        b_mixed = benchmark_general(gram, [tomo[0], errs[1]], cutoff=cutoff).negativity_lower_bound
        assert b_errs - 1e-6 <= b_mixed <= b_tomo + 1e-6

    def test_jointly_infeasible_moments_raise(self):
        m, cutoff = 2, 7
        gram, _ = pure_ring_gram(m, 0.4, cutoff + 1)
        scen = Quadratures({"x": 0.3, "p": 0.0, "xx": 0.13, "pp": 0.3})
        with pytest.raises(RuntimeError, match="infeasible"):
            benchmark_general(gram, [scen] * m, cutoff=cutoff)

    def test_identity_gram_gives_zero(self):
        m, cutoff = 3, 6
        gram = GramMatrix(np.eye(m, dtype=complex))
        outs = rotated_outputs(coherent_state(0.4, cutoff + 1), m)
        res = benchmark_general(gram, [Tomography(o) for o in outs], cutoff=cutoff)
        assert res.negativity_lower_bound <= 1e-6

    def test_size_guard(self):
        gram = GramMatrix(np.eye(8, dtype=complex))
        scens = [Tomography(coherent_state(0.2, 21))] * 8
        with pytest.raises(ValueError, match="guard"):
            benchmark_general(gram, scens, cutoff=20)

    def test_scenario_count_must_match(self):
        gram = GramMatrix(np.eye(3, dtype=complex))
        with pytest.raises(ValueError, match="one scenario per test state"):
            benchmark_general(gram, [Tomography(coherent_state(0.2, 8))], cutoff=7)


class TestIntervalsOverRealBlocks:
    """Interval scenarios whose <p> interval admits 0, directly or after the
    quarter turn, are solved over real symmetric blocks without moving the
    bound."""

    ON_P_AXIS = -0.5j                  # <x> ~ 0: the quarter turn applies
    P_NEAR_ZERO = 0.5 + 0.0147j        # <p> ~ 0.02 +- 0.03: its row is dropped
    DIAGONAL = 0.5 * np.exp(0.25j * np.pi)  # neither interval admits 0
    # Equal widths on x, p and on xx, pp: the lab-frame boxes of the M = 4
    # rotated outputs are quarter turns of each other, so the general problem
    # keeps the twirl symmetry and the symmetric optimum.  At M = 2 the half
    # turn maps any box onto the next one.
    SQUARE_ERRORS = {"x": 0.03, "p": 0.03, "xx": 0.06, "pp": 0.06}

    @staticmethod
    def case(alpha, m, errors, cutoff=7):
        d = cutoff + 1
        seed = noisy_coherent(alpha, 0.08, d, deficit_tol=1e-6)
        gram = optimize_gram(rotation_ensemble(seed, m), symmetric=True).gram
        outs = rotated_outputs(loss_channel(0.92, d)(seed), m)
        return gram, [QuadraturesWithErrors(o.quadrature_moments(), errors, 1) for o in outs]

    @pytest.mark.parametrize("alpha", [ON_P_AXIS, P_NEAR_ZERO], ids=["p-axis", "p-near-zero"])
    @pytest.mark.parametrize("m, errors", [(2, TABLE_ERRORS), (4, SQUARE_ERRORS)],
                             ids=["M2", "M4"])
    def test_matches_general_with_the_p_row(self, monkeypatch, alpha, m, errors):
        gram, scens = self.case(alpha, m, errors)
        real = real_solves(monkeypatch)
        r_sym = benchmark_symmetric(gram, scens[0], m, cutoff=7)
        r_gen = benchmark_general(gram, scens, cutoff=7)
        assert real == [True, False]
        assert r_sym.diagnostics["solver_status"] == r_gen.diagnostics["solver_status"] == "Optimal"
        assert abs(r_sym.negativity_lower_bound - r_gen.negativity_lower_bound) <= 1e-6

    @pytest.mark.parametrize("alpha", [ON_P_AXIS, P_NEAR_ZERO], ids=["p-axis", "p-near-zero"])
    def test_matches_the_complex_solve_at_m3(self, monkeypatch, alpha):
        # A 2 pi / 3 turn maps no box onto a box, so the general problem is a
        # different one here; the reference is the same formulation with the
        # <p> row kept, solved over complex blocks.
        m = 3
        gram, scens = self.case(alpha, m, TABLE_ERRORS)
        real = real_solves(monkeypatch)
        r_real = benchmark_symmetric(gram, scens[0], m, cutoff=7)
        encode = bench._add_scenario_rows
        monkeypatch.setattr(bench, "_add_scenario_rows",
                            lambda *args, **kw: encode(*args, **dict(kw, real=False)))
        r_complex = benchmark_symmetric(gram, scens[0], m, cutoff=7)
        assert real == [True, False]
        assert r_real.certified and r_complex.certified
        assert abs(r_real.negativity_lower_bound - r_complex.negativity_lower_bound) <= 1e-6

    @pytest.mark.parametrize("alpha, on_real_blocks", [
        (ON_P_AXIS, True), (P_NEAR_ZERO, True), (DIAGONAL, False)],
        ids=["p-axis", "p-near-zero", "diagonal"])
    def test_optimized_state_meets_every_interval(self, monkeypatch, alpha, on_real_blocks):
        m, cutoff = 3, 7
        gram, scens = self.case(alpha, m, TABLE_ERRORS, cutoff)
        real = real_solves(monkeypatch)
        res = benchmark_symmetric(gram, scens[0], m, cutoff=cutoff)
        assert real == [on_real_blocks]
        assert res.diagnostics["solver_status"] == "Optimal"
        seed_out = res.optimized_state.sum(axis=0)
        for key, op in moment_operators(cutoff + 1).items():
            value = float(np.real(np.trace(op @ seed_out)))
            mid, width = scens[0].moments[key], scens[0].std_errors[key]
            assert mid - width - 1e-7 <= value <= mid + width + 1e-7, key

    def test_exact_moments_on_the_p_axis_take_the_quarter_turn(self, monkeypatch):
        m, cutoff = 2, 7
        gram, scens = self.case(self.ON_P_AXIS, m, TABLE_ERRORS, cutoff)
        moments = dict(scens[0].moments, x=0.0)
        real = real_solves(monkeypatch)
        res = benchmark_symmetric(gram, Quadratures(moments), m, cutoff=cutoff)
        assert real == [True]
        seed_out = res.optimized_state.sum(axis=0)
        for key, op in moment_operators(cutoff + 1).items():
            assert float(np.real(np.trace(op @ seed_out))) == pytest.approx(
                moments[key], abs=1e-7), key


# One device of every kind that build_channel makes.
ORACLE_CHANNELS = [{"kind": "identity"}, {"kind": "loss", "loss": 0.3},
                   {"kind": "loss_excess", "loss": 0.3, "excess": 0.05},
                   {"kind": "heterodyne_mp"}, {"kind": "dephasing"},
                   {"kind": "replace", "thermal_mean": 0.2}]
ORACLE_CUTOFF = 9


def output_negativity(rho_in, channel):
    """N((id x Lambda) rho_in), with the Kraus sum applied to every block
    directly: ``apply_matrix`` Hermitizes its result, which would corrupt the
    off-diagonal blocks."""
    out = sum(k @ rho_in.blocks @ k.conj().T for k in channel.kraus)
    return negativity(BipartiteBlockMatrix(out, check=False), psd_tol=1e-8)


class TestFeasiblePointOracle:
    """The true joint output (id x Lambda) rho_in of a phase-covariant device
    meets every exact and error-bar constraint, so no bound may exceed its
    negativity."""

    @pytest.fixture(scope="class")
    def ensembles(self):
        seed = noisy_coherent(0.6, 0.05, ORACLE_CUTOFF + 1)
        return seed, {m: optimize_gram(rotation_ensemble(seed, m), symmetric=True)
                      for m in (2, 3)}

    @pytest.mark.parametrize("spec", ORACLE_CHANNELS, ids=[c["kind"] for c in ORACLE_CHANNELS])
    def test_bounds_stay_below_the_true_output_negativity(self, ensembles, spec):
        seed, opts = ensembles
        channel = build_channel(spec, ORACLE_CUTOFF + 1)

        def scenarios(out):
            moments = out.quadrature_moments()
            return [Tomography(out), Quadratures(moments),
                    Quadratures(moments, dict.fromkeys(moments, 0.05), 1)]

        for m, opt in opts.items():
            truth = output_negativity(opt.rho_in, channel)
            outs = [channel(state) for state in rotation_ensemble(seed, m)]
            for scenario in scenarios(outs[0]):
                res = benchmark_symmetric(opt.gram, scenario, m, cutoff=ORACLE_CUTOFF)
                assert res.negativity_lower_bound <= truth + 1e-6, (m, scenario.tag)
            if m == 2:
                for per_state in zip(*(scenarios(out) for out in outs)):
                    res = benchmark_general(opt.gram, list(per_state), cutoff=ORACLE_CUTOFF)
                    assert res.negativity_lower_bound <= truth + 1e-6, ("general", res.scenario_tag)


class TestInputNegativity:
    def test_block_diagonal_is_zero(self, rng):
        m, d = 3, 4
        blocks = np.zeros((m, m, d, d), dtype=complex)
        for k in range(m):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            rho = a @ a.conj().T
            blocks[k, k] = rho / np.real(np.trace(rho))
        assert input_negativity(BipartiteBlockMatrix(blocks)) <= 1e-9

    def test_pure_pair_matches_oracle(self):
        amps = [_coherent_amplitudes(0.5, 12), _coherent_amplitudes(-0.5, 12)]
        tau = BipartiteBlockMatrix.from_pure_family(amps)
        oracle = brute_negativity(tau.full_matrix(), 2, 12)
        assert input_negativity(tau) == pytest.approx(oracle, abs=1e-9)

    def test_general_path_on_asymmetric_input(self, rng):
        from conftest import random_block_matrix
        tau = random_block_matrix(rng, 3, 4)
        direct = brute_negativity(tau.full_matrix(), 3, 4)
        assert input_negativity(tau) == pytest.approx(direct, abs=1e-9)
