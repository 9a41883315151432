"""Tests for the negativity-bound benchmark."""

import numpy as np
import pytest

from qdbench.bench import (Quadratures, QuadraturesWithErrors, Tomography,
                           benchmark_general, benchmark_symmetric, input_negativity)
from qdbench.blocksym import BipartiteBlockMatrix, gram_of
from qdbench.channels import heterodyne_mp_channel, loss_channel
from qdbench.fock import DensityMatrix, _coherent_amplitudes, coherent_state, noisy_coherent, rotation
from qdbench.gramopt import GramMatrix, optimize_gram, rotation_ensemble
from qdbench.sdp import SDPConfig

from conftest import brute_negativity

TABLE_ERRORS = {"x": 0.03, "p": 0.03, "xx": 0.04, "pp": 0.09}


def pure_ring_gram(m, alpha, dim):
    amps = [_coherent_amplitudes(alpha * np.exp(-2j * np.pi * k / m), dim) for k in range(m)]
    tau = BipartiteBlockMatrix.from_pure_family(amps)
    z = gram_of(tau).z.copy()
    np.fill_diagonal(z, 1.0)
    return GramMatrix(z), tau


def rotated_outputs(rho_out, m):
    u = rotation(2 * np.pi / m, rho_out.dim).matrix
    outs = [rho_out.matrix]
    for _ in range(m - 1):
        outs.append(u @ outs[-1] @ u.conj().T)
    return [DensityMatrix(o, allow_sub_normalized=True) for o in outs]


class TestScenarios:
    def test_tomography_estimates_mean_photon(self):
        scen = Tomography(coherent_state(0.5, 12))
        assert scen.mean_photon_estimate() == pytest.approx(0.25, abs=1e-8)

    def test_quadratures_validates_moments(self):
        with pytest.raises(ValueError, match="unphysical"):
            Quadratures({"x": 1.0, "p": 0.0, "xx": 0.5, "pp": 0.5})

    def test_error_widening_admits_borderline(self):
        # xx < x^2 but within 1 sigma of physical
        QuadraturesWithErrors({"x": 1.0, "p": 0.0, "xx": 0.95, "pp": 0.5},
                              {"x": 0.0, "p": 0.0, "xx": 0.08, "pp": 0.01}, 1)

    def test_sigma_level_restricted(self):
        with pytest.raises(ValueError, match="sigma_level"):
            QuadraturesWithErrors({"x": 0, "p": 0, "xx": 0.5, "pp": 0.5},
                                  {"x": 0, "p": 0, "xx": 0, "pp": 0}, 5)

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
    def test_diagnostics_say_why_the_solve_stopped(self, max_iter, status, reason):
        m, cutoff = 2, 7
        gram, _ = pure_ring_gram(m, 0.4, cutoff + 1)
        res = benchmark_symmetric(gram, Tomography(coherent_state(0.4, cutoff + 1)), m,
                                  cutoff=cutoff, solver_config=SDPConfig(max_iter=max_iter))
        assert res.diagnostics["solver_status"] == status
        assert res.diagnostics["stop_reason"] == reason
        assert set(res.to_json_dict()) == {"M", "scenario", "N", "bound", "verdict", "residuals"}


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

    def test_quadrature_bound_is_weaker_without_symmetry(self):
        # without the symmetry restriction the feasible set is larger, so the
        # general quadrature bound sits at or below the symmetric one
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
