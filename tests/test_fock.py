"""Tests for the truncated Fock-space core."""

import json
import math

import numpy as np
import pytest

from qdbench import fock
from qdbench.fock import (DensityMatrix, TruncationError, coherent_state, fidelity,
                          noisy_coherent, number_operator, quadratures, rotation,
                          trace_norm)

from conftest import coherent_overlap, jacobi_singular_values, random_density


class TestNumberOperator:
    def test_vacuum_only(self):
        assert np.array_equal(number_operator(1), np.array([[0.0]]))

    def test_three_levels(self):
        np.testing.assert_allclose(number_operator(3), np.diag([0.0, 1.0, 2.0]))

    def test_thirty_levels(self):
        n = number_operator(30)
        np.testing.assert_allclose(np.diag(n).real, np.arange(30))

    def test_rejects_zero_dim(self):
        with pytest.raises(ValueError):
            number_operator(0)


class TestRotation:
    def test_zero_angle_is_identity(self):
        np.testing.assert_allclose(rotation(0.0, 4), np.eye(4))

    def test_pi_on_two_levels(self):
        np.testing.assert_allclose(rotation(np.pi, 2), np.diag([1.0, -1.0]),
                                   atol=1e-15)

    def test_root_of_unity_periodicity(self):
        u = rotation(2 * np.pi / 4, 6)
        u4 = np.linalg.matrix_power(u, 4)
        assert np.max(np.abs(u4 - np.eye(6))) <= 1e-12

    def test_unitarity(self):
        u = rotation(0.7321, 9)
        assert np.max(np.abs(u @ u.conj().T - np.eye(9))) <= 1e-12

    def test_group_law(self, rng):
        for _ in range(20):
            theta, phi = rng.uniform(-8, 8, size=2)
            lhs = rotation(theta, 7) @ rotation(phi, 7)
            rhs = rotation(theta + phi, 7)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestQuadratures:
    def test_vacuum_variance_half(self):
        for d in (2, 3, 10, 30):
            x, p = quadratures(d)
            assert abs((x @ x)[0, 0].real - 0.5) <= 1e-12
            assert abs((p @ p)[0, 0].real - 0.5) <= 1e-12

    def test_hermitian(self):
        x, p = quadratures(12)
        assert isinstance(x, np.ndarray) and isinstance(p, np.ndarray)
        assert fock.hermitian_part_error(x) == 0.0 and fock.hermitian_part_error(p) == 0.0

    def test_coherent_mean(self):
        alpha = 0.5
        rho = coherent_state(alpha, 30)
        x, _ = quadratures(30)
        assert abs(rho.expectation(x) - math.sqrt(2) * alpha) <= 1e-8

    def test_commutator_on_interior(self):
        d = 12
        x, p = quadratures(d)
        comm = x @ p - p @ x
        # [x, p] = i on every level except the truncation boundary
        np.testing.assert_allclose(np.diag(comm)[:-1], 1j * np.ones(d - 1), atol=1e-12)
        assert abs(comm[0, 0] - 1j) <= 1e-12

    def test_single_level_rejected(self):
        with pytest.raises(ValueError):
            quadratures(1)


class TestDisplacement:
    def test_unitary_and_displaces_the_vacuum(self):
        for d in (2, 5, 30):
            u = fock.displacement(0.3 - 0.4j, d)
            assert np.max(np.abs(u @ u.conj().T - np.eye(d))) <= 1e-12
        amps = fock._coherent_amplitudes(0.3 - 0.4j, 30)
        np.testing.assert_allclose(fock.displacement(0.3 - 0.4j, 30)[:, 0], amps, atol=1e-12)


class TestCoherentState:
    def test_vacuum(self):
        rho = coherent_state(0.0, 5)
        expected = np.zeros((5, 5))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-15)

    def test_mean_photon_number(self):
        rho = coherent_state(0.5, 30)
        assert abs(rho.mean_photon() - 0.25) <= 1e-8

    def test_gaussian_overlap(self):
        a, b = coherent_state(0.5, 30), coherent_state(-0.5, 30)
        assert abs(fidelity(a, b) - math.exp(-1.0)) <= 1e-8

    def test_truncation_guard(self):
        with pytest.raises(TruncationError) as err:
            coherent_state(3.0, 8)  # |alpha|^2 = 9 > 2
        assert err.value.deficit is not None

    def test_deficit_gate(self):
        # guard passes (|alpha|^2 = 1 <= 4) but the deficit exceeds 1e-8
        with pytest.raises(TruncationError):
            coherent_state(1.0, 16 // 4)

    def test_complex_amplitude_phases(self):
        alpha = 0.3 + 0.4j
        rho = coherent_state(alpha, 30)
        x, p = quadratures(30)
        assert abs(rho.expectation(x) - math.sqrt(2) * alpha.real) <= 1e-8
        assert abs(rho.expectation(p) - math.sqrt(2) * alpha.imag) <= 1e-8


class TestNoisyCoherent:
    def test_zero_excess_equals_coherent(self):
        a = noisy_coherent(0.4, 0.0, 20)
        b = coherent_state(0.4, 20)
        np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-14)

    def test_lab_style_first_moments(self):
        # first moments sit exactly where requested; the isotropic thermal noise
        # reproduces the mean photon number implied by the raw second moments
        alpha = complex(0.01, -0.95) / math.sqrt(2)
        target_n = (0.57 + 1.41 - 1.0) / 2.0
        excess = target_n - abs(alpha) ** 2
        rho = noisy_coherent(alpha, excess, 30)
        mom = rho.quadrature_moments()
        assert abs(mom["x"] - 0.01) <= 1e-6
        assert abs(mom["p"] - (-0.95)) <= 1e-6
        assert abs(rho.mean_photon() - target_n) <= 1e-6
        # isotropic variances (1 + 2 nu)/2 each
        assert abs((mom["xx"] - mom["x"] ** 2) - (1 + 2 * excess) / 2) <= 1e-6
        assert abs((mom["pp"] - mom["p"] ** 2) - (1 + 2 * excess) / 2) <= 1e-6

    def test_memory_scale_mean_photon(self):
        alpha = 0.67j * 0.8
        excess = 0.67 - abs(alpha) ** 2
        rho = noisy_coherent(alpha, excess, 30)
        assert abs(rho.mean_photon() - 0.67) <= 1e-6


class TestFidelity:
    def test_self_fidelity(self, rng):
        rho = DensityMatrix(random_density(rng, 8))
        assert abs(fidelity(rho, rho) - 1.0) <= 1e-10

    def test_pure_state_overlap(self):
        a, b = coherent_state(0.5, 30), coherent_state(-0.5, 30)
        assert abs(fidelity(a, b) - abs(coherent_overlap(0.5, -0.5)) ** 2) <= 1e-8

    def test_vacuum_vs_maximally_mixed(self):
        d = 6
        vac = coherent_state(0.0, d)
        mixed = DensityMatrix(np.eye(d) / d)
        assert abs(fidelity(vac, mixed) - 1.0 / d) <= 1e-10

    def test_symmetry(self, rng):
        a = DensityMatrix(random_density(rng, 10))
        b = DensityMatrix(random_density(rng, 10))
        assert abs(fidelity(a, b) - fidelity(b, a)) <= 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            fidelity(coherent_state(0.0, 4), coherent_state(0.0, 5))

    def test_fixed_ancilla_invariance(self, rng):
        a = DensityMatrix(random_density(rng, 3))
        b = DensityMatrix(random_density(rng, 3))
        sigma = random_density(rng, 2)
        a_ext = DensityMatrix(np.kron(a.matrix, sigma))
        b_ext = DensityMatrix(np.kron(b.matrix, sigma))
        assert abs(fidelity(a_ext, b_ext) - fidelity(a, b)) <= 1e-9


class TestTraceNorm:
    def test_density_matrix(self, rng):
        rho = random_density(rng, 7)
        assert abs(trace_norm(rho) - 1.0) <= 1e-10

    def test_signature(self):
        assert abs(trace_norm(np.diag([1.0, -1.0])) - 2.0) <= 1e-12

    def test_against_jacobi_svd(self, rng):
        for _ in range(5):
            a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            h = a + a.conj().T
            oracle = float(np.sum(jacobi_singular_values(h)))
            assert abs(trace_norm(h) - oracle) <= 1e-9

    def test_unitary_invariance(self, rng):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        u = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
        v = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
        assert abs(trace_norm(u @ a @ v) - trace_norm(a)) <= 1e-9


class TestDensityMatrixValidation:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[1.0, 0.5], [0.0, 0.0]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="PSD"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.diag([0.6, 0.6]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, -float("inf"))])
    def test_rejects_non_finite_entries_by_position(self, bad):
        matrix = np.diag([0.5, 0.5, 0.0]).astype(complex)
        matrix[0, 2] = matrix[2, 0] = bad
        with pytest.raises(ValueError, match=r"non-finite entries at \(0, 2\), \(2, 0\)"):
            DensityMatrix(matrix)

    def test_clips_slightly_negative(self):
        rho = DensityMatrix(np.diag([1.0 + 5e-10, -5e-10]))
        assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-15

    def test_sub_normalized_records_deficit(self):
        rho = DensityMatrix(np.diag([0.9, 0.05]), allow_sub_normalized=True)
        assert rho.trace_deficit == pytest.approx(0.05, abs=1e-12)

    def test_json_round_trip(self, rng):
        rho = DensityMatrix(random_density(rng, 5))
        again = DensityMatrix.from_json_dict(rho.to_json_dict())
        np.testing.assert_allclose(again.matrix, rho.matrix, atol=1e-15)

    def test_json_rejects_mismatched_arrays(self):
        payload = {"dim": 3, "re": [[0.0] * 3] * 3, "im": [[0.0] * 2] * 3}
        with pytest.raises(ValueError, match="3x3"):
            DensityMatrix.from_json_dict(payload)

    def test_json_rejects_non_square(self):
        payload = {"dim": 2, "re": [[1.0, 0.0]], "im": [[0.0, 0.0]]}
        with pytest.raises(ValueError):
            DensityMatrix.from_json_dict(payload)

    @pytest.mark.parametrize("field", ["dim", "re", "im"])
    def test_json_rejects_missing_field(self, field):
        payload = DensityMatrix(np.eye(2) / 2).to_json_dict()
        del payload[field]
        with pytest.raises(ValueError, match=f"density-matrix JSON has no field '{field}'"):
            DensityMatrix.from_json_dict(payload)


# noisy_memory's seed built at D = 24 (its amplitude and excess noise)
MEMORY_ALPHA, MEMORY_EXCESS = complex(0.00707, -0.67175), 0.219


class TestFitDim:
    def test_padding_returns_a_zero_padded_copy(self, rng):
        rho = random_density(rng, 4)
        padded, lost = fock.fit_dim(rho, 7, "state")
        assert lost == 0.0 and padded.shape == (7, 7)
        assert np.array_equal(padded[:4, :4], rho)
        assert not np.any(padded[4:]) and not np.any(padded[:, 4:])
        padded[0, 0] = 5.0
        assert rho[0, 0] != 5.0

    def test_truncation_returns_the_top_left_block_and_its_lost_trace(self):
        rho = noisy_coherent(MEMORY_ALPHA, MEMORY_EXCESS, 24, deficit_tol=1e-6).matrix
        cut, lost = fock.fit_dim(rho, 16, "state")
        assert np.array_equal(cut, rho[:16, :16])
        assert lost == 1.0 - float(np.real(np.trace(rho[:16, :16])))
        assert 1.8e-9 < lost < 2.0e-9

    def test_truncation_losing_too_much_raises_naming_what(self):
        rho = noisy_coherent(MEMORY_ALPHA, MEMORY_EXCESS, 24, deficit_tol=1e-6).matrix
        with pytest.raises(TruncationError, match="seed state loses trace") as exc:
            fock.fit_dim(rho, 6, "seed state")
        assert abs(exc.value.deficit - 1.44e-3) <= 1e-5
