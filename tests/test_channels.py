"""Tests for the fixture channel simulators."""

import math

import numpy as np
import pytest

from qdbench.channels import (KrausChannel, additive_noise_channel, amplifier_channel,
                              build_channel, compose_kraus, dephasing_channel,
                              heterodyne_mp_channel, identity_channel, loss_channel,
                              replace_channel)
from qdbench.fock import coherent_state, noisy_coherent

DIM = 16
NOMINAL = {"kind": "loss_excess", "loss": 0.15, "excess": 0.02}


class TestTracePreservation:
    @pytest.mark.parametrize("maker", [
        lambda: identity_channel(DIM),
        lambda: loss_channel(0.85, DIM),
        lambda: additive_noise_channel(0.1, DIM),
        lambda: heterodyne_mp_channel(DIM),
        lambda: dephasing_channel(DIM),
        lambda: replace_channel(coherent_state(0.0, DIM)),
        lambda: additive_noise_channel(0.5, DIM),
        lambda: build_channel(NOMINAL, DIM),
        lambda: build_channel({"kind": "loss_excess", "loss": 0.3, "excess": 0.4}, DIM),
    ])
    def test_completeness(self, maker):
        assert maker().is_trace_preserving(tol=1e-12)

    @pytest.mark.parametrize("maker", [
        lambda: loss_channel(0.85, DIM),
        lambda: additive_noise_channel(0.1, DIM),
        lambda: heterodyne_mp_channel(DIM),
        lambda: dephasing_channel(DIM),
        lambda: additive_noise_channel(0.5, DIM),
        lambda: build_channel(NOMINAL, DIM),
        lambda: build_channel({"kind": "loss_excess", "loss": 0.3, "excess": 0.4}, DIM),
    ])
    def test_phase_covariance(self, maker):
        assert maker().covariance_defect() <= 1e-12


class TestLoss:
    def test_mean_photon_scales(self):
        st = coherent_state(0.5, DIM)
        out = loss_channel(0.85, DIM)(st)
        assert out.mean_photon() == pytest.approx(0.85 * 0.25, abs=1e-10)

    def test_amplitude_scales(self):
        st = coherent_state(0.5, DIM)
        out = loss_channel(0.85, DIM)(st)
        assert out.quadrature_moments()["x"] == pytest.approx(
            math.sqrt(2 * 0.85) * 0.5, abs=1e-10)

    def test_full_loss_gives_vacuum(self):
        st = noisy_coherent(0.4, 0.2, DIM, deficit_tol=1e-6)
        out = loss_channel(0.0, DIM)(st)
        assert out.matrix[0, 0].real == pytest.approx(1.0, abs=1e-9)

    def test_parameter_range(self):
        with pytest.raises(ValueError):
            loss_channel(1.2, DIM)


class TestAdditiveNoise:
    def test_moments(self):
        st = coherent_state(0.5, DIM)
        out = additive_noise_channel(0.12, DIM)(st)
        mom = out.quadrature_moments()
        assert mom["x"] == pytest.approx(math.sqrt(2) * 0.5, abs=1e-7)
        assert mom["xx"] - mom["x"] ** 2 == pytest.approx(0.5 + 0.12, abs=1e-7)
        assert mom["pp"] - mom["p"] ** 2 == pytest.approx(0.5 + 0.12, abs=1e-7)
        assert out.mean_photon() == pytest.approx(0.25 + 0.12, abs=1e-7)

    def test_zero_excess_is_identity(self):
        st = coherent_state(0.4, DIM)
        out = additive_noise_channel(0.0, DIM)(st)
        np.testing.assert_allclose(out.matrix, st.matrix, atol=1e-12)


class TestHeterodyneMP:
    def test_vacuum_to_thermal(self):
        out = heterodyne_mp_channel(DIM)(coherent_state(0.0, DIM))
        expected = 0.5 ** (np.arange(DIM) + 1)
        assert np.max(np.abs(np.diag(out.matrix).real - expected)) <= 2e-5

    def test_coherent_gains_one_photon(self):
        st = coherent_state(0.5, DIM)
        out = heterodyne_mp_channel(DIM)(st)
        assert out.mean_photon() == pytest.approx(1.25, abs=2e-3)
        mom = out.quadrature_moments()
        assert mom["xx"] - mom["x"] ** 2 == pytest.approx(1.5, abs=2e-3)

    def test_flagged_entanglement_breaking(self):
        assert heterodyne_mp_channel(8).entanglement_breaking


class TestDephasing:
    def test_kills_coherences(self):
        st = coherent_state(0.5, DIM)
        out = dephasing_channel(DIM)(st)
        off = out.matrix - np.diag(np.diag(out.matrix))
        assert np.max(np.abs(off)) <= 1e-14
        np.testing.assert_allclose(np.diag(out.matrix), np.diag(st.matrix), atol=1e-14)


class TestReplace:
    def test_outputs_fixed_state(self):
        sigma = coherent_state(0.0, DIM)
        chan = replace_channel(sigma)
        out = chan(noisy_coherent(0.4, 0.1, DIM, deficit_tol=1e-6))
        np.testing.assert_allclose(out.matrix, sigma.matrix, atol=1e-10)


class TestBuildChannel:
    def test_kinds(self):
        for spec in ({"kind": "identity"}, {"kind": "loss", "loss": 0.1},
                     {"kind": "loss_excess", "loss": 0.1, "excess": 0.05},
                     {"kind": "dephasing"}, {"kind": "replace"},
                     {"kind": "replace", "thermal_mean": 0.3}):
            chan = build_channel(spec, 10)
            assert isinstance(chan, KrausChannel)
            assert chan.is_trace_preserving(tol=1e-9)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown channel"):
            build_channel({"kind": "teleporter"}, 8)

    def test_loss_excess_composition_moments(self):
        st = coherent_state(0.5, DIM)
        out = build_channel({"kind": "loss_excess", "loss": 0.15, "excess": 0.02}, DIM)(st)
        mom = out.quadrature_moments()
        assert mom["x"] == pytest.approx(math.sqrt(2 * 0.85) * 0.5, abs=1e-6)
        assert mom["xx"] - mom["x"] ** 2 == pytest.approx(0.52, abs=1e-6)


def _blockwise(channel, blocks):
    """sum_k K_k X K_k^dag on each (d, d) block of a stack, without Hermitizing."""
    out = np.zeros_like(blocks)
    for k in channel.kraus:
        out += k @ blocks @ k.conj().T
    return out


def _random_matrices(rng, n):
    return rng.standard_normal((n, DIM, DIM)) + 1j * rng.standard_normal((n, DIM, DIM))


class TestMinimalKrausSets:
    @pytest.mark.parametrize("spec", [
        {"kind": "identity"}, {"kind": "loss", "loss": 0.15}, NOMINAL,
        {"kind": "loss_excess", "loss": 0.3, "excess": 0.4}, {"kind": "heterodyne_mp"},
        {"kind": "dephasing"}, {"kind": "replace"}, {"kind": "replace", "thermal_mean": 0.3}])
    def test_at_most_d_squared_operators_plus_refills(self, spec):
        assert len(build_channel(spec, DIM).kraus) <= DIM * (DIM + 1)

    def test_loss_excess_is_loss_then_noise(self, rng):
        """The composed channel acts as loss followed by additive noise, on
        density matrices and blockwise on non-Hermitian blocks (as on the
        off-diagonal blocks of a joint state)."""
        chan = build_channel(NOMINAL, DIM)
        loss, noise = loss_channel(1.0 - 0.15, DIM), additive_noise_channel(0.02, DIM)
        a = _random_matrices(rng, 4)
        rhos = a @ a.conj().swapaxes(1, 2)
        rhos /= np.trace(rhos, axis1=1, axis2=2).real[:, None, None]
        for x in (rhos, _random_matrices(rng, 3)):
            want = _blockwise(noise, _blockwise(loss, x))
            scale = max(1.0, float(np.max(np.abs(x))))
            assert np.max(np.abs(_blockwise(chan, x) - want)) <= 1e-13 * scale
        for rho in rhos:
            want = noise.apply_matrix(loss.apply_matrix(rho))
            assert np.max(np.abs(chan.apply_matrix(rho) - want)) <= 1e-13

    def test_each_operator_shifts_the_photon_number_by_one_amount(self):
        """The Choi matrix of a phase-covariant map splits into
        photon-number-difference sectors, so every operator lies on one
        diagonal of the Fock matrix: for a composition and for the heterodyne
        measure-and-prepare map alike."""
        for spec in (NOMINAL, {"kind": "heterodyne_mp"}):
            for k in build_channel(spec, DIM).kraus:
                rows, cols = np.nonzero(k)
                assert rows.size and np.unique(rows - cols).size == 1

    def test_composition_without_phase_covariance(self, rng):
        """A map whose Choi matrix mixes photon-number shifts is decomposed
        whole: random channels from isometries compose to the sequential map."""
        d = 5

        def random_kraus(rank):
            a = rng.standard_normal((rank * d, d)) + 1j * rng.standard_normal((rank * d, d))
            return list(np.linalg.qr(a)[0].reshape(rank, d, d))

        first, then = random_kraus(3), random_kraus(4)
        chan = KrausChannel(compose_kraus(first, then))
        assert len(chan.kraus) <= d * d
        x = rng.standard_normal((2, d, d)) + 1j * rng.standard_normal((2, d, d))
        want = _blockwise(KrausChannel(then), _blockwise(KrausChannel(first), x))
        assert np.max(np.abs(_blockwise(chan, x) - want)) <= 1e-13 * np.max(np.abs(x))
        assert chan.is_trace_preserving(tol=1e-12)


class TestBadParameters:
    @pytest.mark.parametrize("excess", [math.nan, -0.1, 1.0, math.inf])
    def test_additive_noise_names_excess(self, excess):
        with pytest.raises(ValueError, match="excess must lie in"):
            additive_noise_channel(excess, DIM)

    @pytest.mark.parametrize("gain", [math.nan, 0.5, math.inf])
    def test_amplifier_names_gain(self, gain):
        with pytest.raises(ValueError, match="gain must be"):
            amplifier_channel(gain, DIM)

    @pytest.mark.parametrize("n_mean", [-0.5, math.nan, math.inf])
    def test_replace_names_thermal_mean(self, n_mean):
        with pytest.raises(ValueError, match="thermal_mean must be"):
            build_channel({"kind": "replace", "thermal_mean": n_mean}, DIM)

    def test_loss_excess_rejects_nan_excess(self):
        with pytest.raises(ValueError, match="excess must lie in"):
            build_channel({"kind": "loss_excess", "loss": 0.1, "excess": math.nan}, DIM)

    @pytest.mark.parametrize("kind", ["loss", "loss_excess"])
    @pytest.mark.parametrize("loss", [math.nan, -0.1, 1.2])
    def test_loss_kinds_name_loss(self, kind, loss):
        with pytest.raises(ValueError, match="loss must lie in"):
            build_channel({"kind": kind, "loss": loss, "excess": 0.02}, DIM)
