"""Tests for the phase-symmetric block machinery and standard form."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdbench.blocksym import (BipartiteBlockMatrix, block_functional, from_standard_form,
                              gram_of, negativity, negativity_stform, partial_transpose,
                              pt_rearrange, symmetry_check,
                              to_standard_form, trace_weights, twirl)
from qdbench.fock import _coherent_amplitudes, trace_norm

from conftest import (brute_negativity, brute_trace_norm_pt, coherent_overlap,
                      dense_partial_transpose, random_block_matrix, random_density,
                      random_symmetric_fixture)


class TestPartialTranspose:
    def test_product_state_spectrum_unchanged(self, rng):
        m, d = 3, 4
        rho_a = random_density(rng, m)
        rho_b = random_density(rng, d)
        blocks = m * np.einsum("kl,ij->klij", rho_a, rho_b)
        tau = BipartiteBlockMatrix(blocks)
        before = np.sort(np.linalg.eigvalsh(tau.full_matrix()))
        after = np.sort(np.linalg.eigvalsh(partial_transpose(tau).full_matrix()))
        np.testing.assert_allclose(before, after, atol=1e-12)

    def test_bell_state_spectrum(self):
        bell = BipartiteBlockMatrix.from_pure_family([np.array([1.0, 0]), np.array([0, 1.0])])
        pt = partial_transpose(bell).full_matrix()
        assert abs(np.linalg.eigvalsh(pt)[0] + 0.5) <= 1e-12

    def test_involution_bit_exact(self, rng):
        tau = random_block_matrix(rng, 4, 3)
        back = partial_transpose(partial_transpose(tau))
        assert np.array_equal(back.blocks, tau.blocks)

    def test_matches_dense_oracle(self, rng):
        tau = random_block_matrix(rng, 3, 5)
        ours = partial_transpose(tau).full_matrix()
        oracle = dense_partial_transpose(tau.full_matrix(), 3, 5)
        np.testing.assert_allclose(ours, oracle, atol=1e-14)


class TestNegativity:
    def test_separable_product_is_zero(self, rng):
        m, d = 2, 5
        rho_a = random_density(rng, m)
        rho_b = random_density(rng, d)
        tau = BipartiteBlockMatrix(m * np.einsum("kl,ij->klij", rho_a, rho_b))
        assert negativity(tau) <= 1e-12

    def test_bell_state(self):
        bell = BipartiteBlockMatrix.from_pure_family([np.array([1.0, 0]), np.array([0, 1.0])])
        assert abs(negativity(bell) - 0.5) <= 1e-12

    def test_coherent_pair_matches_oracle(self):
        amps = [_coherent_amplitudes(0.5, 16), _coherent_amplitudes(-0.5, 16)]
        tau = BipartiteBlockMatrix.from_pure_family(amps)
        oracle = brute_negativity(tau.full_matrix(), 2, 16)
        assert abs(negativity(tau) - oracle) <= 1e-10

    def test_rejects_non_psd(self, rng):
        blocks = random_block_matrix(rng, 2, 3).blocks.copy()
        blocks[0, 0] -= 2 * np.eye(3)
        with pytest.raises(ValueError, match="PSD"):
            negativity(BipartiteBlockMatrix(blocks))


class TestTwirl:
    def test_projects_to_symmetric(self, rng):
        for m, d in [(2, 3), (5, 4), (8, 2)]:
            tau = twirl(random_block_matrix(rng, m, d))
            assert symmetry_check(tau) <= 1e-12

    def test_fixed_point(self, rng):
        tau = random_symmetric_fixture(rng, 4, 3)
        again = twirl(tau)
        assert np.max(np.abs(again.blocks - tau.blocks)) <= 1e-12

    def test_idempotent(self, rng):
        tau = random_block_matrix(rng, 3, 4)
        once, twice = twirl(tau), twirl(twirl(tau))
        assert np.max(np.abs(once.blocks - twice.blocks)) <= 1e-12

    def test_preserves_trace(self, rng):
        tau = random_block_matrix(rng, 6, 3)
        assert abs(twirl(tau).trace() - tau.trace()) <= 1e-12

    def test_rotation_generated_pure_family_unchanged(self):
        m, d = 4, 12
        amps = [_coherent_amplitudes(0.45 * np.exp(-2j * np.pi * k / m), d) for k in range(m)]
        tau = BipartiteBlockMatrix.from_pure_family(amps)
        tw = twirl(tau)
        assert np.max(np.abs(tw.blocks - tau.blocks)) <= 1e-10


def loop_standard_form(blocks):
    """[E_k]_{jl} = (1/M) sum_{m,n} omega^{m(j-k) + n(k-l)} [tau]_{mj,nl}, with
    [tau]_{mj,nl} = blocks[m, n, j, l] / M, summed term by term."""
    m, d = blocks.shape[0], blocks.shape[2]
    e = np.zeros((m, d, d), dtype=complex)
    for k in range(m):
        for j in range(d):
            for l in range(d):
                for a in range(m):
                    for b in range(m):
                        phase = np.exp(2j * np.pi * (a * (j - k) + b * (k - l)) / m)
                        e[k, j, l] += phase * blocks[a, b, j, l] / m**2
    return e


def loop_from_standard_form(e):
    """[tau]_{ij,kl} = (1/M) sum_m omega^{m(i-k) + k*l - i*j} [E_m]_{jl}, as
    blocks[i, k, j, l] = M [tau]_{ij,kl}, summed term by term."""
    m, d = e.shape[0], e.shape[1]
    blocks = np.zeros((m, m, d, d), dtype=complex)
    for i in range(m):
        for k in range(m):
            for j in range(d):
                for l in range(d):
                    for a in range(m):
                        phase = np.exp(2j * np.pi * (a * (i - k) + k * l - i * j) / m)
                        blocks[i, k, j, l] += phase * e[a, j, l]
    return blocks


def loop_twirl(blocks):
    """(1/M) sum_t U^t tau_{k-t, l-t} U^{-t}, U = diag(omega^{-n}), one
    transform at a time."""
    m, d = blocks.shape[0], blocks.shape[2]
    u = np.exp(-2j * np.pi * np.arange(d) / m)
    out = np.zeros_like(blocks)
    for t in range(m):
        ut = u**t
        for k in range(m):
            for l in range(m):
                out[k, l] += ut[:, None] * blocks[(k - t) % m, (l - t) % m] * ut.conj() / m
    return out


class TestAgainstLoops:
    """The transforms against their element-wise definitions, written as
    plain loops: the round-trip tests alone cannot see an error that the
    forward map, its inverse and the twirl share."""

    def test_to_standard_form(self, rng):
        for m in range(1, 7):
            for d in range(1, 6):
                tau = BipartiteBlockMatrix(loop_twirl(random_block_matrix(rng, m, d).blocks))
                want = loop_standard_form(tau.blocks)
                assert np.max(np.abs(to_standard_form(tau) - want)) <= 1e-14

    def test_from_standard_form(self, rng):
        for m in range(1, 7):
            for d in range(1, 6):
                e = rng.standard_normal((m, d, d)) + 1j * rng.standard_normal((m, d, d))
                got = from_standard_form(e).blocks
                assert np.max(np.abs(got - loop_from_standard_form(e))) <= 1e-13

    def test_twirl_on_asymmetric_grids(self, rng):
        for m in range(1, 7):
            for d in (1, 3, 4):
                tau = random_block_matrix(rng, m, d)
                assert symmetry_check(tau) > 1e-3 or m == 1
                assert np.max(np.abs(twirl(tau).blocks - loop_twirl(tau.blocks))) <= 1e-14


class TestSymmetryCheck:
    def test_single_block_trivial(self, rng):
        tau = random_block_matrix(rng, 1, 5)
        assert symmetry_check(tau) == 0.0

    def test_generic_matrix_positive(self, rng):
        tau = random_block_matrix(rng, 3, 4)
        assert symmetry_check(tau) > 1e-3


class TestStandardForm:
    def test_m1_is_identity_map(self, rng):
        tau = random_block_matrix(rng, 1, 4)
        sf = to_standard_form(tau)
        np.testing.assert_allclose(sf[0], tau.blocks[0, 0], atol=1e-14)
        back = from_standard_form(sf)
        np.testing.assert_allclose(back.blocks, tau.blocks, atol=1e-14)

    def test_symmetrized_identity(self):
        m, d = 4, 3
        blocks = np.zeros((m, m, d, d), dtype=complex)
        for k in range(m):
            blocks[k, k] = np.eye(d)
        sf = to_standard_form(BipartiteBlockMatrix(blocks))
        for k in range(m):
            off = sf[k] - np.diag(np.diag(sf[k]))
            assert np.max(np.abs(off)) <= 1e-14
        np.testing.assert_allclose(sf.sum(axis=0), np.eye(d), atol=1e-12)

    def test_round_trip_and_sum_identity(self, rng):
        for m, d in [(2, 4), (3, 7), (5, 5), (8, 16)]:
            tau = random_symmetric_fixture(rng, m, d)
            sf = to_standard_form(tau)
            assert np.max(np.abs(sf.sum(axis=0) - tau.blocks[0, 0])) <= 1e-10
            back = from_standard_form(sf)
            assert np.max(np.abs(back.blocks - tau.blocks)) <= 1e-10
            assert symmetry_check(back) <= 1e-12

    def test_eigenvalue_multiset(self, rng):
        tau = random_symmetric_fixture(rng, 4, 6)
        sf = to_standard_form(tau)
        ev_full = np.sort(np.linalg.eigvalsh(tau.full_matrix()))
        ev_blocks = np.sort(np.concatenate(
            [np.linalg.eigvalsh((sf[k] + sf[k].conj().T) / 2) for k in range(4)]))
        np.testing.assert_allclose(ev_full, ev_blocks, atol=1e-9)

    def test_psd_equivalence_sign(self, rng):
        agree = 0
        trials = 200
        for _ in range(trials):
            m = int(rng.integers(2, 7))
            d = int(rng.integers(2, 7))
            tau = random_symmetric_fixture(rng, m, d, psd=bool(rng.integers(0, 2)))
            sf = to_standard_form(tau)
            min_full = np.linalg.eigvalsh(tau.full_matrix())[0]
            min_blocks = min(np.linalg.eigvalsh((sf[k] + sf[k].conj().T) / 2)[0]
                             for k in range(m))
            if np.sign(round(min_full, 12)) == np.sign(round(min_blocks, 12)):
                agree += 1
        assert agree == trials

    def test_rejects_asymmetric_input(self, rng):
        tau = random_block_matrix(rng, 3, 4)
        with pytest.raises(ValueError, match="symmetry"):
            to_standard_form(tau)

    @pytest.mark.parametrize("shape", [(2, 3, 4), (3, 3)])
    def test_inverse_rejects_a_stack_of_wrong_shape(self, shape):
        with pytest.raises(ValueError, match=r"\(M, D, D\)"):
            from_standard_form(np.zeros(shape, dtype=complex))

    def test_single_pure_block_reconstruction_psd(self, rng):
        m, d = 3, 4
        vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        vec /= np.linalg.norm(vec)
        e = np.zeros((m, d, d), dtype=complex)
        e[0] = np.outer(vec, vec.conj())
        tau = from_standard_form(e)
        assert symmetry_check(tau) <= 1e-12
        assert np.linalg.eigvalsh(tau.full_matrix())[0] >= -1e-12


class TestPTRearrange:
    def test_m1_identity(self, rng):
        sf = to_standard_form(random_block_matrix(rng, 1, 5))
        pt = pt_rearrange(sf)
        np.testing.assert_allclose(pt[0], sf[0], atol=1e-15)

    def test_diagonal_specialization(self, rng):
        m, d = 4, 6
        e = np.zeros((m, d, d), dtype=complex)
        for k in range(m):
            e[k] = np.diag(rng.standard_normal(d))
        pt = pt_rearrange(e)
        for k in range(m):
            for j in range(d):
                assert pt[k][j, j] == e[(2 * j - k) % m][j, j]

    def test_involution_bit_exact(self, rng):
        sf = to_standard_form(random_symmetric_fixture(rng, 5, 4))
        back = pt_rearrange(pt_rearrange(sf))
        assert np.array_equal(back, sf)

    def test_entry_multiset_preserved(self, rng):
        sf = to_standard_form(random_symmetric_fixture(rng, 4, 5))
        pt = pt_rearrange(sf)
        np.testing.assert_allclose(np.sort_complex(sf.ravel()),
                                   np.sort_complex(pt.ravel()), atol=1e-15)

    def test_trace_norm_identity(self, rng):
        tau = random_symmetric_fixture(rng, 3, 4)
        sf = to_standard_form(tau)
        pt = pt_rearrange(sf)
        lhs = sum(trace_norm(pt[k]) for k in range(3))
        rhs = brute_trace_norm_pt(tau.full_matrix(), 3, 4)
        assert abs(lhs - rhs) <= 1e-9


# A random phase-symmetric grid (a twirled random grid, PSD or only
# Hermitian) at M <= 4, D <= 5, drawn from a seed.
_PHASE_SYMMETRIC = st.builds(
    lambda m, d, psd, seed: random_symmetric_fixture(np.random.default_rng(seed), m, d, psd=psd),
    st.integers(1, 4), st.integers(1, 5), st.booleans(), st.integers(0, 2**32 - 1))


class TestStandardFormProperties:
    @settings(max_examples=100, deadline=None, database=None)
    @given(_PHASE_SYMMETRIC)
    def test_round_trip(self, tau):
        back = from_standard_form(to_standard_form(tau))
        scale = float(np.max(np.abs(tau.blocks)))
        assert np.max(np.abs(back.blocks - tau.blocks)) <= 1e-12 * scale
        assert symmetry_check(back) <= 1e-12 * scale

    @settings(max_examples=100, deadline=None, database=None)
    @given(_PHASE_SYMMETRIC)
    def test_blocks_sum_to_the_first_diagonal_block(self, tau):
        e = to_standard_form(tau)
        scale = float(np.max(np.abs(tau.blocks)))
        assert e.shape == (tau.m, tau.dim, tau.dim)
        assert np.max(np.abs(e.sum(axis=0) - tau.blocks[0, 0])) <= 1e-12 * scale

    @settings(max_examples=100, deadline=None, database=None)
    @given(_PHASE_SYMMETRIC)
    def test_rearranged_blocks_carry_the_partial_transpose_trace_norm(self, tau):
        """sum_k ||pt_rearrange(E)_k||_1 = ||tau^Gamma||_1, the latter from
        the dense partial transpose."""
        lhs = sum(trace_norm(block) for block in pt_rearrange(to_standard_form(tau)))
        rhs = brute_trace_norm_pt(tau.full_matrix(), tau.m, tau.dim)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)


class TestTraceWeights:
    def test_weights_give_the_block_traces(self, rng):
        """sum_{k,j} W[t, k, j] [E_k]_jj is Tr(block_{t,0}) = Z_{0,t} of the
        matrix with standard form {E_k}."""
        d = 5
        for m in range(1, 7):
            e = np.stack([random_density(rng, d) for _ in range(m)]) / m
            blocks = from_standard_form(e).blocks
            got = np.einsum("tkj,kjj->t", trace_weights(m, d), e)
            want = np.trace(blocks[:, 0], axis1=1, axis2=2)
            assert np.max(np.abs(got - want)) <= 1e-13


class TestBlockFunctional:
    def test_reads_the_trace_against_block_kl(self, rng):
        """Tr(C full) = Tr(op tau_kl) on grids that are not Hermitian, so
        that reading block (l, k) instead fails."""
        for m in range(1, 5):
            for d in range(1, 6):
                shape = (m, m, d, d)
                tau = BipartiteBlockMatrix(
                    rng.standard_normal(shape) + 1j * rng.standard_normal(shape), check=False)
                full = tau.full_matrix()
                for k in range(m):
                    for l in range(m):
                        op = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                        got = np.trace(block_functional(op, k, l, m) @ full)
                        assert abs(got - np.trace(op @ tau.blocks[k, l])) <= 1e-12


class TestNegativityStandardForm:
    def test_separable_symmetric_is_zero(self, rng):
        m, d = 4, 5
        rho_a = np.diag(rng.uniform(0.1, 1.0, m)).astype(complex)
        rho_a /= np.trace(rho_a).real
        rho_b = random_density(rng, d)
        tau = twirl(BipartiteBlockMatrix(m * np.einsum("kl,ij->klij", rho_a, rho_b)))
        assert abs(negativity_stform(to_standard_form(tau))) <= 1e-9

    def test_coherent_pair(self):
        amps = [_coherent_amplitudes(0.5, 16), _coherent_amplitudes(-0.5, 16)]
        tau = BipartiteBlockMatrix.from_pure_family(amps)
        oracle = brute_negativity(tau.full_matrix(), 2, 16)
        assert abs(negativity_stform(to_standard_form(tau)) - oracle) <= 1e-9

    def test_large_fixture_agrees_and_decomposes_small_blocks(self, rng, monkeypatch):
        m, d = 8, 16
        amps = [_coherent_amplitudes(0.6 * np.exp(-2j * np.pi * k / m), d) for k in range(m)]
        tau = twirl(BipartiteBlockMatrix.from_pure_family(amps))
        sf = to_standard_form(tau)

        sizes = []
        real_eigvalsh = np.linalg.eigvalsh

        def recording_eigvalsh(a, *args, **kwargs):
            sizes.append(np.shape(a)[-1])
            return real_eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        fast = negativity_stform(sf)
        fast_sizes = list(sizes)
        sizes.clear()
        direct = negativity(tau)
        assert abs(fast - direct) <= 1e-9
        # the standard form's advantage: M small D x D decompositions instead
        # of full M*D x M*D ones
        assert fast_sizes and max(fast_sizes) <= d
        assert max(sizes) == m * d

    def test_rejects_non_psd_blocks(self, rng):
        e = np.stack([np.diag([1.0, -0.5]).astype(complex), np.eye(2, dtype=complex)])
        with pytest.raises(ValueError, match="PSD"):
            negativity_stform(e)


class TestGramOf:
    def test_orthonormal_family(self):
        vecs = np.eye(3, 5)
        tau = BipartiteBlockMatrix.from_pure_family(vecs)
        np.testing.assert_allclose(gram_of(tau), np.eye(3), atol=1e-12)

    def test_coherent_pair_offdiagonal(self):
        amps = [_coherent_amplitudes(0.5, 30), _coherent_amplitudes(-0.5, 30)]
        tau = BipartiteBlockMatrix.from_pure_family(amps)
        z = gram_of(tau)
        assert abs(z[1, 0] - coherent_overlap(-0.5, 0.5)) <= 1e-8  # Z_10 = <psi_1|psi_0>

    def test_unit_trace(self, rng):
        tau = random_block_matrix(rng, 4, 3)
        # Tr Z = sum_k Tr tau_kk = M Tr(full matrix)
        assert abs(np.trace(gram_of(tau)) - tau.m) <= 1e-9


class TestBipartiteJson:
    def test_round_trip(self, rng):
        tau = random_symmetric_fixture(rng, 3, 4)
        again = BipartiteBlockMatrix.from_json_dict(tau.to_json_dict())
        np.testing.assert_allclose(again.blocks, tau.blocks, atol=1e-12)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            BipartiteBlockMatrix.from_json_dict(
                {"m": 2, "dim": 2, "re": [[0.0] * 3] * 3, "im": [[0.0] * 3] * 3})

    @pytest.mark.parametrize("field", ["m", "dim", "re", "im"])
    def test_rejects_missing_field(self, rng, field):
        payload = random_symmetric_fixture(rng, 2, 3).to_json_dict()
        del payload[field]
        with pytest.raises(ValueError, match=f"bipartite JSON has no field '{field}'"):
            BipartiteBlockMatrix.from_json_dict(payload)
