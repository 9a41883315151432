"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own code paths: the partial
transpose is done by axis gymnastics on the dense matrix, negativity by a
plain eigendecomposition, and singular values by a one-sided Jacobi sweep.

The ``ci`` hypothesis profile (``pytest --hypothesis-profile=ci``) derives
every example from the test itself and prints the blob that replays a failure,
so a failure in CI reproduces locally; without it, runs explore at random.
"""

import math

import numpy as np
import pytest
from hypothesis import settings

from qdbench.blocksym import BipartiteBlockMatrix, twirl

settings.register_profile("ci", derandomize=True, print_blob=True)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def dense_partial_transpose(full, m, d):
    """Partial transpose on the register factor, straight on the dense matrix."""
    return full.reshape(m, d, m, d).transpose(2, 1, 0, 3).reshape(m * d, m * d)


def brute_negativity(full, m, d):
    """(||tau^{T_A}||_1 - Tr tau)/2 by eigendecomposition of the dense PT."""
    pt = dense_partial_transpose(full, m, d)
    eigs = np.linalg.eigvalsh(pt)
    return float((np.sum(np.abs(eigs)) - np.sum(eigs)) / 2.0)


def brute_trace_norm_pt(full, m, d):
    pt = dense_partial_transpose(full, m, d)
    return float(np.sum(np.abs(np.linalg.eigvalsh(pt))))


def jacobi_singular_values(a, sweeps=60, tol=1e-15):
    """One-sided Jacobi SVD: rotate column pairs with exact 2x2 Gram eigensolves."""
    a = np.array(a, dtype=complex)
    n = a.shape[1]
    for _ in range(sweeps):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                app = float(np.vdot(a[:, p], a[:, p]).real)
                aqq = float(np.vdot(a[:, q], a[:, q]).real)
                apq = complex(np.vdot(a[:, p], a[:, q]))
                if abs(apq) <= tol * math.sqrt(app * aqq + 1e-300):
                    continue
                g2 = np.array([[app, apq], [np.conj(apq), aqq]])
                _, v2 = np.linalg.eigh(g2)
                a[:, [p, q]] = a[:, [p, q]] @ v2
                rotated = True
        if not rotated:
            break
    return np.sort(np.linalg.norm(a, axis=0))[::-1]


def coherent_overlap(alpha, beta):
    """<alpha|beta> for coherent states (analytic)."""
    return np.exp(-abs(alpha) ** 2 / 2 - abs(beta) ** 2 / 2 + np.conj(alpha) * beta)


# ---------------------------------------------------------------------------
# fixture builders
# ---------------------------------------------------------------------------

def random_density(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.real(np.trace(rho))


def random_block_matrix(rng, m, d, psd=True):
    n = m * d
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    full = a @ a.conj().T if psd else (a + a.conj().T)
    full = full / np.real(np.trace(full)) if psd else full
    return BipartiteBlockMatrix.from_full(full, m)


def random_symmetric_fixture(rng, m, d, psd=True):
    """Twirling a random PSD grid guarantees a symmetric, physical fixture."""
    return twirl(random_block_matrix(rng, m, d, psd=psd))


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
