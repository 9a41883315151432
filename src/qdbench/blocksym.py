"""Bipartite block matrices with discrete phase symmetry.

A ``BipartiteBlockMatrix`` holds an M x M grid of D x D blocks tau_kl for a
joint system (A tensor B), with A an M-level register and B a truncated Fock
space.  The stored blocks carry the convention

    full matrix = (1/M) * sum_{k,l} |k><l| (x) tau_kl ,

so the total trace is (1/M) sum_k Tr(tau_kk) and the element-wise formulas of
the block-circulant standard form apply verbatim.

The M-fold phase symmetry is U tau_kl U^dag = tau_{k+1,l+1 (mod M)} with
U = rotation(2 pi / M).  Matrices with this symmetry are unitarily equivalent
to a direct sum of M blocks E_k (the "standard form"); the partial transpose
on A stays in the symmetric sector and its standard-form blocks arise from a
pure entry rearrangement of the E_k, which turns the trace norm of the partial
transpose into a sum of M small trace norms.
"""

from __future__ import annotations

import numpy as np

from .fock import matrix_from_json, matrix_to_json, rotation, trace_norm

__all__ = [
    "BipartiteBlockMatrix",
    "partial_transpose",
    "negativity",
    "twirl",
    "symmetry_check",
    "to_standard_form",
    "from_standard_form",
    "pt_sources",
    "pt_rearrange",
    "trace_weights",
    "block_functional",
    "negativity_stform",
    "gram_of",
]

SYMMETRY_TOL = 1e-8
BLOCK_HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-9


class BipartiteBlockMatrix:
    """M x M grid of D x D complex blocks, Hermitian as a whole."""

    __slots__ = ("m", "dim", "blocks")

    def __init__(self, blocks: np.ndarray, check: bool = True):
        blocks = np.asarray(blocks, dtype=complex)
        if blocks.ndim != 4 or blocks.shape[0] != blocks.shape[1] or blocks.shape[2] != blocks.shape[3]:
            raise ValueError(f"blocks must have shape (M, M, D, D), got {blocks.shape}")
        self.m = blocks.shape[0]
        self.dim = blocks.shape[2]
        self.blocks = blocks
        if check:
            err = self.hermiticity_error()
            if err > BLOCK_HERMITICITY_TOL:
                raise ValueError(f"bipartite matrix is not Hermitian (deviation {err:.3e})")

    def hermiticity_error(self) -> float:
        flipped = np.conj(np.transpose(self.blocks, (1, 0, 3, 2)))
        return float(np.max(np.abs(self.blocks - flipped)))

    def full_matrix(self) -> np.ndarray:
        """Dense (M*D) x (M*D) matrix including the 1/M prefactor."""
        m, d = self.m, self.dim
        out = np.transpose(self.blocks, (0, 2, 1, 3)).reshape(m * d, m * d)
        return out / m

    @classmethod
    def from_full(cls, full: np.ndarray, m: int, check: bool = True) -> "BipartiteBlockMatrix":
        full = np.asarray(full, dtype=complex)
        n = full.shape[0]
        if full.ndim != 2 or full.shape[1] != n or n % m != 0:
            raise ValueError(f"full matrix of shape {full.shape} does not split into {m} blocks")
        d = n // m
        blocks = m * np.transpose(full.reshape(m, d, m, d), (0, 2, 1, 3))
        return cls(blocks, check=check)

    @classmethod
    def from_pure_family(cls, vectors) -> "BipartiteBlockMatrix":
        """Entangled-state construction: block (k,l) = |psi_k><psi_l|.

        ``vectors`` are the (possibly unnormalized) state vectors; the result
        represents the projector onto (1/sqrt(M)) sum_k |k>|psi_k>.
        """
        vecs = np.asarray(vectors, dtype=complex)
        blocks = np.einsum("ki,lj->klij", vecs, vecs.conj())
        return cls(blocks)

    def trace(self) -> float:
        return float(np.real(np.einsum("kkii->", self.blocks) / self.m))

    def block_traces(self) -> np.ndarray:
        """M x M matrix of block traces Tr(tau_kl)."""
        return np.einsum("klii->kl", self.blocks)

    def to_json_dict(self) -> dict:
        return matrix_to_json(self.full_matrix(), m=self.m, dim=self.dim)

    @classmethod
    def from_json_dict(cls, payload: dict) -> "BipartiteBlockMatrix":
        full = matrix_from_json(payload, "bipartite", "m", "dim")
        return cls.from_full(full, int(payload["m"]))

    def __repr__(self):
        return f"BipartiteBlockMatrix(m={self.m}, dim={self.dim})"


def partial_transpose(tau: BipartiteBlockMatrix) -> BipartiteBlockMatrix:
    """Transpose on subsystem A: block (k,l) of the output is block (l,k) of the input."""
    return BipartiteBlockMatrix(np.transpose(tau.blocks, (1, 0, 2, 3)).copy(), check=False)


def negativity(tau: BipartiteBlockMatrix, psd_tol: float = PSD_TOL) -> float:
    """N = (||tau^{T_A}||_1 - Tr tau)/2 by direct eigendecomposition.

    Equals the sum of |negative eigenvalues| of the partial transpose for a
    trace-normalized PSD input, which is validated here.
    """
    full = tau.full_matrix()
    min_eig = float(np.linalg.eigvalsh(full)[0])
    if min_eig < -psd_tol:
        raise ValueError(f"negativity requires a PSD input (min eigenvalue {min_eig:.3e})")
    pt = partial_transpose(tau).full_matrix()
    eigs = np.linalg.eigvalsh(pt)
    return float((np.sum(np.abs(eigs)) - np.sum(eigs)) / 2.0)


def twirl(tau: BipartiteBlockMatrix) -> BipartiteBlockMatrix:
    """Project onto the M-fold phase-symmetric sector.

    The average of the M transforms (shift both block labels by t, conjugate
    the blocks by U^t), computed as the round trip through the standard form;
    linear, trace preserving, idempotent, and the identity on
    already-symmetric input.
    """
    return from_standard_form(_standard_blocks(tau.blocks))


def symmetry_check(tau: BipartiteBlockMatrix) -> float:
    """Max over (k,l) of || U tau_kl U^dag - tau_{k+1,l+1 mod M} ||_max."""
    m, d = tau.m, tau.dim
    if m == 1:
        return 0.0
    u_diag = np.diag(rotation(2.0 * np.pi / m, d))
    rotated = tau.blocks * np.outer(u_diag, u_diag.conj())[None, None, :, :]
    idx = np.mod(np.arange(m) + 1, m)
    shifted = tau.blocks[np.ix_(idx, idx)]
    return float(np.max(np.abs(rotated - shifted)))


def _standard_blocks(blocks: np.ndarray) -> np.ndarray:
    """The element-wise sum of :func:`to_standard_form` for any (M, M, D, D)
    grid: a 2-D inverse FFT over the register indices, read at
    ((j - k) mod M, (k - l) mod M, j, l)."""
    m, d = blocks.shape[0], blocks.shape[2]
    k, j, l = np.ogrid[:m, :d, :d]
    return np.fft.ifft2(blocks, axes=(0, 1))[np.mod(j - k, m), np.mod(k - l, m), j, l]


def to_standard_form(tau: BipartiteBlockMatrix, tol: float = SYMMETRY_TOL) -> np.ndarray:
    """Standard form of a phase-symmetric matrix: the (M, D, D) complex stack
    of the blocks E_k.

    Element-wise, with omega = exp(2 pi i / M) and [tau]_{mj,nl} the full
    matrix elements (A index first):

        [E_k]_{jl} = (1/M) sum_{m,n} omega^{m(j-k) + n(k-l)} [tau]_{mj,nl} .

    The E_k inherit PSDness from tau and satisfy sum_k E_k = tau_00.
    """
    dev = symmetry_check(tau)
    if dev > tol:
        raise ValueError(f"matrix violates the phase symmetry (deviation {dev:.3e} > {tol:.1e})")
    return _standard_blocks(tau.blocks)


def from_standard_form(e: np.ndarray) -> BipartiteBlockMatrix:
    """Inverse of :func:`to_standard_form` on an (M, D, D) stack:

        [tau]_{ij,kl} = (1/M) sum_m omega^{m(i-k) + k*l - i*j} [E_m]_{jl} ,

    a 1-D FFT over the block label read at (i - k) mod M.  The output always
    satisfies the phase symmetry.
    """
    e = np.asarray(e, dtype=complex)
    if e.ndim != 3 or e.shape[1] != e.shape[2]:
        raise ValueError(f"standard form must have shape (M, D, D), got {e.shape}")
    m, d = e.shape[0], e.shape[1]
    i, k, j, l = np.ogrid[:m, :m, :d, :d]
    blocks = m * np.fft.ifft(e, axis=0)[np.mod(i - k, m), j, l]
    return BipartiteBlockMatrix(np.exp(2j * np.pi / m * (k * l - i * j)) * blocks, check=False)


def pt_sources(m: int, d: int) -> np.ndarray:
    """(M, D, D) integer array src[k, j, l] = j + l - k mod M: entry (j, l) of
    the k-th standard-form block of the partial transpose is entry (j, l) of
    E_src."""
    k, j, l = np.ogrid[:m, :d, :d]
    return np.mod(j + l - k, m)


def pt_rearrange(e: np.ndarray) -> np.ndarray:
    """Entry rearrangement [Etilde_k]_{jl} = [E_{j+l-k mod M}]_{jl}.

    These are the standard-form blocks of the partial transpose.  The map is
    an involution: applying it twice returns the input bit-exactly.
    """
    m, d = e.shape[0], e.shape[1]
    j, l = np.ogrid[:d, :d]
    return e[pt_sources(m, d), j, l]


def trace_weights(m: int, d: int) -> np.ndarray:
    """(M, M, D) array W[t, k, j] = omega^{t (k - j)}, omega = exp(2 pi i / M).

    sum_{k,j} W[t, k, j] [E_k]_{jj} is the block trace Z_{0,t}, the Gram
    entry at circulant distance t, of the matrix with standard form {E_k}.
    """
    t, k, j = np.ogrid[:m, :m, :d]
    return np.exp(2j * np.pi / m) ** (t * (k - j))


def block_functional(op: np.ndarray, k: int, l: int, m: int) -> np.ndarray:
    """M op in sub-block (l, k) of an (M D, M D) matrix C: Tr(C full) = Tr(op tau_kl)."""
    unit = np.zeros((m, m))
    unit[l, k] = 1.0
    return np.kron(unit, m * op)


def negativity_stform(e: np.ndarray) -> float:
    """Negativity computed entirely in the standard form {E_k}:

        N = ( sum_k ||Etilde_k||_1 - sum_k Tr(E_k) ) / 2 .
    """
    for k, block in enumerate(e):
        min_eig = float(np.linalg.eigvalsh((block + block.conj().T) / 2.0)[0])
        if min_eig < -PSD_TOL:
            raise ValueError(f"standard-form block {k} is not PSD (min eigenvalue {min_eig:.3e})")
    tnorm = sum(trace_norm(block) for block in pt_rearrange(e))
    total_trace = float(np.real(np.einsum("kii->", e)))
    return float((tnorm - total_trace) / 2.0)


def gram_of(tau: BipartiteBlockMatrix):
    """Reduced matrix on A: entries (1/M) Tr(tau_kl), returned as a Gram object.

    For a grid built from pure vectors via :meth:`from_pure_family`, entry
    (k, l) is <psi_l|psi_k>/M.
    """
    from .gramopt import GramMatrix

    rho_a = tau.block_traces() / tau.m
    return GramMatrix.from_rho_a(rho_a, require_unit_diagonal=False)
