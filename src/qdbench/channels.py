"""Channel simulators for benchmark fixtures, as Kraus maps at a fixed cutoff.

Every channel ``build_channel`` makes is exactly phase covariant (it commutes
with Fock-space rotations, and ``KrausChannel.covariance_defect`` is 0.0), so
rotation-generated ensembles stay rotation-generated after the channel acts.
Truncation can leave a completely positive map slightly trace-deficient near
the top Fock levels; ``ensure_trace_preserving`` patches this by routing the
lost weight into the vacuum (a measure-and-prepare operation, so it never
creates entanglement and keeps the classical fixtures honestly classical).

Composed channels multiply superoperators (``compose_kraus``), and the
heterodyne map writes its Choi matrix in closed form; both factor it through
``_kraus_from_choi``, so every such channel is a minimal Kraus set.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import DensityMatrix

__all__ = [
    "KrausChannel",
    "identity_channel",
    "loss_channel",
    "amplifier_channel",
    "additive_noise_channel",
    "heterodyne_mp_channel",
    "dephasing_channel",
    "replace_channel",
]


class KrausChannel:
    """Completely positive map rho -> sum_k K_k rho K_k^dag."""

    def __init__(self, kraus):
        kraus = [np.asarray(k, dtype=complex) for k in kraus]
        if not kraus:
            raise ValueError("need at least one Kraus operator")
        dim = kraus[0].shape[0]
        for k in kraus:
            if k.shape != (dim, dim):
                raise ValueError("all Kraus operators must be square with equal dimension")
        self.kraus = kraus
        self.dim = dim

    def apply_matrix(self, rho: np.ndarray) -> np.ndarray:
        """sum_k K_k rho K_k^dag, Hermitized: for Hermitian ``rho`` only.  An
        off-diagonal block of a joint state is not Hermitian; apply the Kraus
        sum to it directly."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for k in self.kraus:
            out += k @ rho @ k.conj().T
        return (out + out.conj().T) / 2.0

    def __call__(self, rho: DensityMatrix) -> DensityMatrix:
        if rho.dim != self.dim:
            raise ValueError(f"channel dimension {self.dim} != state dimension {rho.dim}")
        return DensityMatrix(self.apply_matrix(rho.matrix), allow_sub_normalized=True)

    def completeness_defect(self) -> np.ndarray:
        """I - sum_k K_k^dag K_k (zero for an exactly trace-preserving map)."""
        acc = np.zeros((self.dim, self.dim), dtype=complex)
        for k in self.kraus:
            acc += k.conj().T @ k
        return np.eye(self.dim) - acc

    def covariance_defect(self) -> float:
        """Largest |entry| of the Choi matrix between rows of different
        photon-number shift: exactly 0.0 for a phase-covariant map (one that
        commutes with every Fock-space rotation)."""
        _, cross = _shifts(self.dim)
        return float(np.max(np.abs(_choi(self.kraus)[cross]), initial=0.0))


def ensure_trace_preserving(kraus, dim: int):
    """Append refill operators routing any completeness defect into |0><0|."""
    defect = KrausChannel(kraus).completeness_defect()
    defect = (defect + defect.conj().T) / 2.0
    w, v = np.linalg.eigh(defect)
    extra = []
    for lam, vec in zip(w, v.T):
        if lam > 1e-12:
            op = np.zeros((dim, dim), dtype=complex)
            op[0, :] = math.sqrt(lam) * vec.conj()
            extra.append(op)
    return list(kraus) + extra


def _reshuffle(mat: np.ndarray, dim: int) -> np.ndarray:
    """Swap between a map's superoperator and its Choi matrix (an involution):
    both hold sum_k K_k[i, k] conj(K_k[j, l]), the superoperator (row-major
    vec) at row (i, j), column (k, l), the Choi matrix at (i, k), (j, l)."""
    return mat.reshape(dim, dim, dim, dim).transpose(0, 2, 1, 3).reshape(dim * dim, dim * dim)


def _choi(kraus) -> np.ndarray:
    """The (d^2, d^2) Choi matrix of a Kraus set, sum_K K[i, k] conj(K[j, l])
    at row (i, k), column (j, l)."""
    vecs = np.stack(kraus).reshape(len(kraus), -1)
    return vecs.T @ vecs.conj()


def _superoperator(kraus) -> np.ndarray:
    """The (d^2, d^2) superoperator sum_k K_k (x) conj(K_k) of a Kraus set."""
    return _reshuffle(_choi(kraus), kraus[0].shape[0])


def _shifts(dim: int):
    """The photon-number shift i - k of each Choi row (i, k), and the mask of
    the Choi entries between rows of different shift."""
    shift = np.subtract.outer(np.arange(dim), np.arange(dim)).ravel()
    return shift, shift[:, None] != shift[None, :]


def _kraus_from_choi(choi: np.ndarray, dim: int) -> list:
    """Minimal Kraus set of the map with the given Choi matrix (see ``_choi``):
    at most d^2 operators sqrt(lambda) vec^-1(v), one per eigenvalue
    lambda > 0 (the others are roundoff), plus the refills of
    ``ensure_trace_preserving``.  A phase-covariant map's Choi matrix couples
    row (i, k) only to rows of the same photon-number shift i - k, so it is
    decomposed one shift at a time; any other map whole.
    """
    choi = (choi + choi.conj().T) / 2.0
    shift, cross = _shifts(dim)
    if np.any(choi[cross]):
        shift = np.zeros_like(shift)
    kraus = []
    for s in np.unique(shift):
        idx = np.flatnonzero(shift == s)
        w, v = np.linalg.eigh(choi[np.ix_(idx, idx)])
        keep = w > 0
        vecs = np.zeros((int(keep.sum()), dim * dim), dtype=complex)
        vecs[:, idx] = (v[:, keep] * np.sqrt(w[keep])).T
        kraus.extend(vecs.reshape(-1, dim, dim))
    return ensure_trace_preserving(kraus, dim)


def compose_kraus(first, then) -> list:
    """Minimal Kraus set of the map ``then`` after ``first``, factored from the
    Choi matrix of the product superoperator."""
    dim = first[0].shape[0]
    return _kraus_from_choi(_reshuffle(_superoperator(then) @ _superoperator(first), dim), dim)


def identity_channel(dim: int) -> KrausChannel:
    return KrausChannel([np.eye(dim, dtype=complex)])


def loss_channel(transmissivity: float, dim: int) -> KrausChannel:
    """Beam splitter with vacuum: photons survive with probability ``transmissivity``.

    Exactly trace preserving at any cutoff.
    """
    eta = float(transmissivity)
    if not 0.0 <= eta <= 1.0:
        raise ValueError("transmissivity must lie in [0, 1]")
    kraus = []
    for k in range(dim):
        mat = np.zeros((dim, dim), dtype=complex)
        for n in range(k, dim):
            mat[n - k, n] = math.sqrt(math.comb(n, k) * (1.0 - eta) ** k * eta ** (n - k))
        if np.any(mat):
            kraus.append(mat)
    return KrausChannel(kraus)


def amplifier_channel(gain: float, dim: int) -> KrausChannel:
    """Phase-insensitive amplifier with the given gain G >= 1."""
    g = float(gain)
    if not 1.0 <= g < math.inf:
        raise ValueError(f"gain must be a finite number >= 1, got {g}")
    if g == 1.0:
        return identity_channel(dim)
    t = math.sqrt(1.0 - 1.0 / g)  # tanh r with cosh^2 r = G
    kraus = []
    for k in range(dim):
        mat = np.zeros((dim, dim), dtype=complex)
        for n in range(0, dim - k):
            mat[n + k, n] = math.sqrt(math.comb(n + k, k)) * t**k * g ** (-(n + 1) / 2.0)
        if np.any(mat):
            kraus.append(mat)
    return KrausChannel(ensure_trace_preserving(kraus, dim))


def additive_noise_channel(excess: float, dim: int) -> KrausChannel:
    """Classical Gaussian noise: quadrature variances grow by ``excess`` each,
    first moments unchanged.  Realized as amplification followed by loss."""
    eps = float(excess)
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"excess must lie in [0, 1) (the amplifier-loss composition's "
                         f"range), got {eps}")
    if eps == 0:
        return identity_channel(dim)
    g = 1.0 / (1.0 - eps)
    kraus = compose_kraus(amplifier_channel(g, dim).kraus, loss_channel(1.0 / g, dim).kraus)
    return KrausChannel(kraus)


def heterodyne_mp_channel(dim: int) -> KrausChannel:
    """Heterodyne measurement followed by coherent-state re-preparation,

        rho -> (1/pi) integral <beta|rho|beta> |beta><beta| d^2 beta .

    Entanglement breaking; on a coherent state it returns a displaced thermal
    state with one added thermal photon.  Built from the exact Fock-basis
    matrix elements (no phase-space grid)

        [out]_{mn} = sum_{j-k = m-n} rho_{jk} (m+k)! / (2^{m+k+1} sqrt(j! k! m! n!)) ,

    which couple only equal index differences (exactly phase covariant), as
    the Choi matrix at row (m, j), column (n, k); truncation loss is refilled
    into the vacuum.
    """
    logfact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, 2 * dim)))))
    m, j, n, k = np.ogrid[:dim, :dim, :dim, :dim]
    log_coef = (logfact[m + k] - (m + k + 1) * math.log(2.0)
                - 0.5 * (logfact[j] + logfact[k] + logfact[m] + logfact[n]))
    choi = np.where(j - k == m - n, np.exp(log_coef), 0.0).reshape(dim * dim, dim * dim)
    return KrausChannel(_kraus_from_choi(choi.astype(complex), dim))


def dephasing_channel(dim: int) -> KrausChannel:
    """Full dephasing in the Fock basis (kills every off-diagonal element)."""
    kraus = [np.zeros((dim, dim), dtype=complex) for _ in range(dim)]
    for n in range(dim):
        kraus[n][n, n] = 1.0
    return KrausChannel(kraus)


def replace_channel(sigma: DensityMatrix) -> KrausChannel:
    """Trace-and-replace with the fixed state sigma (diagonal sigma stays covariant)."""
    dim = sigma.dim
    w, v = np.linalg.eigh(sigma.matrix)
    kraus = []
    for lam, vec in zip(w, v.T):
        if lam <= 1e-14:
            continue
        for j in range(dim):
            op = math.sqrt(lam) * np.outer(vec, np.eye(dim)[j])
            kraus.append(op)
    return KrausChannel(kraus)


def build_channel(spec: dict, dim: int) -> KrausChannel:
    """Construct a channel from a config section {kind, ...}."""
    kind = spec.get("kind", "identity")
    if kind == "identity":
        return identity_channel(dim)
    if kind in ("loss", "loss_excess"):
        loss = float(spec.get("loss", 0.0))
        if not 0.0 <= loss <= 1.0:
            raise ValueError(f"loss must lie in [0, 1], got {loss}")
        att = loss_channel(1.0 - loss, dim)
        if kind == "loss":
            return att
        noise = additive_noise_channel(float(spec.get("excess", 0.0)), dim)
        return KrausChannel(compose_kraus(att.kraus, noise.kraus))
    if kind == "heterodyne_mp":
        return heterodyne_mp_channel(dim)
    if kind == "dephasing":
        return dephasing_channel(dim)
    if kind == "replace":
        n_mean = float(spec.get("thermal_mean", 0.0))
        if not 0.0 <= n_mean < math.inf:
            raise ValueError(f"thermal_mean must be a finite number >= 0, got {n_mean}")
        diag = np.exp(np.arange(dim) * math.log(n_mean / (1 + n_mean))) / (1 + n_mean) \
            if n_mean > 0 else np.concatenate(([1.0], np.zeros(dim - 1)))
        diag = diag / diag.sum()
        return replace_channel(DensityMatrix(np.diag(diag).astype(complex)))
    raise ValueError(f"unknown channel kind '{kind}'")
