"""Homodyne records: synthetic sampling, binning, and moment estimation.

Quadrature values are in the package's vacuum-variance-1/2 units.  The
synthetic sampler draws from the spectral measure of the rotated quadrature
x_phi = U_phi^dag x U_phi of a density matrix, smoothed with a kernel whose
width tracks the local eigenvalue spacing.  The smoothing is moment corrected
(a single global shrink about the mean) so that the sampled distribution's
first and raw second moments match the operator expectations exactly; the
statistical tests downstream then see pure Monte-Carlo noise, not kernel bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import DensityMatrix, quadratures, rotation

__all__ = [
    "BinnedMoments",
    "sample_homodyne",
    "bin_and_estimate",
    "write_records_csv",
    "read_records_csv",
]


@dataclass(frozen=True)
class BinnedMoments:
    angle_deg: float
    n: int
    mean: float
    raw_second_moment: float
    se_mean: float
    se_second: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("a moment bin needs at least 2 samples")
        floor = self.mean**2 - 3.0 * (self.se_second + 2.0 * abs(self.mean) * self.se_mean)
        if self.raw_second_moment < floor - 1e-12:
            raise ValueError(
                f"raw second moment {self.raw_second_moment} is implausibly below mean^2 "
                f"at angle {self.angle_deg}")


def rotated_quadrature(dim: int, phase_deg: float) -> np.ndarray:
    """x_phi = U_phi^dag x U_phi in the Fock basis."""
    x, _ = quadratures(dim)
    u = rotation(math.radians(phase_deg), dim)
    return u.conj().T @ x @ u


def sample_homodyne(rho: DensityMatrix, phase_deg: float, n: int, seed: int) -> np.ndarray:
    """n i.i.d. samples of the rotated quadrature of ``rho`` as a float64
    array; reproducible per seed.

    The discrete spectrum of the truncated quadrature is sampled with weights
    <v|rho|v>, then smoothed with a uniform kernel of width equal to the local
    eigenvalue spacing.  A global shrink about the mean removes the kernel's
    variance contribution, so sample mean and raw second moment are unbiased
    for Tr(rho x_phi) and Tr(rho x_phi^2).
    """
    if n < 1:
        raise ValueError("need n >= 1 samples")
    if not math.isfinite(phase_deg):
        raise ValueError(f"homodyne phase must be finite, got {phase_deg}")
    xq = rotated_quadrature(rho.dim, phase_deg)
    vals, vecs = np.linalg.eigh(xq)
    probs = np.real(np.einsum("ij,jk,ki->i", vecs.conj().T, rho.matrix, vecs))
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if total <= 0:
        raise ValueError("state has no weight on the quadrature spectrum")
    probs = probs / total

    # local spacing: one-sided at the edges
    spacing = np.empty_like(vals)
    spacing[1:-1] = (vals[2:] - vals[:-2]) / 2.0
    spacing[0] = vals[1] - vals[0]
    spacing[-1] = vals[-1] - vals[-2]

    mu = float(probs @ vals)
    var_nodes = float(probs @ (vals - mu) ** 2)
    var_kernel = float(probs @ (spacing**2 / 12.0))
    shrink = math.sqrt(var_nodes / (var_nodes + var_kernel)) if var_nodes > 0 else 0.0

    rng = np.random.default_rng(seed)
    idx = rng.choice(vals.size, size=n, p=probs)
    jitter = rng.uniform(-0.5, 0.5, size=n) * spacing[idx]
    return mu + shrink * (vals[idx] - mu + jitter)


def bin_and_estimate(phases_deg, values, angles_deg, bin_size: int = 500,
                     angle_tolerance: float = 1.8):
    """Per requested angle: mean, raw second moment, and their standard errors.

    Record i is the quadrature value ``values[i]`` measured at phase
    ``phases_deg[i]``.  Selection is deterministic: records within the
    tolerance window are sorted by (distance to the angle, original position)
    and the first ``bin_size`` are used.  Raises naming the angle and the
    shortfall when a window is too thin.
    """
    if bin_size < 2:
        raise ValueError("bin_size must be at least 2")
    phases, values = np.asarray(phases_deg, dtype=float), np.asarray(values, dtype=float)
    if phases.shape != values.shape or not np.isfinite([phases, values]).all():
        raise ValueError("quadrature records need finite phases and values of one length")
    results = []
    for angle in angles_deg:
        dist = np.abs(phases - angle) % 360.0
        dist = np.minimum(dist, 360.0 - dist)
        window = np.flatnonzero(dist <= angle_tolerance)
        if window.size < bin_size:
            raise ValueError(
                f"angle {angle} deg: only {window.size} records within "
                f"{angle_tolerance} deg, need {bin_size} (short by {bin_size - window.size})")
        chosen = values[window[np.argsort(dist[window], kind="stable")[:bin_size]]]
        n = bin_size
        mean = float(np.mean(chosen))
        m2 = float(np.mean(chosen**2))
        m4 = float(np.mean(chosen**4))
        se_mean = float(np.std(chosen, ddof=1)) / math.sqrt(n)
        se_second = math.sqrt(max(m4 - m2**2, 0.0) / n)
        results.append(BinnedMoments(angle_deg=float(angle), n=n, mean=mean,
                                     raw_second_moment=m2, se_mean=se_mean,
                                     se_second=se_second))
    return results


def write_records_csv(phases_deg, values, path) -> None:
    """CSV wire format: header ``phase_deg,value``, UTF-8, LF line endings,
    one record per line with each float written as its shortest repr."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("phase_deg,value\n")
        for phase, value in np.array([phases_deg, values], dtype=float).T.tolist():
            fh.write(f"{phase!r},{value!r}\n")


def read_records_csv(path):
    """Records of a CSV written by :func:`write_records_csv`, as the float64
    arrays (phases_deg, values)."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "phase_deg,value":
            raise ValueError(f"bad records CSV header: {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 2 fields, got {len(parts)}")
            try:
                phase, value = float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            if not (math.isfinite(phase) and math.isfinite(value)):
                raise ValueError(f"line {lineno}: non-finite value rejected")
            rows.append((phase, value))
    return tuple(np.array(rows, dtype=float).reshape(-1, 2).T.copy())
