"""Tests for homodyne sampling and moment estimation."""

import math

import numpy as np
import pytest

from qdbench.fock import coherent_state, noisy_coherent
from qdbench.sampling import (BinnedMoments, bin_and_estimate, read_records_csv,
                              sample_homodyne, write_records_csv)

DIM = 30


class TestSampler:
    def test_vacuum_moments(self):
        vals = sample_homodyne(coherent_state(0.0, DIM), 0.0, 100_000, seed=42)
        se_mean = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean()) <= 3 * se_mean
        m2 = np.mean(vals**2)
        se_m2 = math.sqrt(max(np.mean(vals**4) - m2**2, 0.0) / vals.size)
        assert abs(m2 - 0.5) <= 3 * se_m2

    def test_coherent_mean(self):
        vals = sample_homodyne(coherent_state(0.5, DIM), 0.0, 100_000, seed=7)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - math.sqrt(2) * 0.5) <= 3 * se

    def test_phase_sweep_sinusoid(self):
        alpha = 0.5
        rho = coherent_state(alpha, DIM)
        phases = np.arange(0.0, 360.0, 15.0)
        means = []
        for i, ph in enumerate(phases):
            means.append(np.mean(sample_homodyne(rho, float(ph), 4000, seed=300 + i)))
        design = np.column_stack([np.cos(np.radians(phases)), np.sin(np.radians(phases))])
        coef, *_ = np.linalg.lstsq(design, np.array(means), rcond=None)
        amplitude = float(np.hypot(*coef))
        assert amplitude == pytest.approx(math.sqrt(2) * alpha, abs=0.02)

    def test_reproducible(self):
        a = sample_homodyne(coherent_state(0.3, DIM), 30.0, 500, seed=5)
        b = sample_homodyne(coherent_state(0.3, DIM), 30.0, 500, seed=5)
        assert a.dtype == np.float64 and a.shape == (500,)
        assert np.array_equal(a, b)

    def test_moment_convergence_rate(self):
        # binned moments converge at the sqrt(n) rate: error within 4 standard
        # errors in at least 95% of 100 seeded trials, at each sample size
        rho = noisy_coherent(0.3, 0.1, DIM, deficit_tol=1e-6)
        mom = rho.quadrature_moments()
        trials = 100
        for n in (1000, 10_000, 100_000):
            ok = 0
            for seed in range(trials):
                vals = sample_homodyne(rho, 0.0, n, seed=seed)
                se_mean = vals.std(ddof=1) / math.sqrt(n)
                m2 = float(np.mean(vals**2))
                se_m2 = math.sqrt(max(np.mean(vals**4) - m2**2, 0.0) / n)
                if abs(vals.mean() - mom["x"]) <= 4 * se_mean and abs(m2 - mom["xx"]) <= 4 * se_m2:
                    ok += 1
            assert ok >= 0.95 * trials, f"n={n}: {ok}/{trials}"


class TestRecords:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            bin_and_estimate([0.0, 0.0], [1.0, float("nan")], [0.0], bin_size=2)
        with pytest.raises(ValueError, match="finite"):
            bin_and_estimate([float("nan"), 0.0], [1.0, 2.0], [0.0], bin_size=2)

    def test_csv_round_trip(self, tmp_path):
        values = sample_homodyne(coherent_state(0.2, 10), 45.0, 50, seed=1)
        phases = np.full(values.size, 45.0)
        path = tmp_path / "recs.csv"
        write_records_csv(phases, values, path)
        again_phases, again_values = read_records_csv(path)
        assert np.array_equal(again_phases, phases)
        assert np.array_equal(again_values, values)
        raw = path.read_bytes()
        assert raw.startswith(b"phase_deg,value\n")
        assert b"\r" not in raw

    def test_csv_rejects_nan(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("phase_deg,value\n0.0,nan\n", encoding="utf-8")
        with pytest.raises(ValueError, match="non-finite"):
            read_records_csv(path)

    def test_csv_names_the_line_of_a_bad_field(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("phase_deg,value\n0.0,1.0\n0.0,abc\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 3: could not convert string to float: 'abc'"):
            read_records_csv(path)

    def test_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("phase,value\n0.0,1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            read_records_csv(path)


class TestBinning:
    def test_vacuum_bin_moments(self):
        vac = coherent_state(0.0, DIM)
        values = sample_homodyne(vac, 0.0, 600, seed=12)
        (b,) = bin_and_estimate(np.zeros(values.size), values, [0.0], bin_size=500,
                                angle_tolerance=1.8)
        assert abs(b.mean) <= 3 * b.se_mean
        assert abs(b.raw_second_moment - 0.5) <= 3 * b.se_second

    def test_constant_records(self):
        (b,) = bin_and_estimate(np.zeros(10), np.full(10, 2.0), [0.0], bin_size=10,
                                angle_tolerance=1.0)
        assert b.mean == pytest.approx(2.0)
        assert b.se_mean == pytest.approx(0.0, abs=1e-15)
        assert b.raw_second_moment == pytest.approx(4.0)

    def test_insufficient_records_names_shortfall(self):
        with pytest.raises(ValueError, match=r"angle 0.0.*short by 7"):
            bin_and_estimate(np.zeros(3), np.ones(3), [0.0], bin_size=10)

    def test_selection_prefers_closest_then_index(self):
        (b,) = bin_and_estimate([1.0, 0.1, 0.1, 359.95], [10.0, 1.0, 2.0, 3.0], [0.0],
                                bin_size=3, angle_tolerance=1.5)
        # closest is the wrapped 359.95, then the two 0.1-degree records in order
        assert b.mean == pytest.approx((3.0 + 1.0 + 2.0) / 3)

    def test_circular_distance_wraps(self):
        (b,) = bin_and_estimate(np.full(5, 359.0), np.ones(5), [0.0], bin_size=5,
                                angle_tolerance=1.5)
        assert b.n == 5

    def test_validation_of_bin(self):
        with pytest.raises(ValueError, match="at least 2"):
            BinnedMoments(angle_deg=0.0, n=1, mean=0.0, raw_second_moment=0.0,
                          se_mean=0.0, se_second=0.0)

    def test_second_moment_floor(self):
        with pytest.raises(ValueError, match="implausibly"):
            BinnedMoments(angle_deg=0.0, n=10, mean=2.0, raw_second_moment=0.1,
                          se_mean=0.01, se_second=0.01)
