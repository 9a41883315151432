"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
PASS report per criterion.  The suite is self-contained: expected values come
from independent oracles (dense partial transpose + eigendecompositions,
analytic coherent-state formulas) computed here, never from the code paths
under test.
"""

import math
import time

import numpy as np
import pytest
import scipy.sparse as sp

from qdbench.bench import (Quadratures, QuadraturesWithErrors, Tomography,
                           benchmark_symmetric)
from qdbench.blocksym import (BipartiteBlockMatrix, from_standard_form, gram_of,
                              pt_rearrange, to_standard_form, twirl)
from qdbench.channels import dephasing_channel, heterodyne_mp_channel, replace_channel
from qdbench.fock import (_coherent_amplitudes, coherent_state, fidelity, noisy_coherent,
                          trace_norm)
from qdbench.gramopt import (GramMatrix, cptp_reachable, gram_purity, optimize_gram,
                             purity_upper_bound, rotation_ensemble)
from qdbench.pipeline import bundled_config_path, load_config, run_pipeline
from qdbench.sampling import sample_homodyne
from qdbench.sdp import SDPProblem, SDPStatus

from conftest import (brute_negativity, brute_trace_norm_pt, coherent_overlap,
                      dense_partial_transpose, random_block_matrix)

TABLE_ERRORS = {"x": 0.03, "p": 0.03, "xx": 0.04, "pp": 0.09}
MEMORY_ALPHA = complex(0.00707, -0.67175)
MEMORY_EXCESS = 0.219


def report(line):
    print(f"\n{line}")


@pytest.fixture(scope="module")
def symmetric_fixtures():
    """200 random twirl-symmetric PSD fixtures spanning M in 1..8, D in 2..16."""
    rng = np.random.default_rng(314159)
    fixtures = []
    for i in range(200):
        m = 1 + (i % 8)
        d = int(rng.integers(2, 17))
        fixtures.append(twirl(random_block_matrix(rng, m, d)))
    return fixtures


def test_criterion_1_standard_form_algebra(symmetric_fixtures):
    t0 = time.time()
    worst_rt = worst_sum = worst_eig = 0.0
    for tau in symmetric_fixtures:
        sf = to_standard_form(tau)
        worst_sum = max(worst_sum, float(np.max(np.abs(sf.sum(axis=0) - tau.blocks[0, 0]))))
        back = from_standard_form(sf)
        worst_rt = max(worst_rt, float(np.max(np.abs(back.blocks - tau.blocks))))
        ev_full = np.sort(np.linalg.eigvalsh(tau.full_matrix()))
        ev_blocks = np.sort(np.concatenate(
            [np.linalg.eigvalsh((sf[k] + sf[k].conj().T) / 2) for k in range(len(sf))]))
        worst_eig = max(worst_eig, float(np.max(np.abs(ev_full - ev_blocks))))
    elapsed = time.time() - t0
    assert worst_rt <= 1e-10
    assert worst_sum <= 1e-10
    assert worst_eig <= 1e-9
    assert elapsed <= 30.0
    report(f"ACCEPTANCE 1 standard-form algebra: PASS "
           f"(round-trip {worst_rt:.2e}, block-sum {worst_sum:.2e}, "
           f"eigenvalues {worst_eig:.2e}, {elapsed:.1f}s for 200 fixtures)")


def test_criterion_2_trace_norm_identity(symmetric_fixtures):
    worst = 0.0
    for tau in symmetric_fixtures:
        sf = to_standard_form(tau)
        pt = pt_rearrange(sf)
        lhs = float(sum(trace_norm(pt[k]) for k in range(len(sf))))
        rhs = brute_trace_norm_pt(tau.full_matrix(), tau.m, tau.dim)
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-9
    report(f"ACCEPTANCE 2 trace-norm identity: PASS (worst deviation {worst:.2e})")


def test_criterion_3_negativity_sdp_correctness():
    rng = np.random.default_rng(2718)
    worst = 0.0
    solved = 0

    def check(full, m, d):
        nonlocal worst, solved
        pt = dense_partial_transpose(full, m, d)
        oracle = brute_negativity(full, m, d)
        prob = SDPProblem()
        n = m * d
        prob.add_variable("tau_minus", n)
        prob.set_objective({"tau_minus": np.eye(n)})
        prob.add_psd_constraint([("tau_minus", sp.identity(n * n))], constant=pt)
        sol = prob.solve()
        assert sol.status is SDPStatus.OPTIMAL
        worst = max(worst, abs(sol.objective - oracle))
        solved += 1

    # 30 random entangled two-qubit states
    count = 0
    while count < 30:
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        full = 0.7 * np.outer(psi, psi.conj()) + 0.3 * (a @ a.conj().T) / np.real(
            np.trace(a @ a.conj().T))
        full = (full + full.conj().T) / 2
        if brute_negativity(full, 2, 2) < 1e-3:
            continue
        check(full, 2, 2)
        count += 1

    # 10 random M=2, D=6 states (mixed entangled grids)
    count = 0
    while count < 10:
        tau = random_block_matrix(rng, 2, 6)
        if brute_negativity(tau.full_matrix(), 2, 6) < 1e-3:
            continue
        check(tau.full_matrix(), 2, 6)
        count += 1

    # 10 entangled coherent-pair states
    for i in range(10):
        alpha = 0.3 + 0.05 * i
        amps = [_coherent_amplitudes(alpha, 8), _coherent_amplitudes(-alpha, 8)]
        tau = BipartiteBlockMatrix.from_pure_family(amps)
        check(tau.full_matrix(), 2, 8)

    assert solved == 50
    assert worst <= 1e-6
    report(f"ACCEPTANCE 3 negativity SDP correctness: PASS "
           f"(50 fixtures, worst gap {worst:.2e})")


def test_criterion_4_gram_optimization_exactness():
    dim = 16
    purity_vs_bound_ok = True

    # pure-state ensembles recover the overlap moduli
    worst_overlap = 0.0
    for m in (2, 3, 4):
        states = rotation_ensemble(coherent_state(0.5, dim), m)
        res = optimize_gram(states)
        alphas = [0.5 * np.exp(-2j * np.pi * k / m) for k in range(m)]
        expected = np.abs([[coherent_overlap(a, b) for b in alphas] for a in alphas])
        worst_overlap = max(worst_overlap, float(np.max(np.abs(np.abs(res.gram.z) - expected))))
        purity_vs_bound_ok &= res.purity <= res.purity_upper_bound + 1e-6
    assert worst_overlap <= 1e-5

    # two mixed states achieve purity (1 + F)/2
    a, b = noisy_coherent(0.4, 0.15, dim), noisy_coherent(-0.4, 0.15, dim)
    res2 = optimize_gram([a, b])
    target = (1 + fidelity(a, b)) / 2
    assert abs(res2.purity - target) <= 1e-5
    purity_vs_bound_ok &= res2.purity <= res2.purity_upper_bound + 1e-6

    # rotation-generated noisy-coherent ensembles: bound gap <= 1e-2
    seed = noisy_coherent(MEMORY_ALPHA, MEMORY_EXCESS, dim, deficit_tol=1e-6)
    worst_gap = 0.0
    for m in range(2, 9):
        states = rotation_ensemble(seed, m)
        res = optimize_gram(states, symmetric=True)
        worst_gap = max(worst_gap, res.purity_upper_bound - res.purity)
        purity_vs_bound_ok &= res.purity <= res.purity_upper_bound + 1e-6
    assert worst_gap <= 1e-2
    assert purity_vs_bound_ok
    report(f"ACCEPTANCE 4 Gram optimization exactness: PASS "
           f"(overlap recovery {worst_overlap:.2e}, two-state purity gap "
           f"{abs(res2.purity - target):.2e}, noisy-ring bound gap {worst_gap:.2e})")


def test_criterion_5_benchmark_soundness_and_power():
    cutoff = 15
    d = cutoff + 1
    seed = noisy_coherent(MEMORY_ALPHA, MEMORY_EXCESS, d, deficit_tol=1e-6)
    channels = {
        "heterodyne_mp": heterodyne_mp_channel(d),
        "dephasing": dephasing_channel(d),
        "replace": replace_channel(coherent_state(0.0, d)),
    }
    grams = {m: optimize_gram(rotation_ensemble(seed, m), symmetric=True).gram
             for m in range(2, 9)}
    worst = 0.0
    for name, channel in channels.items():
        rho_out = channel(seed)
        mom = rho_out.quadrature_moments()
        scenarios = [Tomography(rho_out), Quadratures(mom)]
        scenarios += [QuadraturesWithErrors(mom, TABLE_ERRORS, s) for s in (1, 2, 3)]
        for m in range(2, 9):
            for scen in scenarios:
                res = benchmark_symmetric(grams[m], scen, m, cutoff=cutoff)
                worst = max(worst, res.negativity_lower_bound)
                assert res.negativity_lower_bound <= 1e-6, (name, m, scen.tag)
    assert worst <= 1e-6

    # power: identity channel on a pure coherent ring reproduces the
    # input-state negativity under exact tomography constraints
    m = 4
    amps = [_coherent_amplitudes(0.5 * np.exp(-2j * np.pi * k / m), d) for k in range(m)]
    tau = BipartiteBlockMatrix.from_pure_family(amps)
    exact = brute_negativity(tau.full_matrix(), m, d)
    z = gram_of(tau).z.copy()
    np.fill_diagonal(z, 1.0)
    res = benchmark_symmetric(GramMatrix(z), Tomography(coherent_state(0.5, d)), m,
                              cutoff=cutoff)
    gap = abs(res.negativity_lower_bound - exact)
    assert gap <= 1e-4
    report(f"ACCEPTANCE 5 benchmarking soundness & power: PASS "
           f"(worst classical bound {worst:.2e} across 105 runs, identity-channel "
           f"gap {gap:.2e})")


@pytest.fixture(scope="module")
def memory_sweep():
    t0 = time.time()
    summary = run_pipeline(bundled_config_path("noisy_memory"), out_dir="")
    cfg = load_config(bundled_config_path("noisy_memory"))
    cfg["ensemble"]["m_values"] = [10]
    summary10 = run_pipeline(cfg, out_dir="")
    return summary, summary10, time.time() - t0


def test_criterion_6_paper_shape_reproduction(memory_sweep):
    summary, summary10, elapsed = memory_sweep
    curves = {}
    for m, label, _, bound, verdict in summary["bounds"]:
        curves.setdefault(label, {})[m] = bound
    curves10 = {}
    for m, label, _, bound, _ in summary10["bounds"]:
        curves10.setdefault(label, {})[m] = bound

    # nondecreasing in M within 1e-6
    for label, values in curves.items():
        ms = sorted(values)
        for lo, hi in zip(ms, ms[1:]):
            assert values[hi] >= values[lo] - 1e-6, (label, lo, hi)

    # ordering: tomography >= quadratures >= 1 sigma >= 2 sigma >= 3 sigma
    chain = ["tomography", "quadratures", "quadratures_errors_1sigma",
             "quadratures_errors_2sigma", "quadratures_errors_3sigma"]
    for m in sorted(curves["tomography"]):
        for tighter, looser in zip(chain, chain[1:]):
            assert curves[tighter][m] >= curves[looser][m] - 1e-6, (tighter, looser, m)

    # two test states are not enough at the 3 sigma level, more than two are
    three_sigma = curves["quadratures_errors_3sigma"]
    assert three_sigma[2] <= 1e-6
    margin = 1e-8 + 1e-6  # solver tol + verdict margin
    assert any(three_sigma[m] > margin for m in three_sigma if m > 2)

    # saturation: M = 8 and M = 10 agree within 5 percent
    for label, values in curves.items():
        b8, b10 = values[8], curves10[label][10]
        if b8 > 1e-6:
            assert abs(b10 - b8) / b8 < 0.05, (label, b8, b10)

    # the input-state negativity (the top curve) is nondecreasing in M too
    ineg = dict(summary["input_negativity"])
    ms = sorted(ineg)
    for lo, hi in zip(ms, ms[1:]):
        assert ineg[hi] >= ineg[lo] - 1e-6

    assert elapsed <= 30 * 60
    report(f"ACCEPTANCE 6 paper-shape reproduction: PASS "
           f"(3-sigma bounds: M=2 {three_sigma[2]:.1e}, M=4 {three_sigma[4]:.3f}; "
           f"sweep + M=10 in {elapsed / 60:.1f} min)")


def test_criterion_7_cptp_order():
    # the three reference verdicts
    g_eq = GramMatrix(np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex))
    res = cptp_reachable(g_eq, g_eq)
    assert res.feasible
    np.testing.assert_allclose(res.witness, np.ones((2, 2)), atol=1e-9)

    ident = GramMatrix(np.eye(3, dtype=complex))
    assert cptp_reachable(ident, ident).feasible
    z_off = np.eye(3, dtype=complex)
    z_off[0, 1] = z_off[1, 0] = 0.4
    assert not cptp_reachable(GramMatrix(z_off), ident).feasible

    g_big = GramMatrix(np.array([[1.0, 0.9], [0.9, 1.0]], dtype=complex))
    d_small = GramMatrix(np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex))
    assert not cptp_reachable(g_big, d_small).feasible

    # purity monotonicity along 100 random feasible pairs
    rng = np.random.default_rng(1618)
    checked = 0
    while checked < 100:
        m = int(rng.integers(2, 7))

        def random_unit_diag_psd(orthogonal_first_pair=False):
            vecs = rng.standard_normal((m, 2 * m)) + 1j * rng.standard_normal((m, 2 * m))
            vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
            if orthogonal_first_pair:
                # a structural zero at (0,1): exercises the SDP completion path
                vecs[1] -= np.vdot(vecs[0], vecs[1]) * vecs[0]
                vecs[1] /= np.linalg.norm(vecs[1])
            gram = vecs @ vecs.conj().T
            np.fill_diagonal(gram, 1.0)
            return gram

        p = random_unit_diag_psd()
        dz = random_unit_diag_psd(orthogonal_first_pair=(checked % 10 == 0))
        g = GramMatrix(p * dz)
        d = GramMatrix(dz)
        verdict = cptp_reachable(g, d)
        assert verdict.feasible
        assert gram_purity(g) <= gram_purity(d) + 1e-8
        checked += 1
    report("ACCEPTANCE 7 CPTP-order test: PASS "
           "(3 reference verdicts, 100 feasible pairs monotone)")


def test_criterion_8_pipeline_statistics():
    # Lab-style moment table parses and flows into the scenario bit-exactly
    import json
    payload = json.loads(json.dumps({
        "kind": "quadratures_errors",
        "moments": {"x": 0.01, "p": -0.95, "xx": 0.57, "pp": 1.41},
        "std_errors": {"x": 0.03, "p": 0.03, "xx": 0.04, "pp": 0.09},
        "sigma_level": 3,
    }))
    from qdbench.pipeline import scenario_from_json_dict
    scen = scenario_from_json_dict(payload)
    for key in ("x", "p", "xx", "pp"):
        assert scen.moments[key] == payload["moments"][key]
        assert scen.std_errors[key] == payload["std_errors"][key]
    # the interval endpoints the solver sees are exactly m +- 3 se
    assert scen.moments["xx"] - 3 * scen.std_errors["xx"] == 0.57 - 3 * 0.04

    # synthetic sampling: 3 se moment checks at n = 1e5, >= 95% of 100 seeds
    n = 100_000
    for state, mean_true, m2_true in [
            (coherent_state(0.0, 30), 0.0, 0.5),
            (coherent_state(0.5, 30), math.sqrt(2) * 0.5, 0.5 + 0.5)]:
        ok = 0
        for seed in range(100):
            vals = sample_homodyne(state, 0.0, n, seed=seed)
            se_mean = vals.std(ddof=1) / math.sqrt(n)
            m2 = float(np.mean(vals**2))
            se_m2 = math.sqrt(max(np.mean(vals**4) - m2**2, 0.0) / n)
            if abs(vals.mean() - mean_true) <= 3 * se_mean and abs(m2 - m2_true) <= 3 * se_m2:
                ok += 1
        assert ok >= 95, f"only {ok}/100 seeds passed"
    report(f"ACCEPTANCE 8 pipeline statistics: PASS "
           f"(moment table bit-exact, sampling checks >= 95/100 seeds)")
