"""End-to-end pipeline and CLI tests."""

import json
import math

import numpy as np
import pytest

from qdbench import cli
from qdbench.bench import QuadraturesWithErrors, benchmark_symmetric
from qdbench.blocksym import twirl
from qdbench.fock import coherent_state, noisy_coherent
from qdbench.gramopt import optimize_gram, rotation_ensemble
from qdbench.pipeline import (DEFAULT_CONFIG, bundled_config_path, load_config,
                              run_pipeline, scenario_from_json_dict)
from qdbench.sampling import read_records_csv

from conftest import random_block_matrix

LAB_SCENARIO = {
    "kind": "quadratures_errors",
    "moments": {"x": 0.01, "p": -0.95, "xx": 0.57, "pp": 1.41},
    "std_errors": {"x": 0.03, "p": 0.03, "xx": 0.04, "pp": 0.09},
    "sigma_level": 3,
}


class TestConfig:
    def test_defaults_round_trip(self):
        cfg = load_config({})
        assert cfg == DEFAULT_CONFIG

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown configuration field 'solvr'"):
            load_config({"solvr": {}})

    def test_nested_unknown_key_pointer(self):
        with pytest.raises(ValueError, match="bench.cutof"):
            load_config({"bench": {"cutof": 12}})

    def test_bundled_configs_parse(self):
        for name in ("demo_pure_ring", "mp_channel", "noisy_memory"):
            cfg = load_config(bundled_config_path(name))
            assert cfg["bench"]["cutoff"] >= 9


class TestScenarioFiles:
    def test_lab_moments_forwarded_bit_exactly(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(LAB_SCENARIO), encoding="utf-8")
        with open(path, "r", encoding="utf-8") as fh:
            scen = scenario_from_json_dict(json.load(fh))
        assert isinstance(scen, QuadraturesWithErrors)
        # parsed doubles flow through unchanged
        assert scen.moments["x"] == 0.01
        assert scen.moments["xx"] == 0.57
        assert scen.moments["p"] == -0.95
        assert scen.moments["pp"] == 1.41
        assert scen.std_errors["pp"] == 0.09
        assert scen.sigma_level == 3

    def test_tomography_scenario_file(self, tmp_path):
        payload = {"kind": "tomography",
                   "rho_out": coherent_state(0.4, 8).to_json_dict()}
        scen = scenario_from_json_dict(payload)
        assert scen.tag == "tomography"

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario_from_json_dict({"kind": "psychic"})


class TestRunPipeline:
    def test_demo_certifies_everything(self, tmp_path):
        summary = run_pipeline(bundled_config_path("demo_pure_ring"),
                               out_dir=str(tmp_path / "demo"))
        assert summary["exit_code"] == 0
        assert all(verdict == "QuantumDomain" for *_, verdict in summary["bounds"])
        assert (tmp_path / "demo" / "bounds.csv").exists()
        assert (tmp_path / "demo" / "purity.csv").exists()
        assert (tmp_path / "demo" / "results.json").exists()
        assert (tmp_path / "demo" / "bounds.gp").exists()

    def test_mp_channel_is_inconclusive(self, tmp_path):
        cfg = load_config(bundled_config_path("mp_channel"))
        cfg["ensemble"]["m_values"] = [2]
        summary = run_pipeline(cfg, out_dir=str(tmp_path / "mp"))
        assert summary["exit_code"] == 2
        assert all(bound <= 1e-6 for _, _, _, bound, _ in summary["bounds"])

    def test_byte_identical_outputs(self, tmp_path):
        for sub in ("a", "b"):
            run_pipeline(bundled_config_path("demo_pure_ring"), out_dir=str(tmp_path / sub))
        for name in ("bounds.csv", "purity.csv", "input_negativity.csv", "results.json",
                     "bounds.gp"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_requires_phase_covariance_assertion(self):
        cfg = load_config(bundled_config_path("demo_pure_ring"))
        cfg["assume_phase_covariant"] = False
        with pytest.raises(ValueError, match="phase-covariant"):
            run_pipeline(cfg, out_dir=None)

    def test_sampled_moments_within_widened_exact_bound(self):
        # moments estimated from synthetic data give a bound no weaker than the
        # error-widened exact-moment bound, provided the sample landed within
        # the widened window (checked explicitly for this seed)
        cutoff = 9
        d = cutoff + 1
        cfg = load_config({
            "seed_state": {"kind": "noisy_coherent", "alpha_re": 0.4, "alpha_im": 0.0,
                           "excess": 0.08},
            "channel_sim": {"kind": "loss", "loss": 0.1},
            "ensemble": {"m_values": [3]},
            "scenario": {"kinds": ["quadratures", "quadratures_sampled"],
                         "sigma_levels": [3], "base_seed": 11},
            "bench": {"cutoff": cutoff},
            "outputs": {"dir": ""},
        })
        summary = run_pipeline(cfg, out_dir="")
        bounds = {label: bound for _, label, _, bound, _ in summary["bounds"]}

        seed = noisy_coherent(0.4, 0.08, d, deficit_tol=1e-6)
        from qdbench.channels import loss_channel
        rho_out = loss_channel(0.9, d)(seed)
        exact = rho_out.quadrature_moments()
        from qdbench.pipeline import _sampled_moments
        sampled, ses = _sampled_moments(rho_out, cfg["scenario"])
        for key in ("x", "p", "xx", "pp"):
            assert abs(sampled[key] - exact[key]) <= 3 * ses[key]
        gram = optimize_gram(rotation_ensemble(seed, 3), symmetric=True).gram
        widened = benchmark_symmetric(
            gram, QuadraturesWithErrors(exact, ses, 3), 3, cutoff=cutoff)
        assert bounds["quadratures_sampled"] >= widened.negativity_lower_bound - 1e-6


class TestCLI:
    def test_fidelity_command(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        coherent_state(0.5, 20).save(a)
        coherent_state(-0.5, 20).save(b)
        assert cli.main(["fidelity", str(a), str(b)]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(math.exp(-1.0), abs=1e-8)

    def test_sample_command(self, tmp_path):
        state = tmp_path / "state.json"
        coherent_state(0.3, 12).save(state)
        out = tmp_path / "recs.csv"
        code = cli.main(["sample", "--state", str(state), "--phase", "0",
                         "--n", "200", "--seed", "3", "--out", str(out)])
        assert code == 0
        assert len(read_records_csv(out)) == 200

    def test_stdform_check_command(self, tmp_path, rng):
        tau = twirl(random_block_matrix(rng, 3, 4))
        path = tmp_path / "tau.json"
        path.write_text(json.dumps(tau.to_json_dict()), encoding="utf-8")
        assert cli.main(["stdform-check", "--input", str(path)]) == 0

    def test_stdform_check_rejects_asymmetric(self, tmp_path, rng):
        tau = random_block_matrix(rng, 3, 4)
        path = tmp_path / "tau.json"
        path.write_text(json.dumps(tau.to_json_dict()), encoding="utf-8")
        assert cli.main(["stdform-check", "--input", str(path)]) == 1

    def test_gram_and_bench_commands(self, tmp_path):
        seed_path = tmp_path / "seed.json"
        # seed consistent with the lab-scale moment fixture below
        alpha = complex(0.01, -0.95) / math.sqrt(2)
        noisy_coherent(alpha, 0.49 - abs(alpha) ** 2, 10, deficit_tol=1e-6).save(seed_path)
        code = cli.main(["gram", "--seed-file", str(seed_path), "--m-values", "3",
                         "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "gram_m3.json").exists()
        assert (tmp_path / "purity.csv").exists()

        scen_path = tmp_path / "scenario.json"
        scen_path.write_text(json.dumps(LAB_SCENARIO), encoding="utf-8")
        result_path = tmp_path / "result.json"
        code = cli.main(["bench", "--gram", str(tmp_path / "gram_m3.json"),
                         "--scenario", str(scen_path), "--cutoff", "9",
                         "--out", str(result_path)])
        assert code in (0, 2)
        assert json.loads(result_path.read_text())["M"] == 3

    def test_error_exit_code(self, tmp_path):
        assert cli.main(["fidelity", str(tmp_path / "missing.json"),
                         str(tmp_path / "missing.json")]) == 1

    @pytest.mark.parametrize("argv", [
        ["sweep", "--config", "bundled:demo_pure_ring", "--workers", "2"],
        ["sweep"],
        ["bench", "--gram", "g.json", "--scenario", "s.json", "--cutoff", "x"],
        [],
    ])
    def test_usage_error_exit_code(self, argv, capsys):
        # 2 means "ran, nothing certified"; a usage error is an error
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key", [
        ("solver", "tol"), ("bench", "verdict_margin"), ("seed_state", "alpha_re")])
    def test_non_finite_config_number_names_the_field(self, tmp_path, capsys, section, key):
        with open(bundled_config_path("noisy_memory"), encoding="utf-8") as fh:
            config = json.load(fh)
        config.setdefault(section, {})[key] = math.nan
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(config), encoding="utf-8")  # json writes a bare NaN
        code = cli.main(["sweep", "--config", str(path), "--m-values", "2", "--cutoff", "8",
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"'{section}.{key}' is not finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [("max_iter", 0), ("tol", -1.0)])
    def test_bad_solver_setting_names_the_field(self, tmp_path, capsys, key, value):
        with open(bundled_config_path("noisy_memory"), encoding="utf-8") as fh:
            config = json.load(fh)
        config.setdefault("solver", {})[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code = cli.main(["sweep", "--config", str(path), "--m-values", "2", "--cutoff", "8",
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"SDPConfig.{key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_help_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--help"])
        assert exc.value.code == 0
        assert "--config" in capsys.readouterr().out

    def test_sweep_command(self, tmp_path):
        code = cli.main(["sweep", "--config", "bundled:demo_pure_ring",
                         "--out", str(tmp_path / "sweep"), "--m-values", "2,3"])
        assert code == 0
        assert (tmp_path / "sweep" / "bounds.csv").exists()
