"""End-to-end pipeline and CLI tests."""

import json
import math

import numpy as np
import pytest

from qdbench import cli
from qdbench.bench import QuadraturesWithErrors, benchmark_symmetric
from qdbench.blocksym import twirl
from qdbench.fock import coherent_state, noisy_coherent
from qdbench.gramopt import GramMatrix, optimize_gram, rotation_ensemble
from qdbench.pipeline import (DEFAULT_CONFIG, _build_scenarios, _build_seed, _sampled_moments,
                              bundled_config_path, load_config, run_pipeline,
                              scenario_from_json_dict)
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

    @pytest.mark.parametrize("config, field", [
        ({"scenario": 5}, "scenario"),
        ({"scenario": {"std_errors": 5}}, "scenario.std_errors")])
    def test_non_object_section_rejected_by_name(self, config, field):
        with pytest.raises(ValueError, match=f"'{field}' must be an object"):
            load_config(config)

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

    def test_exact_quadratures_file_gives_zero_width_intervals(self):
        moments = LAB_SCENARIO["moments"]
        scen = scenario_from_json_dict({"kind": "quadratures", "moments": moments})
        assert scen.tag == "quadratures" and scen.std_errors is None
        assert scen.intervals() == {k: (v, v) for k, v in moments.items()}


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

    def _noisy_memory(self, tmp_path, name, seed_state, cutoff=8, **scenario):
        """noisy_memory at M = 2 with the given seed fields; the output directory."""
        cfg = load_config(bundled_config_path("noisy_memory"))
        cfg["seed_state"].update(seed_state)
        cfg["scenario"].update(scenario)
        cfg["ensemble"]["m_values"] = [2]
        cfg["bench"]["cutoff"] = cutoff
        assert run_pipeline(cfg, out_dir=str(tmp_path / name))["exit_code"] == 0
        return tmp_path / name

    def test_seed_file_reproduces_the_built_seed(self, tmp_path):
        cfg = load_config(bundled_config_path("noisy_memory"))
        _build_seed(cfg, 9).save(tmp_path / "seed.json")
        built = self._noisy_memory(tmp_path, "built", {})
        loaded = self._noisy_memory(tmp_path, "loaded",
                                    {"kind": "file", "path": str(tmp_path / "seed.json")})
        for name in ("bounds.csv", "purity.csv", "input_negativity.csv"):
            assert (built / name).read_bytes() == (loaded / name).read_bytes()

    def test_larger_seed_file_is_fitted_to_the_cutoff(self, tmp_path):
        cfg = load_config(bundled_config_path("noisy_memory"))
        _build_seed(cfg, 24).save(tmp_path / "seed24.json")
        built = self._noisy_memory(tmp_path, "built", {"dim": 24}, 15, kinds=["tomography"])
        loaded = self._noisy_memory(tmp_path, "loaded",
                                    {"kind": "file", "path": str(tmp_path / "seed24.json")},
                                    15, kinds=["tomography"])
        for name in ("bounds.csv", "purity.csv", "input_negativity.csv"):
            assert (built / name).read_bytes() == (loaded / name).read_bytes()

    def test_seed_file_needs_a_path(self):
        cfg = load_config({"seed_state": {"kind": "file"}})
        with pytest.raises(ValueError, match="seed_state.path"):
            run_pipeline(cfg, out_dir=None)

    def test_sampled_moments_carry_their_binned_errors(self):
        cfg = load_config({"scenario": {"kinds": ["quadratures_errors"],
                                        "moment_source": "sampled", "sigma_levels": [1, 3]}})
        rho_out = noisy_coherent(0.4, 0.08, 10)
        moments, errors = _sampled_moments(rho_out, cfg["scenario"])
        assert errors != cfg["scenario"]["std_errors"]
        scenarios = _build_scenarios(rho_out, cfg["scenario"])
        assert [label for label, _ in scenarios] == ["quadratures_errors_1sigma",
                                                     "quadratures_errors_3sigma"]
        for (_, scen), level in zip(scenarios, (1, 3)):
            assert scen.moments == moments and scen.std_errors == errors
            assert scen.sigma_level == level

    def test_phase_covariance_is_no_configuration_field(self, tmp_path, capsys):
        # every simulated channel kind is exactly phase covariant
        # (tests/test_channels.py pins it), so there is nothing to assert
        for value in (True, False):
            path = tmp_path / f"covariant_{value}.json"
            path.write_text(json.dumps({"assume_phase_covariant": value}), encoding="utf-8")
            code = cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")])
            assert code == 1
            err = capsys.readouterr().err
            assert "unknown configuration field 'assume_phase_covariant'" in err
            assert "Traceback" not in err and not (tmp_path / "out").exists()

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
        phases, values = read_records_csv(out)
        assert values.size == 200
        assert np.array_equal(phases, np.zeros(200))

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
        ["gram", "--seed-file", "s.json", "--refine"],
    ])
    def test_usage_error_exit_code(self, argv, capsys):
        # 2 means "ran, nothing certified"; a usage error is an error
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key", [("seed_state", "alpha_re")])
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

    def test_solver_section_is_no_configuration_field(self, tmp_path, capsys):
        # the sweep runs at the solver's defaults: no verdict hangs on a setting
        with open(bundled_config_path("noisy_memory"), encoding="utf-8") as fh:
            config = json.load(fh)
        config["solver"] = {"tol": 1e-8, "max_iter": 200}
        path = tmp_path / "solver.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code = cli.main(["sweep", "--config", str(path), "--m-values", "2", "--cutoff", "8",
                         "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown configuration field 'solver'" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("scenario", "sigma_levels", [2.5]),
        ("bench", "cutoff", 8.9), ("ensemble", "m_values", [2, 2.9]),
        ("scenario", "samples_per_bin", 400.5)])
    def test_fractional_integer_field_names_the_field(self, tmp_path, capsys, section, key,
                                                      value):
        with open(bundled_config_path("noisy_memory"), encoding="utf-8") as fh:
            config = json.load(fh)
        config.setdefault(section, {})[key] = value
        path = tmp_path / "fraction.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code = cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"'{section}.{key}' must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("channel", [
        {"kind": "replace", "thermal_mean": -0.5},
        {"kind": "loss_excess", "loss": 0.15, "excess": 1.5},
        {"kind": "loss", "loss": 1.2}])
    def test_bad_channel_parameter_exits_1_naming_it(self, tmp_path, capsys, channel):
        path = tmp_path / "bad_channel.json"
        path.write_text(json.dumps({"channel_sim": channel}), encoding="utf-8")
        code = cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        name = {"replace": "thermal_mean", "loss_excess": "excess", "loss": "loss"}
        assert f"{name[channel['kind']]} must" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_integral_numbers_in_integer_fields_are_accepted(self):
        cfg = load_config({"bench": {"cutoff": 9.0}, "ensemble": {"m_values": [2.0, 3]}})
        assert cfg["bench"]["cutoff"] == 9 and cfg["ensemble"]["m_values"] == [2, 3]

    @pytest.mark.parametrize("section, key, value, message", [
        ("seed_state", "dim", 20.5, "must be an integer"),
        ("bench", "cutoff", "8.9", "must be a number")])
    def test_bad_number_exits_1_at_load_naming_the_field(self, tmp_path, capsys, section, key,
                                                         value, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({section: {key: value}}), encoding="utf-8")
        code = cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"'{section}.{key}' {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("bench", "cutoff", "8.9"), ("bench", "cutoff", True), ("seed_state", "dim", "20"),
        ("seed_state", "dim", False),
        ("ensemble", "m_values", [2, "3"]), ("bench", "cutoff", None)])
    def test_non_numbers_in_numeric_fields_are_rejected(self, section, key, value):
        with pytest.raises(ValueError, match=f"'{section}.{key}' must be a number"):
            load_config({section: {key: value}})

    def test_none_and_integral_values_in_optional_numeric_fields_pass(self):
        cfg = load_config({"seed_state": {"dim": 20.0}})
        assert cfg["seed_state"]["dim"] == 20
        cfg = load_config({"seed_state": {"dim": None, "path": "seed.json"}})
        assert cfg["seed_state"]["dim"] is None
        with pytest.raises(ValueError, match="'seed_state.dim' must be an integer"):
            load_config({"seed_state": {"dim": 20.5}})

    @pytest.mark.parametrize("config, field", [
        ({"ensemble": {"m_values": []}}, "ensemble.m_values"),
        ({"scenario": {"kinds": []}}, "scenario.kinds"),
        ({"scenario": {"sigma_levels": []}}, "scenario.sigma_levels"),
        ({"bench": {"cutoff": -3}}, "bench.cutoff"),
        ({"bench": {"cutoff": 0}}, "bench.cutoff"),
        ({"ensemble": {"m_values": 5}}, "ensemble.m_values"),
        ({"scenario": {"kinds": "tomography"}}, "scenario.kinds"),
        ({"scenario": {"kinds": ["quadratures_errors"], "sigma_levels": 2}},
         "scenario.sigma_levels"),
        ({"scenario": {"moment_source": "sampeld"}}, "scenario.moment_source"),
        ({"scenario": {"sigma_levels": [4]}}, "scenario.sigma_levels"),
        ({"scenario": {"sigma_levels": [1, 0]}}, "scenario.sigma_levels"),
        ({"seed_state": {"kind": "squeezed"}}, "seed_state.kind"),
        ({"scenario": {"kinds": ["tomography", "tomograpy"]}}, "scenario.kinds"),
        ({"ensemble": {"m_values": [1]}}, "ensemble.m_values")])
    def test_empty_sweep_or_nonpositive_cutoff_exits_1_naming_the_field(
            self, tmp_path, capsys, config, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code = cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"'{field}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_verdict_margin_is_not_a_configuration_field(self, tmp_path, capsys):
        # a margin of 0 let the entanglement-breaking heterodyne_mp channel certify
        path = tmp_path / "margin.json"
        path.write_text(json.dumps({
            "channel_sim": {"kind": "heterodyne_mp"}, "ensemble": {"m_values": [2]},
            "scenario": {"kinds": ["tomography"]},
            "bench": {"cutoff": 9, "verdict_margin": 0}}), encoding="utf-8")
        code = cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "unknown configuration field 'bench.verdict_margin'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, scenario, named", [
        ([], None, "configuration must be a JSON object"),
        ({}, [1, 2], "scenario must be a JSON object"),
        ({}, dict(LAB_SCENARIO, moments=5), "moments must be an object"),
        ({}, dict(LAB_SCENARIO, std_errors=7), "standard errors must be an object")],
        ids=["config", "scenario", "moments", "std-errors"])
    def test_non_object_json_exits_1_by_name(self, tmp_path, capsys, config, scenario,
                                             named):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        if scenario is None:
            argv = ["sweep", "--config", str(config_path), "--out", str(tmp_path / "out")]
        else:
            gram_path = tmp_path / "gram.json"
            gram_path.write_text(json.dumps(GramMatrix(np.eye(2)).to_json_dict()),
                                 encoding="utf-8")
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps(scenario), encoding="utf-8")
            argv = ["bench", "--gram", str(gram_path), "--scenario", str(path)]
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and named in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--config", "bundled:demo_pure_ring", "--m-values", "2,x"],
        ["gram", "--seed-file", "seed.json", "--m-values", "2,y"]], ids=["sweep", "gram"])
    def test_bad_m_values_names_the_flag(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert f"argument --m-values: must be comma-separated integers: '{argv[-1]}'" in err

    @pytest.mark.parametrize("phase", ["nan", "inf"])
    def test_sample_rejects_a_non_finite_phase_by_name(self, tmp_path, capsys, phase):
        state = tmp_path / "state.json"
        coherent_state(0.3, 12).save(state)
        out = tmp_path / "recs.csv"
        code = cli.main(["sample", "--state", str(state), "--phase", phase, "--out", str(out)])
        assert code == 1
        assert "error: homodyne phase must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_nonpositive_cutoff_override_exits_1(self, tmp_path, capsys):
        code = cli.main(["sweep", "--config", "bundled:demo_pure_ring", "--cutoff", "-3",
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert "'bench.cutoff' must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sigma_levels_may_be_empty_without_interval_scenarios(self):
        cfg = load_config({"scenario": {"kinds": ["tomography"], "sigma_levels": []}})
        assert cfg["scenario"]["sigma_levels"] == []

    def test_results_json_says_why_each_solve_stopped(self, tmp_path):
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--config", "bundled:demo_pure_ring", "--out", str(out),
                         "--m-values", "2"]) == 0
        points = json.loads((out / "results.json").read_text(encoding="utf-8"))["bounds"]
        rows = (out / "bounds.csv").read_text(encoding="utf-8").splitlines()
        assert rows[0] == "M,scenario,N,bound,verdict" and len(rows) == len(points) + 1
        for point, row in zip(points, rows[1:]):
            assert point["stop_reason"] == "converged"
            assert isinstance(point["iterations"], int) and point["iterations"] >= 1
            assert isinstance(point["schur_rows"], int) and point["schur_rows"] >= 1
            assert isinstance(point["factor_failures"], int) and point["factor_failures"] >= 0
            assert row.split(",")[1] == point["scenario"]

    def test_fractional_scenario_sigma_level_is_rejected(self, tmp_path, capsys):
        # a boolean is no sigma level either, though True == 1
        gram_path = tmp_path / "gram.json"
        gram_path.write_text(json.dumps(GramMatrix(np.eye(2)).to_json_dict()), encoding="utf-8")
        for bad in (1.5, True):
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps(dict(LAB_SCENARIO, sigma_level=bad)), encoding="utf-8")
            code = cli.main(["bench", "--gram", str(gram_path), "--scenario", str(path)])
            assert code == 1
            assert "sigma_level" in capsys.readouterr().err

    @pytest.mark.parametrize("gram_drop, scenario, named", [
        ("re", LAB_SCENARIO, "'re'"),
        (None, dict(LAB_SCENARIO, moments={"x": 0.01, "p": -0.95, "xx": 0.57}), "'pp'"),
        (None, dict(LAB_SCENARIO, kind="tomography"), "'rho_out'")])
    def test_bench_names_a_missing_field(self, tmp_path, capsys, gram_drop, scenario, named):
        gram = GramMatrix(np.eye(2)).to_json_dict()
        gram.pop(gram_drop, None)
        gram_path = tmp_path / "gram.json"
        gram_path.write_text(json.dumps(gram), encoding="utf-8")
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        code = cli.main(["bench", "--gram", str(gram_path), "--scenario", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and named in err and "Traceback" not in err

    def test_bench_rejects_an_empty_gram_by_name(self, tmp_path, capsys):
        gram_path = tmp_path / "gram.json"
        gram_path.write_text(json.dumps({"m": 0, "re": [], "im": []}), encoding="utf-8")
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(LAB_SCENARIO), encoding="utf-8")
        code = cli.main(["bench", "--gram", str(gram_path), "--scenario", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: Gram JSON field 'm' must be >= 1, got 0")
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [None, "0.01", True])
    def test_bench_rejects_a_non_number_moment_by_key(self, tmp_path, capsys, value):
        gram_path = tmp_path / "gram.json"
        gram_path.write_text(json.dumps(GramMatrix(np.eye(2)).to_json_dict()), encoding="utf-8")
        path = tmp_path / "scenario.json"
        moments = dict(LAB_SCENARIO["moments"], x=value)
        path.write_text(json.dumps(dict(LAB_SCENARIO, moments=moments)), encoding="utf-8")
        code = cli.main(["bench", "--gram", str(gram_path), "--scenario", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "'x' must be a number" in err
        assert "Traceback" not in err

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
