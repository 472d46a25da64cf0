import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from subjmap.cli import _load_config, _write_json, config_tables, main
from subjmap.datasets import load_dataset, save_dataset, synth_group_dataset


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def read_results(out_dir):
    return json.loads((out_dir / "results.json").read_text())


class TestParamcount:
    def test_paper_worked_examples(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {
            "paramcount": {"input_size": 150000, "hidden_size": 10, "n_subjects": 1200}})
        assert main(["paramcount", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        printed = capsys.readouterr().out
        assert "3,600,000,000" in printed
        assert "3,024,200" in printed
        assert "3,000,000" in printed
        counts = read_results(tmp_path / "out")["metrics"]["counts"]
        assert counts == {"group": 3_000_000, "subject": 3_600_000_000,
                          "decomposed": 3_024_200}

    def test_wholebrain_example(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "paramcount": {"input_size": 441100, "hidden_size": 256, "n_subjects": 16}})
        assert main(["paramcount", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        counts = read_results(tmp_path / "out")["metrics"]["counts"]
        assert counts["subject"] == 3_613_491_200


class TestConfigStrictness:
    def test_unknown_key_names_offender_and_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {
            "paramcount": {"input_size": 1, "hidden_size": 1, "n_subjects": 1,
                           "bogus_knob": 3}})
        assert main(["paramcount", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert "paramcount.bogus_knob" in capsys.readouterr().err

    def test_missing_required_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"paramcount": {"input_size": 5}})
        assert main(["paramcount", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert "paramcount.hidden_size" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "c.json"
        bad.write_text("{not json")
        assert main(["paramcount", "--config", str(bad)]) == 1

    def test_runtime_error_exits_two(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "data": {"path": "missing.smds"},
            "checkpoint": "missing.ckpt"})
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


class TestConfigValues:
    @pytest.mark.parametrize("command,section,key,value", [
        # integer fields were truncated: trunk (1, 6), 3 epochs, width 8
        ("train", "model", "trunk_widths", "16"),
        ("train", "train", "epochs", 3.5),
        ("train", "model", "first_layer_width", 8.9),
        # values the constructors reject used to exit 2 with a raw ValueError
        ("train", "model", "variant", "foo"),
        ("train", "train", "optimizer", "rmsprop"),
        ("finetune", "finetune", "optimizer", "rmsprop"),
        ("train", "train", "lr", -1),
        ("train", "train", "epochs", "ten"),
        ("train", "model", "first_layer_width", 0),
        ("train", "data", "format", "xml"),
        # values of the wrong JSON type: each used to run something other than
        # what was written (a truncated count, a truthy "no"), or to exit 2
        ("paramcount", "paramcount", "input_size", 3.7),
        ("paramcount", "paramcount", "both_sides", "no"),
        ("paramcount", None, "seed", "abc"),
        ("simulate", None, "seed", "abc"),
        ("simulate", "data", "n_samples", 50.5),
        ("analyze", "analysis", "k", 3.7),
        ("analyze", "analysis", "grid_points", 3.7),
        ("analyze", "analysis", "max_iter", 3.7),
        ("analyze", "data", "path", 5),
        ("train", "data", "center", "no"),
        ("train", "train", "lr", "abc"),
        ("train", "train", "orth_every", 1.5),
        ("train", "train", "early_stop_patience", 2.5),
        ("train", "model", "n_classes", True),
        ("sweep", "sweep", "seeds", 3),
        ("sweep", "sweep", "seeds", []),
        ("sweep", "sweep", "metric", "val_mse"),
        ("sweep", "sweep", "axes", {"lr": 0.01}),
        ("sweep", "sweep", "axes", {"learning_rate": [0.01]}),
        ("sweep", "sweep", "axes", {"trunk_widths": [[16], ["8"]]}),
        ("sweep", "sweep", "axes", {"early_stop_patience": [None, 2.5]}),
        # non-finite literals passed as floats and failed at the JSON write, exit 2
        ("train", "train", "lr", math.nan),
        ("train", "model", "beta", math.inf),
        ("sweep", "sweep", "axes", {"lr": [0.01, math.nan]}),
        # empty fine-tune windows (T=40): on unseen subjects an empty held-out
        # tail ended in a raw ZeroDivisionError and an empty fit window in
        # EmptySubset, both with exit 2
        ("finetune", "finetune", "holdout_fraction", 0),
        ("finetune", "finetune", "holdout_fraction", -0.5),
        ("finetune", "finetune", "holdout_fraction", 0.99),
        ("finetune", "finetune", "fraction", 0),
        ("finetune", "finetune", "fraction", -0.25),
    ])
    def test_bad_value_is_config_error(self, tmp_path, synth_file, capsys,
                                       command, section, key, value):
        payload = {
            "simulate": {"data": {"n_samples": 20, "n_subjects": 2}},
            "paramcount": {"paramcount": {"input_size": 4, "hidden_size": 2, "n_subjects": 3}},
            "analyze": {"data": {"path": str(synth_file)}, "checkpoint": "missing.ckpt"},
            "sweep": dict(train_config(synth_file, epochs=1),
                          sweep={"axes": {"lr": [0.01]}, "seeds": [1]}),
        }.get(command, train_config(synth_file, epochs=1))
        if command == "finetune":
            cfg = write_config(tmp_path / "train.json", payload)
            assert main(["train", "--config", cfg, "--out", str(tmp_path / "model")]) == 0
            payload = {"data": {"path": str(synth_file)},
                       "checkpoint": str(tmp_path / "model" / "model.ckpt"),
                       "finetune": {"epochs": 1}}
        (payload.setdefault(section, {}) if section else payload)[key] = value
        cfg = write_config(tmp_path / "c.json", payload)
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert not (tmp_path / "out" / "model.ckpt").exists()

    def test_corrupt_data_file_still_exits_two(self, tmp_path, synth_file, capsys):
        synth_file.write_bytes(synth_file.read_bytes()[:40])
        cfg = write_config(tmp_path / "c.json", train_config(synth_file, epochs=1))
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "ParseError" in capsys.readouterr().err


class TestSimulate:
    def test_half_moons_simulation_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "seed": 7,
            "data": {"generator": "rotated_half_moons", "n_samples": 60, "n_subjects": 5}})
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        ds = load_dataset(out / "data.smds")
        assert ds.n_subjects == 5
        assert ds.subjects[0].n_timesteps == 60
        angles = (out / "angles.csv").read_text().splitlines()
        assert len(angles) == 6
        results = read_results(out)
        assert results["metrics"]["class_counts"] == [30, 30]

    def test_paper_default_scale(self, tmp_path):
        # schema defaults reproduce the benchmark scale: 100 subjects x 1000 samples
        cfg = write_config(tmp_path / "c.json", {"seed": 1, "data": {}})
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        results = read_results(out)
        assert results["metrics"]["n_subjects"] == 100
        assert results["metrics"]["n_samples"] == 1000
        assert results["metrics"]["class_counts"] == [500, 500]

    def test_synth_simulation(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "seed": 3,
            "data": {"generator": "synth_group", "n_subjects": 6, "n_timesteps": 20,
                     "n_features": 8, "latent_dim": 3, "group_effect": 1.0}})
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        truth = json.loads((out / "ground_truth.json").read_text())
        assert len(truth["direction_voxels"]) == 8
        ds = load_dataset(out / "data.smds")
        assert ds.groups().tolist() == [0, 1, 0, 1, 0, 1]


def train_config(data_path, variant="decomposed", epochs=4):
    return {
        "seed": 5,
        "data": {"path": str(data_path),
                 "split": {"scheme": "timestep_fraction", "test_fraction": 0.5,
                           "val_fraction": 0.2}},
        "model": {"variant": variant, "objective": "autoencoder",
                  "first_layer_width": 3, "latent_size": 2, "trunk_widths": [6]},
        "train": {"lr": 0.01, "epochs": epochs, "batch_size": 16},
    }


@pytest.fixture()
def synth_file(tmp_path):
    data, _ = synth_group_dataset(6, 40, 8, 3, 1.0, seed=2)
    path = tmp_path / "data.smds"
    save_dataset(data, path)
    return path


class TestTrainCommand:
    def test_train_writes_artifacts(self, tmp_path, synth_file):
        cfg = write_config(tmp_path / "c.json", train_config(synth_file))
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        results = read_results(out)
        assert (out / "model.ckpt").exists()
        assert (out / "history.csv").exists()
        assert (out / "resolved_config.json").exists()
        assert "val_loss" in results["metrics"] and "test_loss" in results["metrics"]

    def test_bit_identical_metrics_across_reruns(self, tmp_path, synth_file):
        cfg = write_config(tmp_path / "c.json", train_config(synth_file))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["train", "--config", cfg, "--out", str(out_b)]) == 0
        ra, rb = read_results(out_a), read_results(out_b)
        assert ra["metrics"] == rb["metrics"]
        assert ra["config_hash"] == rb["config_hash"]

    def test_seed_flag_changes_hash_and_metrics(self, tmp_path, synth_file):
        cfg = write_config(tmp_path / "c.json", train_config(synth_file))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["train", "--config", cfg, "--out", str(out_b), "--seed", "99"]) == 0
        assert read_results(out_a)["config_hash"] != read_results(out_b)["config_hash"]

    def test_config_hash_ignores_formatting(self, tmp_path, synth_file):
        payload = train_config(synth_file)
        cfg_a = tmp_path / "a.json"
        cfg_a.write_text(json.dumps(payload, indent=4))
        reordered = dict(reversed(list(payload.items())))
        cfg_b = tmp_path / "b.json"
        cfg_b.write_text(json.dumps(reordered))
        out_a, out_b = tmp_path / "oa", tmp_path / "ob"
        assert main(["train", "--config", str(cfg_a), "--out", str(out_a)]) == 0
        assert main(["train", "--config", str(cfg_b), "--out", str(out_b)]) == 0
        assert read_results(out_a)["config_hash"] == read_results(out_b)["config_hash"]

    def test_env_var_out_dir(self, tmp_path, synth_file, monkeypatch):
        target = tmp_path / "via_env"
        monkeypatch.setenv("SUBJMAP_OUT", str(target))
        cfg = write_config(tmp_path / "c.json", train_config(synth_file, epochs=1))
        assert main(["train", "--config", cfg]) == 0
        assert (target / "results.json").exists()


class TestSweepCommand:
    def test_sweep_outputs_table_and_winner(self, tmp_path, synth_file):
        payload = train_config(synth_file, epochs=2)
        payload["sweep"] = {"axes": {"lr": [0.01, 0.003], "early_stop_patience": [None]},
                            "seeds": [1, 2]}
        cfg = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--workers", "1"]) == 0
        results = read_results(out)
        assert results["metrics"]["n_rows"] == 4
        assert results["metrics"]["n_errors"] == 0
        assert "lr" in results["metrics"]["winner_setting"]
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 5

    def test_sweep_with_every_cell_failing_exits_two(self, tmp_path, synth_file, capsys):
        # a width every cell's ModelSpec rejects used to exit 0 and write NaN winners
        payload = train_config(synth_file, epochs=1)
        payload["sweep"] = {"axes": {"first_layer_width": [0]}, "seeds": [1]}
        cfg = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--workers", "1"]) == 2
        assert "SweepFailed: all 1 sweep cells failed" in capsys.readouterr().err
        assert not (out / "results.json").exists()


    def test_autoencoder_default_metric_picks_lowest_val_loss(self, tmp_path, synth_file):
        # the default used to be val_accuracy, which ranks an autoencoder's val
        # loss highest first and so picked the worst setting
        payload = train_config(synth_file, epochs=3)
        payload["sweep"] = {"axes": {"lr": [1e-4, 0.05]}, "seeds": [1, 2]}
        cfg = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--workers", "1"]) == 0
        metrics = read_results(out)["metrics"]
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        means = {lr: np.mean([float(r["val_loss"]) for r in rows if r["lr"] == lr])
                 for lr in ("0.0001", "0.05")}
        assert means["0.05"] < means["0.0001"]
        assert metrics["winner_setting"] == {"lr": 0.05}
        assert metrics["winner_mean_val"] == means["0.05"]


def test_json_outputs_are_strict_with_null_for_non_finite(tmp_path):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    _write_json(tmp_path / "r.json", {"a": math.nan, "b": [1.5, -math.inf, (math.inf, 2)],
                                      "c": {"d": np.float64("nan"), "e": np.float64(0.25)}})
    text = (tmp_path / "r.json").read_text()
    assert json.loads(text, parse_constant=reject) == {
        "a": None, "b": [1.5, None, [None, 2]], "c": {"d": None, "e": 0.25}}


def test_readme_config_tables_match_schemas():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    begin, end = "<!-- config tables: begin -->\n", "<!-- config tables: end -->"
    assert begin in readme and end in readme, "README lost its config table markers"
    documented = readme.split(begin, 1)[1].split(end, 1)[0]
    assert documented.strip() == config_tables().strip(), (
        "README config tables differ from cli.SCHEMAS; paste in cli.config_tables()")


def test_repo_configs_resolve_against_their_command_schema():
    configs = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
    assert configs
    for path in configs:
        # an unknown key or a value of the wrong type raises ConfigError naming it
        _load_config(str(path), path.name.split("_", 1)[0], None, None)


class TestEvaluateAnalyzeFinetune:
    def test_embedding_probe_on_labelled_data(self, tmp_path):
        sim_cfg = write_config(tmp_path / "sim.json", {
            "seed": 13,
            "data": {"generator": "rotated_half_moons", "n_samples": 200, "n_subjects": 6}})
        sim_dir = tmp_path / "sim"
        assert main(["simulate", "--config", sim_cfg, "--out", str(sim_dir)]) == 0
        train_cfg = write_config(tmp_path / "train.json", {
            "seed": 13,
            "data": {"path": str(sim_dir / "data.smds"),
                     "split": {"scheme": "timestep_fraction", "test_fraction": 0.5,
                               "val_fraction": 0.2}},
            "model": {"variant": "decomposed", "objective": "autoencoder",
                      "first_layer_width": 6, "latent_size": 2, "trunk_widths": [8]},
            "train": {"lr": 0.01, "epochs": 10, "batch_size": 64}})
        model_dir = tmp_path / "model"
        assert main(["train", "--config", train_cfg, "--out", str(model_dir)]) == 0
        eval_cfg = write_config(tmp_path / "eval.json", {
            "seed": 13,
            "data": {"path": str(sim_dir / "data.smds"),
                     "split": {"scheme": "timestep_fraction", "test_fraction": 0.5,
                               "val_fraction": 0.2}},
            "checkpoint": str(model_dir / "model.ckpt"),
            "eval": {"recon": True, "probe_embeddings": True, "probe_folds": 5}})
        eval_dir = tmp_path / "eval"
        assert main(["evaluate", "--config", eval_cfg, "--out", str(eval_dir)]) == 0
        probe = read_results(eval_dir)["metrics"]["embedding_probe"]
        assert probe["n_folds"] == 5 and 0.0 <= probe["mean"] <= 1.0

    def test_full_pipeline_commands(self, tmp_path):
        data, _ = synth_group_dataset(12, 60, 16, 4, 1.5, seed=8)
        data_path = tmp_path / "data.smds"
        save_dataset(data, data_path)

        train_cfg = {
            "seed": 4,
            "data": {"path": str(data_path),
                     "split": {"scheme": "first_second_half"}},
            "model": {"variant": "decomposed", "objective": "autoencoder",
                      "first_layer_width": 6, "latent_size": 2, "trunk_widths": [8]},
            "train": {"lr": 0.01, "epochs": 10, "batch_size": 32},
        }
        cfg = write_config(tmp_path / "train.json", train_cfg)
        model_dir = tmp_path / "model"
        assert main(["train", "--config", cfg, "--out", str(model_dir)]) == 0

        group_cfg = dict(train_cfg)
        group_cfg["model"] = dict(train_cfg["model"], variant="group")
        cfgg = write_config(tmp_path / "group.json", group_cfg)
        group_dir = tmp_path / "group"
        assert main(["train", "--config", cfgg, "--out", str(group_dir)]) == 0

        eval_cfg = {
            "seed": 4,
            "data": {"path": str(data_path), "split": {"scheme": "first_second_half"}},
            "checkpoint": str(model_dir / "model.ckpt"),
            "eval": {"recon": True,
                     "baseline_checkpoint": str(group_dir / "model.ckpt"),
                     "probe_subject_weights": True, "probe_folds": 4,
                     "subject_circle": True},
        }
        cfge = write_config(tmp_path / "eval.json", eval_cfg)
        eval_dir = tmp_path / "eval"
        assert main(["evaluate", "--config", cfge, "--out", str(eval_dir)]) == 0
        metrics = read_results(eval_dir)["metrics"]
        assert "test_mse" in metrics and "improvement_pct" in metrics
        assert "subject_weight_probe" in metrics
        assert "circle" in metrics
        assert (eval_dir / "subject_pca.csv").exists()

        analyze_cfg = {
            "seed": 4,
            "data": {"path": str(data_path)},
            "checkpoint": str(model_dir / "model.ckpt"),
            "analysis": {"k": 4},
        }
        cfga = write_config(tmp_path / "analyze.json", analyze_cfg)
        an_dir = tmp_path / "analysis"
        assert main(["analyze", "--config", cfga, "--out", str(an_dir)]) == 0
        metrics = read_results(an_dir)["metrics"]
        assert len(metrics["p_adjusted"]) == 4
        sources = load_dataset(an_dir / "sources.smds")
        assert sources.n_subjects == 4
        report_lines = (an_dir / "report.csv").read_text().splitlines()
        assert len(report_lines) == 5

        # unseen subjects for finetune: fresh draw from the same generator family
        new_data, _ = synth_group_dataset(4, 60, 16, 4, 1.5, seed=99)
        for rec in new_data.subjects:
            rec.subject_id = "new_" + rec.subject_id
        new_path = tmp_path / "new.smds"
        save_dataset(new_data, new_path)
        ft_cfg = {
            "seed": 4,
            "data": {"path": str(new_path)},
            "checkpoint": str(model_dir / "model.ckpt"),
            "baseline_checkpoint": str(group_dir / "model.ckpt"),
            "finetune": {"fraction": 0.1, "epochs": 30},
        }
        cfgf = write_config(tmp_path / "ft.json", ft_cfg)
        ft_dir = tmp_path / "ft"
        assert main(["finetune", "--config", cfgf, "--out", str(ft_dir)]) == 0
        metrics = read_results(ft_dir)["metrics"]
        assert metrics["frozen_digest_unchanged"] is True
        assert metrics["n_new_subjects"] == 4
        assert "baseline_mse" in metrics

    def test_subject_weight_probe_of_group_model_is_config_error(self, tmp_path, synth_file,
                                                                  capsys):
        # it used to probe the first rows of the shared weight matrix and exit 0
        cfg = write_config(tmp_path / "train.json",
                           train_config(synth_file, variant="group", epochs=1))
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "model")]) == 0
        cfge = write_config(tmp_path / "eval.json", {
            "data": {"path": str(synth_file)},
            "checkpoint": str(tmp_path / "model" / "model.ckpt"),
            "eval": {"recon": False, "probe_subject_weights": True, "probe_folds": 2},
        })
        capsys.readouterr()
        assert main(["evaluate", "--config", cfge, "--out", str(tmp_path / "eval")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "probe_subject_weights" in err
        assert not (tmp_path / "eval" / "results.json").exists()

    def test_finetune_fits_the_fraction_of_the_full_timeseries(self, tmp_path, capsys):
        # T=28, holdout 0.1: 25 rows precede the held-out tail; fraction 0.25 of
        # 28 is 7 rows, which a fraction-of-window round trip made 8
        data, _ = synth_group_dataset(4, 28, 8, 3, 1.0, seed=2)
        data_path = tmp_path / "data.smds"
        save_dataset(data, data_path)
        cfg = write_config(tmp_path / "train.json", train_config(data_path, epochs=1))
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "model")]) == 0
        new_data, _ = synth_group_dataset(2, 28, 8, 3, 1.0, seed=3)
        for rec in new_data.subjects:
            rec.subject_id = "new_" + rec.subject_id
        save_dataset(new_data, tmp_path / "new.smds")
        cfgf = write_config(tmp_path / "ft.json", {
            "data": {"path": str(tmp_path / "new.smds")},
            "checkpoint": str(tmp_path / "model" / "model.ckpt"),
            "finetune": {"fraction": 0.25, "holdout_fraction": 0.1, "epochs": 1,
                         "batch_size": 1},
        })
        ft_dir = tmp_path / "ft"
        assert main(["finetune", "--config", cfgf, "--out", str(ft_dir)]) == 0
        assert read_results(ft_dir)["metrics"]["n_finetune_timesteps"] == 7
        history = json.loads((ft_dir / "history.json").read_text())
        assert history["n_steps"] == 2 * 7  # one step per fitted row of each new subject

    @pytest.mark.parametrize("rows,named", [
        (["s000;0.5"], "row 2"),
        (["s000,0.5,1"], "row 2"),
        (["s000,abc"], "row 2"),
        (["s000,0.5", "s001,nan"], "row 3"),
        (["s000,0.5"], "'s001'"),
    ])
    def test_bad_angles_file_is_parse_error(self, tmp_path, capsys, rows, named):
        # each used to end in a raw ValueError or KeyError
        sim_cfg = write_config(tmp_path / "sim.json", {
            "seed": 2, "data": {"generator": "rotated_half_moons", "n_samples": 40,
                                "n_subjects": 4}})
        assert main(["simulate", "--config", sim_cfg, "--out", str(tmp_path / "sim")]) == 0
        data_path = tmp_path / "sim" / "data.smds"
        cfg = write_config(tmp_path / "train.json", train_config(data_path, epochs=1))
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "model")]) == 0
        (tmp_path / "angles.csv").write_text("\n".join(["subject_id,angle", *rows]) + "\n")
        cfge = write_config(tmp_path / "eval.json", {
            "data": {"path": str(data_path)},
            "checkpoint": str(tmp_path / "model" / "model.ckpt"),
            "eval": {"recon": False, "subject_circle": True,
                     "angles_path": str(tmp_path / "angles.csv")},
        })
        capsys.readouterr()
        assert main(["evaluate", "--config", cfge, "--out", str(tmp_path / "eval")]) == 2
        err = capsys.readouterr().err
        assert "ParseError" in err and "angles.csv" in err and named in err

    def test_finetune_on_registered_subjects_is_named_error(self, tmp_path, synth_file, capsys):
        cfg = write_config(tmp_path / "train.json", train_config(synth_file, epochs=1))
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "model")]) == 0
        cfgf = write_config(tmp_path / "ft.json", {
            "data": {"path": str(synth_file)},
            "checkpoint": str(tmp_path / "model" / "model.ckpt"),
            "finetune": {"epochs": 1},
        })
        capsys.readouterr()
        assert main(["finetune", "--config", cfgf, "--out", str(tmp_path / "ft")]) == 2
        assert "DuplicateSubject: subjects already registered" in capsys.readouterr().err

    def test_finetune_ragged_subject_lengths_exit_two(self, tmp_path, capsys):
        data, _ = synth_group_dataset(6, 40, 8, 3, 1.0, seed=2)
        data_path = tmp_path / "data.smds"
        save_dataset(data, data_path)
        cfg = write_config(tmp_path / "train.json", train_config(data_path, epochs=1))
        model_dir = tmp_path / "model"
        assert main(["train", "--config", cfg, "--out", str(model_dir)]) == 0

        new_data, _ = synth_group_dataset(2, 40, 8, 3, 1.0, seed=3)
        for rec in new_data.subjects:
            rec.subject_id = "new_" + rec.subject_id
        new_data.subjects[1] = new_data.subjects[1].take(np.arange(30))
        new_path = tmp_path / "new.smds"
        save_dataset(new_data, new_path)
        cfgf = write_config(tmp_path / "ft.json", {
            "data": {"path": str(new_path)},
            "checkpoint": str(model_dir / "model.ckpt"),
            "finetune": {"epochs": 1},
        })
        capsys.readouterr()
        assert main(["finetune", "--config", cfgf, "--out", str(tmp_path / "ft")]) == 2
        assert "ShapeMismatch" in capsys.readouterr().err
