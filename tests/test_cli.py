import csv
import ctypes
import json
import math
import mmap
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from subjmap import cli, datasets
from subjmap.checkpoint import load_model, save_model
from subjmap.cli import _load_config, _write_json, config_tables, main
from subjmap.datasets import (MultiSubjectDataset, SubjectData, _split_plan, half_moons,
                              load_dataset, rotate_subjects, save_dataset, split,
                              synth_group_dataset)
from subjmap.errors import ParseError
from subjmap.linalg import SeededRng
from subjmap.models import ModelSpec, build_model
from subjmap.training import TrainConfig, evaluate_loss, parameter_digest, train


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
        # these exited 0: no fold accuracies and a NaN mean, or every source
        # rejected (q 1.5) or none (q -1); each is checked before any file is read
        ("evaluate", "eval", "probe_folds", 0),
        ("evaluate", "eval", "probe_folds", -2),
        ("evaluate", "eval", "probe_folds", 1),
        ("analyze", "analysis", "q", 1.5),
        ("analyze", "analysis", "q", -1),
        ("analyze", "analysis", "q", 0),
        ("analyze", "analysis", "q", 1),
        # out-of-range training values: grad_clip -1 reversed every update and 0
        # froze every weight, patience 0 or -3 stopped after one epoch, beta1 1.0
        # ended in a NonFiniteError from the QR and 1.5 trained; all exited 0 or 2
        ("train", "train", "grad_clip", -1.0),
        ("train", "train", "grad_clip", 0),
        ("train", "train", "early_stop_patience", 0),
        ("train", "train", "early_stop_patience", -3),
        ("train", "train", "beta1", 1.0),
        ("train", "train", "beta1", 1.5),
        ("train", "train", "beta2", 1),
        ("train", "train", "eps", 0),
        ("train", "train", "orth_every", -1),
        ("sweep", "train", "grad_clip", -1.0),
    ])
    def test_bad_value_is_config_error(self, tmp_path, synth_file, capsys,
                                       command, section, key, value):
        payload = {
            "simulate": {"data": {"n_samples": 20, "n_subjects": 2}},
            "paramcount": {"paramcount": {"input_size": 4, "hidden_size": 2, "n_subjects": 3}},
            "analyze": {"data": {"path": str(synth_file)}, "checkpoint": "missing.ckpt"},
            "evaluate": {"data": {"path": str(synth_file)}, "checkpoint": "missing.ckpt",
                         "eval": {"probe_subject_weights": True}},
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


class TestChecksBeforeWork:
    @pytest.mark.parametrize("command", ["train", "sweep", "finetune"])
    def test_bad_train_option_exits_one_before_the_data_is_read(self, tmp_path, capsys,
                                                                  command):
        # lr -1 with a missing data file exited 2 with FileNotFoundError
        missing = tmp_path / "missing.smds"
        payload = {
            "train": train_config(missing),
            "sweep": dict(train_config(missing), sweep={"axes": {"epochs": [1]}, "seeds": [1]}),
            "finetune": {"data": {"path": str(missing)}, "checkpoint": "missing.ckpt"},
        }[command]
        payload.setdefault(command if command == "finetune" else "train", {})["lr"] = -1
        cfg = write_config(tmp_path / "c.json", payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(
            "config error: lr must be finite and positive, got -1")

    @pytest.mark.parametrize("split_values,message", [
        ({"test_fraction": 1.5}, "test_fraction must lie in (0, 1), got 1.5"),
        ({"test_fraction": 0}, "test_fraction must lie in (0, 1), got 0"),
        ({"val_fraction": 1.0}, "val_fraction must lie in [0, 1), got 1.0"),
        ({"test_fraction": 0.999}, "test_fraction 0.999 and val_fraction 0.2 leave degenerate "
                                   "split sizes (0, 0, 40) of 40 timesteps"),
        ({"scheme": "subject_holdout"}, "n_holdout 0 must lie in [1, 6)"),
        ({"scheme": "subject_holdout", "n_holdout": 6}, "n_holdout 6 must lie in [1, 6)"),
        ({"scheme": "bogus"}, "unknown split scheme 'bogus'"),
    ])
    def test_bad_split_value_is_config_error(self, tmp_path, synth_file, capsys,
                                             split_values, message):
        # each bad value exited 2 as a runtime InvalidFraction that did not name the key;
        # the unknown scheme is checked by split itself now, no longer by the CLI; a group
        # model, since train rejects subject_holdout for a decomposed one before any of these
        payload = train_config(synth_file, "group", epochs=1)
        payload["data"]["split"].update(split_values)
        cfg = write_config(tmp_path / "c.json", payload)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not (tmp_path / "out" / "model.ckpt").exists()

    @pytest.mark.parametrize("command", ["train", "sweep", "evaluate"])
    @pytest.mark.parametrize("split_values,message", [
        ({"scheme": "bogus"}, "unknown split scheme 'bogus'"),
        ({"test_fraction": 1.5}, "test_fraction must lie in (0, 1), got 1.5"),
        ({"val_fraction": -0.1}, "val_fraction must lie in [0, 1), got -0.1"),
    ])
    def test_bad_split_value_exits_one_before_the_data_is_read(self, tmp_path, capsys,
                                                               command, split_values, message):
        # with a missing data file each exited 2 with runtime error: FileNotFoundError
        payload = {
            "train": train_config(tmp_path / "missing.smds"),
            "sweep": dict(train_config(tmp_path / "missing.smds"),
                          sweep={"axes": {"epochs": [1]}, "seeds": [1]}),
            "evaluate": {"data": {"path": str(tmp_path / "missing.smds")},
                         "checkpoint": "missing.ckpt"},
        }[command]
        payload["data"].setdefault("split", {}).update(split_values)
        cfg = write_config(tmp_path / "c.json", payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    @pytest.mark.parametrize("split_values", [
        {"scheme": "first_second_half"}, {"scheme": "subject_holdout", "n_holdout": 1},
        {"scheme": "none"}, {"val_fraction": 0},
    ])
    def test_sweep_split_without_validation_set_exits_one_before_the_data_is_read(
            self, tmp_path, capsys, split_values):
        # with a missing data file each exited 2 with runtime error: FileNotFoundError
        payload = dict(train_config(tmp_path / "missing.smds"),
                       sweep={"axes": {"epochs": [1]}, "seeds": [1]})
        payload["data"]["split"].update(split_values)
        cfg = write_config(tmp_path / "c.json", payload)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(
            "config error: sweep needs a split scheme that produces a validation set")

    def test_sweep_validation_set_of_no_rows_is_config_error(self, tmp_path, synth_file,
                                                             capsys):
        payload = dict(train_config(synth_file), sweep={"axes": {"epochs": [1]}, "seeds": [1]})
        payload["data"]["split"]["val_fraction"] = 0.01  # 0.01 of 20 rows rounds to 0
        cfg = write_config(tmp_path / "c.json", payload)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(
            "config error: sweep needs a validation set; val_fraction gives it no rows")

    @pytest.mark.parametrize("command,values,message", [
        ("train", {"test_fraction": 0.999},
         "test_fraction 0.999 and val_fraction 0.1 leave degenerate split sizes"),
        ("train", {"scheme": "subject_holdout", "n_holdout": 6}, "n_holdout 6 must lie in [1, 6)"),
        ("evaluate", {"test_fraction": 0.999},
         "test_fraction 0.999 and val_fraction 0.1 leave degenerate split sizes"),
        ("finetune", {"holdout_fraction": 0}, "finetune.holdout_fraction 0 holds out none"),
        ("finetune", {"fraction": 0}, "finetune.fraction 0 leaves no timestep of 40"),
    ])
    def test_header_checks_exit_one_before_the_data_is_read(self, tmp_path, capsys, command,
                                                            values, message):
        # a NaN in the first subject fails the read with exit 2: each check fails first,
        # where the whole file used to be read before it
        data, _ = synth_group_dataset(6, 40, 8, 3, 1.0, seed=2)
        data.subjects[0].data[0, 0] = np.nan
        path = tmp_path / "nan.smds"
        save_dataset(data, path)
        payload = {
            "train": {"data": {"path": str(path), "split": {}},
                      "model": train_config(path, "group")["model"]},
            "evaluate": {"data": {"path": str(path), "split": {}}, "checkpoint": "missing.ckpt"},
            "finetune": {"data": {"path": str(path)}, "checkpoint": "missing.ckpt",
                         "finetune": {}},
        }[command]
        (payload["finetune"] if command == "finetune" else payload["data"]["split"]).update(values)
        cfg = write_config(tmp_path / "c.json", payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("workers", ["-2", "0"])
    def test_workers_below_one_exits_one_before_a_file_is_read(self, tmp_path, capsys, workers):
        # -2 ran the sweep serially and 0 meant the CPU count; both exited 0
        payload = dict(train_config(tmp_path / "missing.smds"),
                       sweep={"axes": {"epochs": [1]}, "seeds": [1]})
        cfg = write_config(tmp_path / "c.json", payload)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--workers", workers]) == 1
        assert capsys.readouterr().err == (f"config error: --workers must be at least 1, "
                                           f"got {workers}\n")

    @pytest.mark.parametrize("analysis,message", [
        # k 99 ran the whole traversal, then exited 2 with a ShapeError from the ICA
        ({"k": 99}, "analysis.k 99 exceeds the 88 traversal rows (subjects x latent_size x "
                    "grid_points) or the input width 12"),
        ({"k": 13}, "analysis.k 13 exceeds the 88 traversal rows"),
        ({"k": 9, "grid_points": 1}, "analysis.k 9 exceeds the 8 traversal rows"),
        ({"k": 0}, "analysis.k must be at least 1, got 0"),
        # grid_points 0 exited 2 with an error that blamed k
        ({"grid_points": 0}, "analysis.grid_points must be at least 1, got 0"),
        # max_iter 0 and tol -1 exited 0
        ({"max_iter": 0}, "analysis.max_iter must be at least 1, got 0"),
        ({"tol": -1}, "analysis.tol must be finite and at least 0, got -1"),
    ])
    def test_bad_analysis_value_exits_one_before_the_traversal(self, tmp_path, capsys,
                                                              monkeypatch, analysis, message):
        cfg = _analyze_config(tmp_path, analysis)
        monkeypatch.setattr(cli, "group_difference_pipeline",
                            lambda *args, **kwargs: pytest.fail("the traversal started"))
        capsys.readouterr()
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not (tmp_path / "out").exists()

    def test_edge_analysis_values_run(self, tmp_path):
        # tol 0 runs every iteration (the group_study benchmark's setting)
        cfg = _analyze_config(tmp_path, {"k": 2, "grid_points": 1, "max_iter": 1, "tol": 0})
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        metrics = read_results(tmp_path / "out")["metrics"]
        assert metrics["n_sources"] == 2 and metrics["ica_iterations"] == 1

    @pytest.mark.parametrize("values,key", [
        # n_samples 1 ended in a raw ValueError and n_subjects -2 or 0 in numpy's
        # "negative dimensions" or a ShapeError, each with exit 2
        ({"n_samples": 1}, "n_samples"),
        ({"n_subjects": -2}, "n_subjects"),
        ({"n_subjects": 0}, "n_subjects"),
        # a negative noise exited 0 and added no noise
        ({"noise": -0.1}, "noise"),
        ({"generator": "synth_group", "n_subjects": 3}, "n_subjects"),
        ({"generator": "synth_group", "n_subjects": 0}, "n_subjects"),
        ({"generator": "synth_group", "n_subjects": -2}, "n_subjects"),
        ({"generator": "synth_group", "trajectory_rank": 0}, "trajectory_rank"),
        # named trajectory_rank, not latent_dim
        ({"generator": "synth_group", "latent_dim": 0}, "latent_dim"),
        ({"generator": "synth_group", "latent_dim": 9}, "latent_dim"),
        # exited 0 and wrote a dataset with no rows
        ({"generator": "synth_group", "n_timesteps": 0}, "n_timesteps"),
        ({"generator": "synth_group", "noise_level": -0.05}, "noise_level"),
        ({"generator": "synth_group", "subject_scale": -0.3}, "subject_scale"),
    ])
    def test_out_of_range_simulate_value_is_config_error(self, tmp_path, capsys, values, key):
        data = {"n_samples": 20, "n_subjects": 4, "n_timesteps": 10, "n_features": 8,
                "latent_dim": 3, **values}
        cfg = write_config(tmp_path / "c.json", {"data": data})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {key} ")
        assert not (tmp_path / "out" / "data.smds").exists()


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


def _analyze_config(tmp_path, analysis):
    """An analyze config over 4 subjects of width 12 and an untrained 2-latent model."""
    data, _ = synth_group_dataset(4, 30, 12, 3, 1.0, seed=41)
    save_dataset(data, tmp_path / "data.smds")
    spec = ModelSpec("decomposed", "autoencoder", 12, 4, 2, 4, (6,))
    save_model(build_model(spec, 0, subject_ids=data.subject_ids), tmp_path / "model.ckpt")
    return write_config(tmp_path / "analyze.json", {
        "data": {"path": str(tmp_path / "data.smds")},
        "checkpoint": str(tmp_path / "model.ckpt"),
        "analysis": analysis,
    })


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

    @pytest.mark.parametrize("variant", ["subject", "decomposed"])
    def test_subject_holdout_of_a_per_subject_model_is_config_error(self, tmp_path, synth_file,
                                                                   capsys, monkeypatch, variant):
        # train validates on the held-out subjects; a decomposed model exited 2 with
        # UnknownSubject after its first epoch, since it has no weights for them
        payload = train_config(synth_file, variant, epochs=2)
        payload["data"]["split"] = {"scheme": "subject_holdout", "n_holdout": 2}
        cfg = write_config(tmp_path / "c.json", payload)
        capsys.readouterr()
        with monkeypatch.context() as patched:
            # the check reads only the config: it fails before the data file is opened
            patched.setattr(cli, "_load_parts_of", None)
            assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"config error: data.split.scheme 'subject_holdout' needs model.variant 'group': "
            f"train validates on the held-out subjects, and a {variant} model has no weights "
            f"for them\n")
        assert not (tmp_path / "out").exists()
        payload["model"]["variant"] = "group"
        cfg = write_config(tmp_path / "c.json", payload)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert read_results(tmp_path / "out")["metrics"]["test_loss"] > 0

    @pytest.mark.parametrize("objective", ["autoencoder", "classifier"])
    @pytest.mark.parametrize("scheme,passes", [("first_second_half", 0),
                                               ("subject_holdout", 0),
                                               ("timestep_fraction", 1)])
    def test_test_split_is_scored_once(self, tmp_path, monkeypatch, objective, scheme, passes):
        # without a validation set train validates on the test split: the best epoch's
        # pass is the test score, and the restored model scores the same on it
        samples, labels = half_moons(60, 0.1, 1)
        data, _ = rotate_subjects(samples, labels, 4, seed=3)
        path = tmp_path / "data.smds"
        save_dataset(data, path)
        split_section = {"scheme": scheme, "n_holdout": 1, "test_fraction": 0.5}
        payload = train_config(path, "group", epochs=6)
        payload["data"]["split"] = split_section
        payload["model"].update(objective=objective, first_layer_width=4)
        if objective == "classifier":
            payload["model"].update(n_classes=2)
        calls = []
        monkeypatch.setattr(cli, "evaluate_loss",
                            lambda *args: calls.append(1) or evaluate_loss(*args))
        cfg = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        assert len(calls) == passes
        metrics = read_results(out)["metrics"]
        model, _ = load_model(out / "model.ckpt")
        test_set = split(load_dataset(path), **split_section, seed=SeededRng(5).derive("split").seed)[2]
        value, terms = evaluate_loss(model, test_set)
        key, want = ("test_accuracy", terms["accuracy"]) if objective == "classifier" else (
            "test_loss", value)
        assert metrics[key] == want
        if passes == 0:
            history = json.loads((out / "history.json").read_text())
            best = metrics["best_epoch"]
            assert want == (history["val_metrics"] if key == "test_accuracy"
                            else history["val_losses"])[best]

    def test_failed_rerun_leaves_no_results(self, tmp_path, synth_file, monkeypatch, capsys):
        # the second run used to leave its own model.ckpt and history beside the
        # first run's results.json, which named the first run's config
        cfg = write_config(tmp_path / "c.json", train_config(synth_file, epochs=1))
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "results.json").exists()

        def fail(*args):
            raise RuntimeError("scoring failed")
        monkeypatch.setattr(cli, "evaluate_loss", fail)
        assert main(["train", "--config", cfg, "--out", str(out), "--seed", "9"]) == 2
        assert "RuntimeError: scoring failed" in capsys.readouterr().err
        assert (out / "model.ckpt").exists() and not (out / "results.json").exists()

    def test_env_var_out_dir(self, tmp_path, synth_file, monkeypatch):
        target = tmp_path / "via_env"
        monkeypatch.setenv("SUBJMAP_OUT", str(target))
        cfg = write_config(tmp_path / "c.json", train_config(synth_file, epochs=1))
        assert main(["train", "--config", cfg]) == 0
        assert (target / "results.json").exists()


class TestLoadSplitMemory:
    @pytest.mark.parametrize("scheme", ["first_second_half", "timestep_fraction",
                                        "subject_holdout"])
    def test_load_and_split_holds_the_partitions_and_one_subject(self, tmp_path, scheme):
        # the whole file used to be read into one block before the partitions were cut
        data, _ = synth_group_dataset(8, 64, 512, 3, 1.0, seed=4)
        path = tmp_path / "data.smds"
        save_dataset(data, path)
        payload = train_config(path)
        payload["data"]["split"] = {"scheme": scheme, "n_holdout": 2}
        config = cli._resolve(payload, cli._schema("train"))
        tracemalloc.start()
        try:
            parts = cli._load_split(config, tmp_path, SeededRng(5))[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(part.block.nbytes for part in parts if part is not None)
        assert held == data.block.nbytes
        assert peak <= 1.1 * (held + data.subjects[0].data.nbytes)


class TestReadsOnlyWhatIsUsed:
    def test_analyze_reads_the_headers_alone(self, tmp_path, monkeypatch, capsys):
        # analyze used to read the whole file (and copy it once more with data.center)
        cfg = _analyze_config(tmp_path, {"k": 2, "max_iter": 5})
        real = datasets._binary_source

        def headers_only(fh):
            source = real(fh)
            source.rows = lambda i, into: pytest.fail("analyze read a subject's rows")
            return source
        monkeypatch.setattr(datasets, "_binary_source", headers_only)
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert read_results(tmp_path / "out")["metrics"]["n_sources"] == 2
        # data.center had no effect once no row was read: the key is gone
        payload = json.loads(Path(cfg).read_text())
        payload["data"]["center"] = True
        write_config(Path(cfg), payload)
        capsys.readouterr()
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out2")]) == 1
        assert capsys.readouterr().err == "config error: unknown config key data.center\n"

    @pytest.mark.parametrize("scheme", ["first_second_half", "timestep_fraction",
                                        "subject_holdout", "none"])
    def test_evaluate_fills_only_the_scored_part(self, tmp_path, monkeypatch, scheme):
        # evaluate used to fill every partition of its split and score one
        data, _ = synth_group_dataset(6, 40, 8, 3, 1.0, seed=2)
        path = tmp_path / "data.smds"
        save_dataset(data, path)
        spec = ModelSpec("group", "autoencoder", 8, 4, 2, 6, (5,))
        save_model(build_model(spec, 0, subject_ids=data.subject_ids), tmp_path / "model.ckpt")
        cfg = write_config(tmp_path / "eval.json", {
            "seed": 3, "data": {"path": str(path), "split": {"scheme": scheme, "n_holdout": 2}},
            "checkpoint": str(tmp_path / "model.ckpt"), "eval": {}})
        filled, real = [], cli._load_parts

        def recording(*args):
            source, parts = real(*args)
            filled.extend(parts)
            return source, parts
        monkeypatch.setattr(cli, "_load_parts", recording)
        assert main(["evaluate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        train_set, _, test_set = split(load_dataset(path), scheme, n_holdout=2,
                                       seed=SeededRng(3).derive("split").seed)
        scored = test_set if test_set is not None else train_set
        assert len(filled) == 1
        assert filled[0].subject_ids == scored.subject_ids
        assert filled[0].block.tobytes() == scored.block.tobytes()
        model = load_model(tmp_path / "model.ckpt")[0]
        assert (read_results(tmp_path / "out")["metrics"]["test_mse"]
                == evaluate_loss(model, scored)[1]["mse"])


# the narrowest rows the loader streams: one page of float64 each (512 at 4 KiB pages)
WIDE = mmap.PAGESIZE // 8


def _wide_file(path, prefix="g", n_subjects=6, n_timesteps=24, n_features=WIDE):
    """A packed file of rows ``n_features`` wide, labelled row index mod 2; returns its dataset."""
    data, _ = synth_group_dataset(n_subjects, n_timesteps, n_features, 3, 1.0, seed=11)
    data = MultiSubjectDataset([SubjectData(f"{prefix}{i}", rec.data, np.arange(n_timesteps) % 2,
                                            rec.group) for i, rec in enumerate(data.subjects)])
    save_dataset(data, path)
    return data


def _held_load_parts(path, fmt, plan, center=False):
    """The loader's partitions held: ``load_dataset``, then the filler ``split`` runs."""
    source = datasets._held(load_dataset(path, fmt))
    return source, datasets._fill(source, plan(source.records), center)


def _same_outputs(streamed: Path, held: Path) -> None:
    """The two runs' metrics, history and parameters are equal, bit for bit."""
    assert read_results(streamed)["metrics"] == read_results(held)["metrics"]
    if (held / "history.json").exists():
        histories = [json.loads((out / "history.json").read_text()) for out in (streamed, held)]
        for history in histories:
            del history["wall_clock_seconds"]
        assert histories[0] == histories[1]
    if (held / "model.ckpt").exists():
        assert (parameter_digest(load_model(streamed / "model.ckpt")[0])
                == parameter_digest(load_model(held / "model.ckpt")[0]))
    if (held / "sweep.csv").exists():
        assert (streamed / "sweep.csv").read_bytes() == (held / "sweep.csv").read_bytes()


class TestStreamedPartitions:
    """Commands on a packed file with rows a page wide read each batch and block from the file."""

    def run_both(self, tmp_path, monkeypatch, command, payload, *args) -> None:
        """Run ``command`` with streamed partitions, then held ones, and compare the outputs."""
        cfg = write_config(tmp_path / f"{command}.json", payload)
        argv = [command, "--config", cfg, *args, "--out"]
        kinds, real = [], cli._load_parts

        def recording(*args):
            source, parts = real(*args)
            kinds.extend(type(part.block) for part in parts if part is not None)
            return source, parts
        with monkeypatch.context() as patched:
            patched.setattr(cli, "_load_parts", recording)
            assert main([*argv, str(tmp_path / "streamed")]) == 0
        assert kinds and set(kinds) == {datasets._PackedRows}
        with monkeypatch.context() as patched:
            patched.setattr(cli, "_load_parts", _held_load_parts)
            assert main([*argv, str(tmp_path / "held")]) == 0
        _same_outputs(tmp_path / "streamed", tmp_path / "held")

    @pytest.mark.parametrize("scheme,keys,variant", [
        ("timestep_fraction", {"test_fraction": 0.5, "val_fraction": 0.2}, "decomposed"),
        ("first_second_half", {}, "decomposed"),
        ("subject_holdout", {"n_holdout": 2}, "group"),
        ("none", {}, "decomposed"),
    ])
    def test_train_matches_the_held_load(self, tmp_path, monkeypatch, scheme, keys, variant):
        _wide_file(tmp_path / "data.smds")
        payload = train_config(tmp_path / "data.smds", variant, epochs=3)
        payload["data"]["split"] = {"scheme": scheme, **keys}
        self.run_both(tmp_path, monkeypatch, "train", payload)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_sweep_matches_the_held_load(self, tmp_path, monkeypatch, workers):
        # two workers get the partitions pickled: a streamed one arrives as a held copy
        _wide_file(tmp_path / "data.smds")
        payload = train_config(tmp_path / "data.smds", epochs=2)
        payload["sweep"] = {"axes": {"lr": [0.01, 0.003]}, "seeds": [1, 2]}
        self.run_both(tmp_path, monkeypatch, "sweep", payload, "--workers", workers)

    def test_finetune_matches_the_held_load(self, tmp_path, monkeypatch):
        seen = _wide_file(tmp_path / "seen.smds")
        _wide_file(tmp_path / "new.smds", prefix="new", n_subjects=2)
        spec = ModelSpec("decomposed", "autoencoder", WIDE, 3, 2, seen.n_subjects, (6,))
        save_model(build_model(spec, 0, subject_ids=seen.subject_ids), tmp_path / "model.ckpt")
        self.run_both(tmp_path, monkeypatch, "finetune", {
            "seed": 3, "data": {"path": str(tmp_path / "new.smds")},
            "checkpoint": str(tmp_path / "model.ckpt"),
            "finetune": {"fraction": 0.25, "holdout_fraction": 0.5, "epochs": 4,
                         "batch_size": 8}})

    def test_evaluate_matches_the_held_load(self, tmp_path, monkeypatch):
        data = _wide_file(tmp_path / "data.smds")
        spec = ModelSpec("decomposed", "autoencoder", WIDE, 3, 2, data.n_subjects, (6,))
        save_model(build_model(spec, 0, subject_ids=data.subject_ids), tmp_path / "model.ckpt")
        self.run_both(tmp_path, monkeypatch, "evaluate", {
            "seed": 3, "data": {"path": str(tmp_path / "data.smds"),
                                "split": {"scheme": "timestep_fraction", "test_fraction": 0.5,
                                          "val_fraction": 0.2}},
            "checkpoint": str(tmp_path / "model.ckpt"),
            "eval": {"recon": True, "probe_embeddings": True, "probe_folds": 3}})

    def test_narrower_rows_and_centred_loads_are_held(self, tmp_path):
        cut = lambda records: [_split_plan("first_second_half")[0](records, 0)[0]]
        _wide_file(tmp_path / "narrow.smds", n_features=WIDE - 1)
        _wide_file(tmp_path / "wide.smds")
        for name, center, kind in [("narrow", False, np.ndarray),
                                   ("wide", True, np.ndarray),
                                   ("wide", False, datasets._PackedRows)]:
            section = {"path": f"{name}.smds", "format": "binary", "center": center}
            assert type(cli._load_parts_of(section, tmp_path, cut)[1][0].block) is kind

    def test_load_and_train_trace_less_than_half_the_data(self, tmp_path):
        # every partition was a copy: the trace peaked above the whole 32 MiB block
        data = _wide_file(tmp_path / "data.smds", n_subjects=8, n_timesteps=128, n_features=4096)
        payload = train_config(tmp_path / "data.smds", epochs=1)
        payload["data"]["split"] = {"scheme": "first_second_half"}
        config = cli._resolve(payload, cli._schema("train"))
        spec = ModelSpec("decomposed", "autoencoder", 4096, 3, 2, data.n_subjects, (6,))
        tracemalloc.start()
        try:
            train_set, _, test_set = cli._load_split(config, tmp_path, SeededRng(5))[1]
            model = build_model(spec, 0, subject_ids=train_set.subject_ids)
            train(model, train_set, test_set, TrainConfig(lr=0.01, epochs=1, batch_size=32))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < data.block.nbytes / 2

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="needs Linux's RLIMIT_DATA and /proc/self/status")
    def test_train_runs_in_less_memory_than_its_data(self, tmp_path):
        # the data limit leaves half the 32 MiB block above what the imports took: the
        # held partitions needed the whole block and ended in a MemoryError (exit 2)
        data = _wide_file(tmp_path / "data.smds", n_subjects=8, n_timesteps=128, n_features=4096)
        payload = train_config(tmp_path / "data.smds", epochs=1)
        payload["data"]["split"] = {"scheme": "first_second_half"}
        payload["train"]["batch_size"] = 32
        cfg = write_config(tmp_path / "c.json", payload)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join([str(Path(cli.__file__).parents[1]),
                                             env.get("PYTHONPATH", "")])
        done = subprocess.run([sys.executable, "-c", _RLIMIT_CHILD, str(data.block.nbytes // 2),
                               "train", "--config", cfg, "--out", str(tmp_path / "out")],
                              capture_output=True, text=True, env=env, timeout=300)
        assert done.returncode == 0, done.stderr
        assert math.isfinite(read_results(tmp_path / "out")["metrics"]["test_loss"])

    def test_file_truncated_after_the_load_is_parse_error(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "data.smds"
        data = _wide_file(path)
        cut = _split_plan("first_second_half")[0]
        train_set, _, test_set = datasets._load_parts(path, "binary",
                                                      lambda records: cut(records, 0))[1]
        os.truncate(path, path.stat().st_size // 2)
        spec = ModelSpec("decomposed", "autoencoder", WIDE, 3, 2, data.n_subjects, (6,))
        model = build_model(spec, 0, subject_ids=data.subject_ids)
        with pytest.raises(ParseError, match="was truncated"):
            train(model, train_set, test_set, TrainConfig(epochs=1, batch_size=16))

        save_dataset(data, path)
        real = cli._load_parts

        def truncating(*args):
            loaded = real(*args)
            os.truncate(path, path.stat().st_size // 2)
            return loaded
        monkeypatch.setattr(cli, "_load_parts", truncating)
        cfg = write_config(tmp_path / "c.json", train_config(path, epochs=1))
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "ParseError: packed dataset" in capsys.readouterr().err
        assert not (tmp_path / "out" / "results.json").exists()


# run in a fresh process: the data limit is what the imports (and BLAS's buffers) took,
# plus argv[1] bytes; argv[2:] is the command
_RLIMIT_CHILD = """
import resource, sys
import numpy as np
from subjmap import cli

np.ones((256, 256)) @ np.ones((256, 256))  # BLAS takes its buffers at its first call
with open("/proc/self/status") as fh:
    vm_data = next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmData:"))
limit = vm_data + int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_DATA, (limit, resource.getrlimit(resource.RLIMIT_DATA)[1]))
sys.exit(cli.main(sys.argv[2:]))
"""


class TestCsvManifestLoads:
    def test_headers_hold_no_subject(self, tmp_path):
        # every CSV used to be parsed when the manifest was opened: 6.0 MiB for 3.1 MiB of data
        rng = SeededRng(3)
        entries = []
        for i in range(8):
            np.savetxt(tmp_path / f"s{i}.csv", rng.normal((200, 256)), delimiter=",")
            entries.append({"subject_id": f"s{i}", "csv_path": f"s{i}.csv"})
        (tmp_path / "manifest.json").write_text(json.dumps({"subjects": entries}))
        section = {"path": "manifest.json", "format": "csv", "center": False}
        tracemalloc.start()
        try:
            source = cli._load_parts_of(section, tmp_path, lambda records: [])[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert source.subject_ids == [f"s{i}" for i in range(8)] and source.n_features == 256
        assert peak < 200 * 256 * 8

    def test_bad_float_is_parse_error_when_its_rows_are_read(self, tmp_path):
        (tmp_path / "a.csv").write_text("1,2\n3,4\n")
        (tmp_path / "b.csv").write_text("1,2\n3,x\n")
        (tmp_path / "manifest.json").write_text(json.dumps({"subjects": [
            {"subject_id": "a", "csv_path": "a.csv"}, {"subject_id": "b", "csv_path": "b.csv"}]}))
        section = {"path": "manifest.json", "format": "csv", "center": False}
        assert cli._load_parts_of(section, tmp_path, lambda records: [])[0].subject_ids == ["a", "b"]
        with pytest.raises(ParseError, match=r"b\.csv: could not convert string to float: 'x'"):
            cli._load_parts_of(section, tmp_path, lambda records: [datasets._ALL])


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

    @pytest.mark.parametrize("affinity,pools", [({0}, []), ({0, 2}, [(2, (1,))]),
                                                ({0, 1, 2, 3, 4, 5, 6}, [(3, (2,))])])
    def test_default_workers_are_the_cpus_this_process_may_run_on(
            self, tmp_path, synth_file, monkeypatch, inline_pools, affinity, pools):
        # the default was os.cpu_count(), whatever CPUs the process was confined to
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        payload = train_config(synth_file, epochs=1)
        payload["sweep"] = {"axes": {"lr": [0.01, 0.02, 0.03]}, "seeds": [1]}
        cfg = write_config(tmp_path / "c.json", payload)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert [(pool.max_workers, pool.initargs) for pool in inline_pools] == pools


    def test_out_of_range_axis_value_fails_its_rows_alone(self, tmp_path, synth_file):
        payload = train_config(synth_file, epochs=1)
        payload["sweep"] = {"axes": {"grad_clip": [-1.0, 1.0]}, "seeds": [1]}
        cfg = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--workers", "1"]) == 0
        assert read_results(out)["metrics"]["n_errors"] == 1
        with (out / "sweep.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["error"].startswith("ConfigError: grad_clip")
        assert rows[1]["error"] == ""

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


# run in a fresh process: allocate and free a 64 MiB array after `import subjmap`
# and again after `cli.main`, reading glibc's mallinfo2 while it is live and freed
_MALLINFO_CHILD = """
import ctypes, json, sys
import numpy as np
from subjmap import cli

class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks", "uordblks",
        "fordblks", "keepcost")]

libc = ctypes.CDLL(None)
libc.mallinfo2.restype = Mallinfo2

def alloc_and_free():
    before = libc.mallinfo2()
    array = np.ones(64 << 20, dtype=np.uint8)
    live = libc.mallinfo2()
    del array
    return {"new_mmapped": live.hblkhd - before.hblkhd, "live_arena": live.arena,
            "freed_arena": libc.mallinfo2().arena}

after_import = alloc_and_free()
code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "after_import": after_import, "after_main": alloc_and_free()}))
"""


def _glibc_with_mallinfo2():
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return False
    return hasattr(libc, "mallopt") and hasattr(libc, "mallinfo2")


class TestAllocatorPolicy:
    @pytest.mark.skipif(not _glibc_with_mallinfo2(), reason="needs glibc's mallopt and mallinfo2")
    def test_main_keeps_freed_memory_in_the_heap(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "paramcount": {"input_size": 10, "hidden_size": 2, "n_subjects": 3}})
        env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
        env["PYTHONPATH"] = os.pathsep.join([str(Path(cli.__file__).parents[1]),
                                             env.get("PYTHONPATH", "")])
        done = subprocess.run([sys.executable, "-c", _MALLINFO_CHILD, "paramcount",
                               "--config", cfg, "--out", str(tmp_path / "out")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        probe = json.loads(done.stdout.splitlines()[-1])
        assert probe["code"] == 0
        # importing the package leaves glibc's defaults: a 64 MiB array is mmap'd
        assert probe["after_import"]["new_mmapped"] >= 64 << 20
        # after cli.main the array comes from the heap, which keeps it once freed
        after = probe["after_main"]
        assert after["new_mmapped"] == 0
        assert after["live_arena"] >= 64 << 20
        assert after["freed_arena"] >= after["live_arena"]

    @pytest.mark.parametrize("lookup", [OSError("no libc"),  # no libc by that name
                                        TypeError("CDLL(None)"),  # Windows
                                        object()],  # a libc without mallopt: macOS
                             ids=["no-libc", "windows", "no-mallopt"])
    def test_a_libc_without_mallopt_is_left_alone(self, tmp_path, monkeypatch, lookup):
        def cdll(name):
            if isinstance(lookup, Exception):
                raise lookup
            return lookup

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        cfg = write_config(tmp_path / "c.json", {
            "paramcount": {"input_size": 10, "hidden_size": 2, "n_subjects": 3}})
        assert main(["paramcount", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert read_results(tmp_path / "out")["metrics"]["counts"]["group"] == 40


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
        assert not (tmp_path / "eval" / "subject_pca.csv").exists()

    def test_finetune_and_evaluate_score_the_held_out_half_alike(self, tmp_path, synth_file):
        # T=40: holdout_fraction 0.5 holds out the rows first_second_half tests on
        for name, variant in (("model", "decomposed"), ("group", "group")):
            cfg = write_config(tmp_path / f"{name}.json", train_config(synth_file, variant))
            assert main(["train", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        new_data, _ = synth_group_dataset(2, 40, 8, 3, 1.0, seed=3)
        for rec in new_data.subjects:
            rec.subject_id = "new_" + rec.subject_id
        save_dataset(new_data, tmp_path / "new.smds")
        baseline = str(tmp_path / "group" / "model.ckpt")
        cfgf = write_config(tmp_path / "ft.json", {
            "data": {"path": str(tmp_path / "new.smds")},
            "checkpoint": str(tmp_path / "model" / "model.ckpt"),
            "baseline_checkpoint": baseline,
            "finetune": {"fraction": 0.25, "holdout_fraction": 0.5, "epochs": 3},
        })
        assert main(["finetune", "--config", cfgf, "--out", str(tmp_path / "ft")]) == 0
        cfge = write_config(tmp_path / "eval.json", {
            "data": {"path": str(tmp_path / "new.smds"),
                     "split": {"scheme": "first_second_half"}},
            "checkpoint": str(tmp_path / "ft" / "model.ckpt"),
            "eval": {"recon": True, "baseline_checkpoint": baseline},
        })
        assert main(["evaluate", "--config", cfge, "--out", str(tmp_path / "eval")]) == 0
        tuned = read_results(tmp_path / "ft")["metrics"]
        scored = read_results(tmp_path / "eval")["metrics"]
        assert tuned["heldout_mse"] == scored["test_mse"]
        assert tuned["baseline_mse"] == scored["baseline_mse"]
        assert tuned["improvement_pct"] == scored["improvement_pct"]

    @pytest.mark.parametrize("command", ["evaluate", "finetune", "analyze"])
    def test_classifier_without_reconstruction_is_config_error(self, tmp_path, capsys, command):
        # a classifier baseline ended in MissingLabels, a fine-tuned classifier in
        # "classifier models have no decoder" and an analyzed one in GroupCountError
        # (or, on data with two groups, "latent traversal needs a decoding objective"),
        # each with exit 2
        def labelled(prefix, seed):
            samples, labels = half_moons(40, 0.1, seed)
            data, _ = rotate_subjects(samples, labels, 3, seed=seed)
            for rec in data.subjects:
                rec.subject_id = prefix + rec.subject_id
            save_dataset(data, tmp_path / f"{prefix}data.smds")
            return data

        seen = labelled("", 1)
        labelled("new_", 2)
        for name, objective in (("model", "autoencoder"), ("clf", "classifier")):
            spec = ModelSpec("decomposed", objective, 2, 4, 2, 3, (6,),
                             n_classes=2 if objective == "classifier" else None)
            save_model(build_model(spec, 0, subject_ids=seen.subject_ids),
                       tmp_path / f"{name}.ckpt")
        if command == "evaluate":
            payload = {"data": {"path": str(tmp_path / "data.smds")},
                       "checkpoint": str(tmp_path / "model.ckpt"),
                       "eval": {"baseline_checkpoint": str(tmp_path / "clf.ckpt")}}
            named = "baseline_mse"
        elif command == "analyze":
            payload = {"data": {"path": str(tmp_path / "data.smds")},
                       "checkpoint": str(tmp_path / "clf.ckpt"), "analysis": {"k": 1}}
            named = "analyze"
        else:
            payload = {"data": {"path": str(tmp_path / "new_data.smds")},
                       "checkpoint": str(tmp_path / "clf.ckpt"), "finetune": {"epochs": 1}}
            named = "heldout_mse"
        cfg = write_config(tmp_path / "c.json", payload)
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err
        assert not (tmp_path / "out" / "results.json").exists()

    @pytest.mark.parametrize("checkpoint,baseline,code,message", [
        ("clf.ckpt", None, 1, "config error: heldout_mse needs a checkpoint that reconstructs"),
        ("model.ckpt", "clf.ckpt", 1,
         "config error: baseline_mse needs a checkpoint that reconstructs"),
        ("model.ckpt", "missing.ckpt", 2, "runtime error: FileNotFoundError"),
    ])
    def test_finetune_checks_checkpoints_before_fine_tuning(self, tmp_path, capsys, monkeypatch,
                                                            checkpoint, baseline, code, message):
        # each case used to fail only after every fine-tuning epoch had run
        monkeypatch.setattr(cli, "finetune_subjects",
                            lambda *args: pytest.fail("fine-tuning ran before the checks"))
        new_data, _ = synth_group_dataset(2, 40, 8, 3, 1.0, seed=3)
        for rec in new_data.subjects:
            rec.subject_id = "new_" + rec.subject_id
        save_dataset(new_data, tmp_path / "new.smds")
        for name, objective in (("model", "autoencoder"), ("clf", "classifier")):
            spec = ModelSpec("decomposed", objective, 8, 4, 2, 3, (6,),
                             n_classes=2 if objective == "classifier" else None)
            save_model(build_model(spec, 0, subject_ids=["s0", "s1", "s2"]),
                       tmp_path / f"{name}.ckpt")
        cfg = write_config(tmp_path / "ft.json", {
            "data": {"path": str(tmp_path / "new.smds")},
            "checkpoint": str(tmp_path / checkpoint),
            "baseline_checkpoint": baseline and str(tmp_path / baseline),
            "finetune": {"epochs": 1},
        })
        capsys.readouterr()
        assert main(["finetune", "--config", cfg, "--out", str(tmp_path / "ft")]) == code
        assert capsys.readouterr().err.startswith(message)
        assert not (tmp_path / "ft" / "results.json").exists()

    def test_finetune_of_group_checkpoint_is_no_subject_weights(self, tmp_path, synth_file,
                                                               capsys):
        spec = ModelSpec("group", "autoencoder", 8, 4, 2, 6, (6,))
        save_model(build_model(spec, 0, subject_ids=load_dataset(synth_file).subject_ids),
                   tmp_path / "group.ckpt")
        new_data, _ = synth_group_dataset(2, 40, 8, 3, 1.0, seed=3)
        for rec in new_data.subjects:
            rec.subject_id = "new_" + rec.subject_id
        save_dataset(new_data, tmp_path / "new.smds")
        cfg = write_config(tmp_path / "ft.json", {
            "data": {"path": str(tmp_path / "new.smds")},
            "checkpoint": str(tmp_path / "group.ckpt"),
            "finetune": {"epochs": 1},
        })
        capsys.readouterr()
        assert main(["finetune", "--config", cfg, "--out", str(tmp_path / "ft")]) == 2
        assert capsys.readouterr().err.startswith("runtime error: NoSubjectWeights:")
        assert not (tmp_path / "ft" / "results.json").exists()

    def test_analyze_of_one_group_dataset_is_group_count_error(self, tmp_path, capsys):
        data, _ = synth_group_dataset(4, 30, 8, 3, 0.0, seed=41)
        for rec in data.subjects:
            rec.group = 0
        save_dataset(data, tmp_path / "data.smds")
        spec = ModelSpec("decomposed", "autoencoder", 8, 4, 2, 4, (6,))
        save_model(build_model(spec, 0, subject_ids=data.subject_ids), tmp_path / "model.ckpt")
        cfg = write_config(tmp_path / "analyze.json", {
            "data": {"path": str(tmp_path / "data.smds")},
            "checkpoint": str(tmp_path / "model.ckpt"),
            "analysis": {"k": 3},
        })
        capsys.readouterr()
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "analysis")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: GroupCountError: need exactly two groups")
        assert not (tmp_path / "analysis" / "results.json").exists()

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
        rec = new_data.subjects[1]
        new_data.subjects[1] = SubjectData(rec.subject_id, rec.data[:30], None, rec.group)
        new_path = tmp_path / "new.smds"
        save_dataset(new_data, new_path)
        cfgf = write_config(tmp_path / "ft.json", {
            "data": {"path": str(new_path)},
            "checkpoint": str(model_dir / "model.ckpt"),
            "finetune": {"epochs": 1},
        })
        capsys.readouterr()
        assert main(["finetune", "--config", cfgf, "--out", str(tmp_path / "ft")]) == 2
        assert ("runtime error: ShapeError: timestep split needs equal lengths, got [30, 40]"
                in capsys.readouterr().err)
