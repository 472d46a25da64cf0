import ctypes
import hashlib
import math
import os
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from subjmap.datasets import (MultiSubjectDataset, SubjectData, synth_group_dataset, stacked,
                              _take_all)
from subjmap import training
from subjmap.cli import _write_csv, _write_history
from subjmap.errors import (ConfigError, DivergenceError, EmptySubset, MissingLabels,
                            NoSubjectWeights, ShapeError, SweepFailed)
from subjmap.linalg import SeededRng
from subjmap.models import Model, ModelSpec, build_model, decode, encode, loss, loss_and_grads
from subjmap.maps import GroupMap
from subjmap.models import DenseLayer
from subjmap.training import (
    Adam,
    Sgd,
    TrainConfig,
    add_subjects,
    encode_dataset,
    evaluate_loss,
    finetune_subjects,
    grad_check,
    hyperparameter_sweep,
    parameter_digest,
    train,
)


def toy_dataset(seed=0, n_subjects=3, t=40, n=6, labelled=True):
    rng = SeededRng(seed)
    subjects = []
    for i in range(n_subjects):
        data = rng.normal((t, n))
        labels = rng.integers(0, 2, t) if labelled else None
        subjects.append(SubjectData(f"s{i}", data, labels, i % 2))
    return MultiSubjectDataset(subjects, {"n_features": n})


def toy_spec(variant="decomposed", objective="autoencoder", n=6, **kw):
    defaults = dict(variant=variant, objective=objective, input_size=n,
                    first_layer_width=4, latent_size=2, n_subjects=3, trunk_widths=(5,))
    defaults.update(kw)
    if objective == "classifier":
        defaults.setdefault("n_classes", 2)
        defaults["latent_size"] = defaults["n_classes"]
    return ModelSpec(**defaults)


class TestTrainLoop:
    def test_zero_epochs_returns_initial_model(self):
        data = toy_dataset(labelled=False)
        model = build_model(toy_spec(), seed=1, subject_ids=data.subject_ids)
        before = {k: v.copy() for k, v in model.params().items()}
        model, history = train(model, data, data, TrainConfig(epochs=0, seed=0))
        assert history.n_epochs == 0
        assert all(np.array_equal(before[k], v) for k, v in model.params().items())

    def test_same_seed_identical_history(self):
        data = toy_dataset(labelled=False)
        cfg = TrainConfig(lr=0.01, epochs=5, batch_size=16, seed=9)
        histories = []
        for _ in range(2):
            model = build_model(toy_spec(), seed=1, subject_ids=data.subject_ids)
            _, h = train(model, data, data, cfg)
            histories.append(h)
        assert histories[0].train_losses == histories[1].train_losses
        assert histories[0].val_losses == histories[1].val_losses

    @pytest.mark.parametrize("variant", ["decomposed", "group"])
    def test_a_step_holds_the_batch_and_this_steps_gradients(self, variant):
        # the squared residual was a third B x N array, and the last step's
        # gradients (per parameter and flat) lived on through the next step
        n, batch = 8192, 64
        train_set = toy_dataset(n_subjects=2, t=96, n=n, labelled=False)
        val_set = toy_dataset(seed=1, n_subjects=2, t=8, n=n, labelled=False)
        spec = toy_spec(variant, n=n, first_layer_width=16, n_subjects=2, trunk_widths=(16,))
        model = build_model(spec, seed=3, subject_ids=train_set.subject_ids)
        param_bytes = sum(arr.nbytes for arr in model.params().values())
        tracemalloc.start()
        try:
            train(model, train_set, val_set, TrainConfig(epochs=3, batch_size=batch, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # batch and residual; Adam's m, v and update, the best snapshot, the gradients
        assert peak < 2 * (batch * n * 8) + 6 * param_bytes

    def test_orthonormality_maintained(self):
        data = toy_dataset(labelled=False)
        model = build_model(toy_spec(), seed=2, subject_ids=data.subject_ids)
        model, _ = train(model, data, data,
                         TrainConfig(lr=0.05, epochs=8, batch_size=8, seed=1, orth_every=1))
        for dmap in model.decomposed_maps():
            assert np.abs(dmap.u.T @ dmap.u - np.eye(dmap.n_hidden)).max() < 1e-8

    def test_divergence_reports_step(self):
        data = toy_dataset(labelled=False)
        model = build_model(toy_spec(), seed=3, subject_ids=data.subject_ids)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
            train(model, data, data, TrainConfig(lr=1e12, optimizer="sgd", epochs=50,
                                                 batch_size=8, seed=0))
        assert err.value.step >= 0

    def test_loss_decreases_over_first_steps(self):
        data = toy_dataset(labelled=False, t=120)
        model = build_model(toy_spec(), seed=4, subject_ids=data.subject_ids)
        _, h = train(model, data, data, TrainConfig(lr=0.01, epochs=10, batch_size=32, seed=2,
                                                    early_stop_patience=None))
        assert h.train_losses[-1] < h.train_losses[0]

    def test_classifier_history_tracks_accuracy(self):
        data = toy_dataset()
        model = build_model(toy_spec(objective="classifier"), seed=5,
                            subject_ids=data.subject_ids)
        _, h = train(model, data, data, TrainConfig(lr=0.01, epochs=3, batch_size=16, seed=0))
        assert all(m is not None and 0.0 <= m <= 1.0 for m in h.val_metrics)

    def test_history_csv_roundtrip(self, tmp_path):
        data = toy_dataset(labelled=False)
        model = build_model(toy_spec(), seed=1, subject_ids=data.subject_ids)
        _, h = train(model, data, data, TrainConfig(lr=0.01, epochs=3, batch_size=16, seed=0))
        _write_history(tmp_path, h)
        lines = (tmp_path / "history.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,metric"
        assert len(lines) == 1 + h.n_epochs


class TestGradClip:
    @staticmethod
    def norm(g):
        return math.sqrt(sum(float(v) * float(v) for v in g))

    def test_above_max_norm_rescaled_to_it(self):
        g = SeededRng(4).normal(17)
        total = self.norm(g)
        original = g.copy()
        training.clip_gradients(g, total / 3)
        assert self.norm(g) == pytest.approx(total / 3, rel=1e-14)
        np.testing.assert_allclose(g * 3, original, rtol=1e-14)  # the direction is kept

    def test_below_max_norm_byte_equal(self):
        g = SeededRng(4).normal(17)
        original = g.copy()
        training.clip_gradients(g, self.norm(g) * 1.01)
        assert g.tobytes() == original.tobytes()

    def test_loose_clip_reproduces_unclipped_training(self):
        data = toy_dataset(labelled=False)
        runs = []
        for grad_clip in (None, 1e6):
            model = build_model(toy_spec(), seed=1, subject_ids=data.subject_ids)
            _, history = train(model, data, data,
                               TrainConfig(lr=0.01, epochs=4, batch_size=16, seed=2,
                                           grad_clip=grad_clip))
            runs.append((history.train_losses, history.val_losses, parameter_digest(model)))
        assert runs[0] == runs[1]

    def test_tight_clip_changes_training(self):
        data = toy_dataset(labelled=False)
        losses = []
        for grad_clip in (None, 1e-3):
            model = build_model(toy_spec(), seed=1, subject_ids=data.subject_ids)
            _, history = train(model, data, data,
                               TrainConfig(lr=0.01, epochs=2, batch_size=16, seed=2,
                                           optimizer="sgd", grad_clip=grad_clip))
            losses.append(history.train_losses)
        assert losses[0] != losses[1]


class TestConfigRanges:
    # each was accepted: grad_clip -1 reversed every update and 0 froze every
    # weight, patience 0 or -3 stopped after one epoch, beta1 1.0 ended in a
    # NonFiniteError from the QR and beta1 1.5 trained without complaint; an
    # infinite lr or eps ended in a raw ValueError from the config digest
    @pytest.mark.parametrize("key,value", [
        ("grad_clip", -1.0), ("grad_clip", 0.0), ("grad_clip", math.inf),
        ("grad_clip", math.nan), ("early_stop_patience", 0), ("early_stop_patience", -3),
        ("early_stop_patience", 2.5), ("beta1", 1.0), ("beta1", 1.5), ("beta1", -0.1),
        ("beta2", 1.0), ("beta2", math.nan), ("eps", 0.0), ("eps", -1e-8), ("eps", math.inf),
        ("lr", math.inf), ("lr", math.nan),
        ("orth_every", -1), ("orth_every", 1.5),
    ])
    def test_out_of_range_value_is_config_error(self, key, value):
        with pytest.raises(ConfigError, match=key):
            TrainConfig(**{key: value})

    def test_edge_values_accepted(self):
        TrainConfig(grad_clip=1e-12, early_stop_patience=1, beta1=0.0, beta2=0.0, eps=1e-300,
                    orth_every=0)
        TrainConfig(grad_clip=None, early_stop_patience=None)

    def test_bad_value_fails_its_sweep_row_alone(self):
        data = toy_dataset(labelled=False, t=30)
        res = hyperparameter_sweep(
            toy_spec(), TrainConfig(epochs=2, batch_size=16),
            settings=[{"grad_clip": -1.0}, {"grad_clip": 1.0}], seeds=[1],
            train_set=data, val_set=data, metric="val_loss")
        assert res.rows[0]["error"].startswith("ConfigError: grad_clip")
        assert res.rows[1]["error"] is None and res.winner_index == 1


class PerArraySgd:
    """SGD stepping each parameter array on its own: the oracle for the flat ``Sgd``."""

    def __init__(self, lr):
        self.lr = lr

    def step(self, params, grads):
        for name, p in params.items():
            p -= self.lr * grads[name]


class PerArrayAdam:
    """Adam stepping each parameter array on its own: the oracle for the flat ``Adam``."""

    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m, self.v = {}, {}

    def step(self, params, grads):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for name, p in params.items():
            g = grads[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


class TestAdam:
    @staticmethod
    def mixed_params(rng):
        """3-D, 2-D and 1-D arrays, and per-subject row views as fine-tuning passes them."""
        model = {"enc_map.w": rng.normal((5, 3, 4)), "trunk.0.w": rng.normal((4, 6)),
                 "trunk.0.b": rng.normal(6), "dec_map.s": rng.normal((7, 4))}
        params = dict(model, **{"enc_map.w": model["enc_map.w"][3:],
                                "dec_map.s": model["dec_map.s"][3:]})
        return model, params

    @pytest.mark.parametrize("optimizer,lr,betas", [
        ("adam", 0.01, (0.9, 0.999)), ("adam", 0.3, (0.5, 0.0)), ("sgd", 0.01, ())])
    def test_flat_state_matches_per_array_steps(self, optimizer, lr, betas):
        flat_model, flat_params = self.mixed_params(SeededRng(7))
        ref_model, ref_params = self.mixed_params(SeededRng(7))
        if optimizer == "adam":
            flat, ref = Adam(flat_params.values(), lr, *betas), PerArrayAdam(lr, *betas)
        else:
            flat, ref = Sgd(flat_params.values(), lr), PerArraySgd(lr)
        rng = SeededRng(8)
        for step in range(500):
            grads = {name: rng.normal(p.shape) * 10.0 ** rng.integers(-6, 3)
                     for name, p in ref_params.items()}
            grads["trunk.0.b"][step % 6] = 0.0 if step % 2 else -0.0
            flat.step(np.concatenate([grads[name].ravel() for name in flat_params]))
            ref.step(ref_params, grads)
        for name in ref_model:
            assert flat_model[name].tobytes() == ref_model[name].tobytes(), name
        # the rows before the views were never touched
        untouched, _ = self.mixed_params(SeededRng(7))
        assert flat_model["dec_map.s"][:3].tobytes() == untouched["dec_map.s"][:3].tobytes()

    def test_zero_gradient_is_noop(self):
        w = np.array([1.0, -2.0, 3.0])
        before = w.copy()
        Adam([w], lr=0.1).step(np.zeros(3))
        np.testing.assert_array_equal(w, before)

    def test_step_moves_against_gradient(self):
        w = np.zeros(3)
        Adam([w], lr=0.1).step(np.array([1.0, -1.0, 2.0]))
        assert w[0] < 0 and w[1] > 0


class TestGradCheck:
    def test_linear_quadratic_is_exact(self):
        # pure linear model + MSE: central differences are exact up to roundoff
        n = 4
        spec = ModelSpec(variant="group", objective="autoencoder", input_size=n,
                         first_layer_width=n, latent_size=n, n_subjects=1)
        rng = SeededRng(6)
        model = Model(
            spec=spec, subject_ids=("s0",),
            enc_map=GroupMap(rng.normal((n, n)) * 0.3, np.zeros(n)),
            enc_layers=[DenseLayer(rng.normal((n, n)) * 0.3, np.zeros(n), "linear")],
            dec_layers=[DenseLayer(rng.normal((n, n)) * 0.3, np.zeros(n), "linear")],
            dec_map=GroupMap(rng.normal((n, n)) * 0.3, np.zeros(n)),
        )
        x = rng.normal((5, n))
        # quadratic objective: central differences are exact for any h, so a
        # larger step just suppresses float roundoff
        assert grad_check(model, x, np.zeros(5, dtype=int), h=1e-3) < 1e-9

    @pytest.mark.parametrize("objective", ["classifier", "autoencoder", "vae"])
    def test_toy_models_below_tolerance(self, objective):
        spec = toy_spec(objective=objective)
        model = build_model(spec, seed=13)
        rng = SeededRng(13)
        x = rng.normal((6, 6))
        ids = np.array([0, 1, 2, 0, 1, 2])
        labels = np.array([0, 1, 0, 1, 0, 1]) if objective == "classifier" else None
        assert grad_check(model, x, ids, labels) < 1e-4


class TestFinetune:
    def setup_trained(self, seed=0):
        data, truth = synth_group_dataset(12, 80, 20, 4, 0.0, seed=50 + seed,
                                          subject_scale=0.4, noise_level=0.0)
        seen = MultiSubjectDataset(data.subjects[:10], dict(data.metadata))
        unseen = MultiSubjectDataset(data.subjects[10:], dict(data.metadata))
        spec = ModelSpec(variant="decomposed", objective="autoencoder", input_size=20,
                         first_layer_width=4, latent_size=2, n_subjects=10, trunk_widths=(8,))
        model = build_model(spec, seed=seed, subject_ids=seen.subject_ids)
        model, _ = train(model, seen, seen,
                         TrainConfig(lr=0.01, epochs=120, batch_size=64, seed=seed,
                                     early_stop_patience=None))
        return model, seen, unseen, truth

    def test_frozen_parameters_bit_identical(self):
        model, _, unseen, _ = self.setup_trained()
        before = parameter_digest(model)
        result = finetune_subjects(model, _take_all(unseen, np.arange(20)),
                                   TrainConfig(lr=0.01, epochs=30, batch_size=16, seed=3,
                                               early_stop_patience=None))
        after = parameter_digest(model, tuple(int(i) for i in result.new_indices))
        assert before == after

    def test_clip_above_applied_rows_norm_changes_nothing(self):
        # the clip took the norm of every model gradient, frozen weights included: at
        # the first step that norm is 0.087 and the new rows' is 0.016, yet a 0.05
        # clip changed the fine-tuned rows
        data, _ = synth_group_dataset(8, 40, 12, 3, 1.0, seed=1)
        seen = MultiSubjectDataset(data.subjects[:6], dict(data.metadata))
        unseen = MultiSubjectDataset(data.subjects[6:], dict(data.metadata))
        spec = ModelSpec(variant="decomposed", objective="autoencoder", input_size=12,
                         first_layer_width=6, latent_size=3, n_subjects=6, trunk_widths=(8,))
        runs = []
        for grad_clip in (None, 0.05):
            model = build_model(spec, seed=0, subject_ids=seen.subject_ids)
            model, _ = train(model, seen, seen,
                             TrainConfig(lr=0.01, epochs=3, batch_size=16, seed=0))
            result = finetune_subjects(model, unseen,
                                       TrainConfig(lr=0.01, epochs=5, batch_size=16, seed=3,
                                                   early_stop_patience=None,
                                                   grad_clip=grad_clip))
            runs.append((parameter_digest(model), result.history.train_losses))
        assert runs[0] == runs[1]

    def test_single_timestep_fraction_runs(self):
        model, _, unseen, _ = self.setup_trained(seed=1)
        result = finetune_subjects(model, _take_all(unseen, np.arange(1)),
                                   TrainConfig(lr=0.005, epochs=20, batch_size=4, seed=0,
                                               early_stop_patience=None))
        assert model.enc_map.s[result.new_indices].shape == (2, 4)
        assert result.history.n_steps > 0

    def test_twin_subject_row_recovered(self):
        # an unseen subject generated with a training subject's exact scaling vector
        # should fine-tune to (close to) that subject's learned row
        model, seen, unseen, truth = self.setup_trained(seed=2)
        twin_src = seen.subjects[0]
        clone = SubjectData("clone", twin_src.data.copy(), None, twin_src.group)
        clone_set = MultiSubjectDataset([clone], dict(seen.metadata))
        result = finetune_subjects(model, clone_set,
                                   TrainConfig(lr=0.01, epochs=400, batch_size=64, seed=4,
                                               early_stop_patience=None))
        learned = model.enc_map.s[model.index_of([twin_src.subject_id])[0]]
        fitted = model.enc_map.s[result.new_indices[0]]
        assert float(np.linalg.norm(fitted - learned)) < 0.1

    def test_wrong_width_leaves_model_untouched(self):
        model, _, _, _ = self.setup_trained(seed=3)
        ids, digest = model.subject_ids, parameter_digest(model)
        wide = toy_dataset(n=21, labelled=False)
        with pytest.raises(ShapeError):
            finetune_subjects(model, wide, TrainConfig(epochs=1))
        assert model.subject_ids == ids
        assert parameter_digest(model) == digest

    def test_unlabelled_classifier_data_leaves_model_untouched(self):
        data = toy_dataset()
        model = build_model(toy_spec(objective="classifier"), seed=0, subject_ids=data.subject_ids)
        ids, digest = model.subject_ids, parameter_digest(model)
        new = MultiSubjectDataset([SubjectData("new", SeededRng(1).normal((40, 6)))])
        with pytest.raises(MissingLabels):
            finetune_subjects(model, new, TrainConfig(epochs=1))
        assert model.subject_ids == ids
        assert parameter_digest(model) == digest

    def test_subject_without_timesteps_leaves_model_untouched(self):
        data = toy_dataset(labelled=False)
        model = build_model(toy_spec(), seed=0, subject_ids=data.subject_ids)
        ids, digest = model.subject_ids, parameter_digest(model)
        new = MultiSubjectDataset([SubjectData("new", SeededRng(1).normal((40, 6))),
                                   SubjectData("empty", np.zeros((0, 6)))])
        with pytest.raises(EmptySubset, match="'empty'"):
            finetune_subjects(model, new, TrainConfig(epochs=1))
        assert model.subject_ids == ids
        assert parameter_digest(model) == digest

    def test_subject_map_fits_only_the_new_matrices(self):
        data = toy_dataset(labelled=False)
        model = build_model(toy_spec(variant="subject"), seed=0, subject_ids=data.subject_ids)
        before = parameter_digest(model)
        start_row = model.enc_map.w.mean(axis=0)
        new = MultiSubjectDataset([SubjectData("new", SeededRng(1).normal((40, 6)))])
        result = finetune_subjects(model, _take_all(new, np.arange(20)),
                                   TrainConfig(lr=0.01, epochs=2, batch_size=8,
                                               early_stop_patience=None))
        assert parameter_digest(model, (3,)) == before
        assert result.new_indices.tolist() == [3]
        enc_rows = model.enc_map.w[result.new_indices]
        dec_rows = model.dec_map.w[result.new_indices]
        assert enc_rows.shape == (1, 6, 4) and dec_rows.shape == (1, 4, 6)
        assert not np.array_equal(enc_rows[0], start_row)

    def test_group_model_rejected(self):
        data = toy_dataset(labelled=False)
        model = build_model(toy_spec(variant="group"), seed=0, subject_ids=data.subject_ids)
        with pytest.raises(ValueError):
            finetune_subjects(model, MultiSubjectDataset(data.subjects[:1]), TrainConfig(epochs=1))

    def test_add_subjects_to_group_model_is_no_subject_weights(self):
        data = toy_dataset(labelled=False)
        model = build_model(toy_spec(variant="group"), seed=0, subject_ids=data.subject_ids)
        before = parameter_digest(model)
        with pytest.raises(NoSubjectWeights, match="group models"):
            add_subjects(model, ["new"])
        assert model.subject_ids == tuple(data.subject_ids)
        assert parameter_digest(model) == before


class TestSweep:
    def test_single_cell_sweep(self):
        data = toy_dataset(labelled=False, t=30)
        res = hyperparameter_sweep(
            toy_spec(), TrainConfig(epochs=2, batch_size=16),
            settings=[{"lr": 0.01}], seeds=[1],
            train_set=data, val_set=data, metric="val_loss")
        assert len(res.rows) == 1 and res.winner_index == 0

    def test_seed_generator_runs_every_cell(self):
        data = toy_dataset(labelled=False, t=30)
        res = hyperparameter_sweep(
            toy_spec(), TrainConfig(epochs=2, batch_size=16),
            settings=[{"lr": 0.01}, {"lr": 0.03}], seeds=(s for s in (1, 2)),
            train_set=data, val_set=data, metric="val_loss")
        assert [(r["setting_index"], r["seed"]) for r in res.rows] == [
            (0, 1), (0, 2), (1, 1), (1, 2)]
        assert not any(math.isnan(m) for m in res.setting_means)

    def test_identical_settings_identical_means(self):
        data = toy_dataset(labelled=False, t=30)
        res = hyperparameter_sweep(
            toy_spec(), TrainConfig(epochs=2, batch_size=16),
            settings=[{"lr": 0.01}, {"lr": 0.01}], seeds=[1, 2],
            train_set=data, val_set=data, metric="val_loss")
        assert res.setting_means[0] == res.setting_means[1]

    def test_cell_errors_do_not_abort(self):
        data = toy_dataset(labelled=False, t=30)
        with np.errstate(all="ignore"):
            res = hyperparameter_sweep(
                toy_spec(), TrainConfig(epochs=3, batch_size=16),
                settings=[{"lr": 1e12, "optimizer": "sgd"}, {"lr": 0.01}], seeds=[1],
                train_set=data, val_set=data, metric="val_loss")
        assert res.rows[0]["error"] is not None
        assert res.rows[1]["error"] is None
        assert res.winner_index == 1

    def test_unknown_setting_key_is_config_error(self, monkeypatch):
        # checked before any cell runs: the valid first setting never trains
        monkeypatch.setattr(training, "_sweep_cell", lambda job: pytest.fail("a cell ran"))
        data = toy_dataset(labelled=False, t=30)
        with pytest.raises(ConfigError, match="learning_rate"):
            hyperparameter_sweep(
                toy_spec(), TrainConfig(epochs=1, batch_size=16),
                settings=[{"lr": 0.01}, {"learning_rate": 0.01}], seeds=[1],
                train_set=data, val_set=data)

    def test_missing_validation_set_is_config_error(self, monkeypatch):
        # every cell used to train, then fail on val_set.subject_ids, ending in SweepFailed
        monkeypatch.setattr(training, "_sweep_cell", lambda job: pytest.fail("a cell ran"))
        data = toy_dataset(labelled=False, t=30)
        with pytest.raises(ConfigError, match="validation set"):
            hyperparameter_sweep(toy_spec(), TrainConfig(epochs=1, batch_size=16),
                                 settings=[{"lr": 0.01}], seeds=[1], train_set=data,
                                 val_set=None)

    @pytest.mark.parametrize("workers", [0, -3, "2", 2.0, True, None])
    def test_workers_not_a_count_is_config_error(self, monkeypatch, workers):
        # 0 and -3 ran the cells inline, "2" raised a TypeError from min()
        monkeypatch.setattr(training, "_sweep_cell", lambda job: pytest.fail("a cell ran"))
        data = toy_dataset(labelled=False, t=30)
        with pytest.raises(ConfigError, match=f"workers must be an integer >= 1, got {workers!r}"):
            hyperparameter_sweep(toy_spec(), TrainConfig(epochs=1, batch_size=16),
                                 [{"lr": 0.01}, {"lr": 0.03}], [1], data, data, workers=workers)

    def test_unknown_metric_is_config_error(self):
        data = toy_dataset(labelled=False, t=30)
        with pytest.raises(ConfigError, match="val_mse"):
            hyperparameter_sweep(
                toy_spec(), TrainConfig(epochs=1, batch_size=16),
                settings=[{"lr": 0.01}], seeds=[1],
                train_set=data, val_set=data, metric="val_mse")

    def test_default_metric_follows_the_objective(self):
        # val_accuracy used to rank a non-classifier by val loss, highest first
        data = toy_dataset(t=30)
        settings = [{"lr": 1e-4}, {"lr": 0.05}]
        res = hyperparameter_sweep(toy_spec(), TrainConfig(epochs=3, batch_size=16),
                                   settings=settings, seeds=[1], train_set=data, val_set=data)
        assert res.metric == "val_loss"
        assert res.setting_means[res.winner_index] == min(res.setting_means)
        res = hyperparameter_sweep(toy_spec(objective="classifier"),
                                   TrainConfig(epochs=3, batch_size=16),
                                   settings=settings, seeds=[1], train_set=data, val_set=data)
        assert res.metric == "val_accuracy"
        assert res.setting_means[res.winner_index] == max(res.setting_means)
        with pytest.raises(ConfigError, match="val_accuracy"):
            hyperparameter_sweep(toy_spec(), TrainConfig(epochs=1, batch_size=16),
                                 settings=settings, seeds=[1], train_set=data, val_set=data,
                                 metric="val_accuracy")
        with pytest.raises(ConfigError, match="val_accuracy"):
            hyperparameter_sweep(toy_spec(objective="classifier"),
                                 TrainConfig(epochs=1, batch_size=16),
                                 settings=[{"objective": "autoencoder"}], seeds=[1],
                                 train_set=data, val_set=data, metric="val_accuracy")

    def test_every_cell_failing_is_sweep_failed(self):
        # each cell's ModelSpec rejects the width: there is no winner to report
        data = toy_dataset(labelled=False, t=30)
        with pytest.raises(SweepFailed, match="all 2 sweep cells failed.*first_layer_width"):
            hyperparameter_sweep(
                toy_spec(), TrainConfig(epochs=1, batch_size=16),
                settings=[{"first_layer_width": 0}], seeds=[1, 2],
                train_set=data, val_set=data, metric="val_loss")

    def test_rows_sorted_and_deterministic(self):
        data = toy_dataset(labelled=False, t=30)
        kwargs = dict(settings=[{"lr": 0.03}, {"lr": 0.01}], seeds=[5, 6],
                      train_set=data, val_set=data, test_set=data, metric="val_loss")
        res1 = hyperparameter_sweep(toy_spec(), TrainConfig(epochs=2, batch_size=16), **kwargs)
        res2 = hyperparameter_sweep(toy_spec(), TrainConfig(epochs=2, batch_size=16), **kwargs)
        keys = [(r["setting_index"], r["seed"]) for r in res1.rows]
        assert keys == sorted(keys)
        assert [r["val_loss"] for r in res1.rows] == [r["val_loss"] for r in res2.rows]


def _comparable(rows):
    # NaN never equals NaN, and rows from worker processes hold their own NaN objects
    return [{k: None if isinstance(v, float) and math.isnan(v) else v for k, v in row.items()}
            for row in rows]


def _one_cap_sweeps(settings, seeds, config, data):
    """Rows of one sweep per distinct epoch cap, concatenated in ``settings`` order."""
    rows = []
    for epochs in dict.fromkeys(s["epochs"] for s in settings):
        indices = [i for i, s in enumerate(settings) if s["epochs"] == epochs]
        res = hyperparameter_sweep(toy_spec(objective="classifier"), config,
                                   [settings[i] for i in indices], seeds, data, data, data)
        rows += [dict(row, setting_index=indices[row["setting_index"]]) for row in res.rows]
    return sorted(rows, key=lambda r: (r["setting_index"], r["seed"]))


def _csv_bytes(rows, path):
    keys = sorted(rows[0])
    _write_csv(path, keys, ([row[k] for k in keys] for row in rows))
    return path.read_bytes()


class TestSharedEpochRuns:
    """Cells that differ only in ``epochs`` train once; every row is its stand-alone row."""

    SETTINGS = [{"epochs": epochs, "lr": lr} for epochs in (0, 3, 5) for lr in (0.05, 0.3)]

    @pytest.mark.parametrize("patience", [None, 1])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_rows_equal_one_cap_sweeps(self, tmp_path, patience, workers):
        data = toy_dataset(t=30)
        config = TrainConfig(batch_size=16, early_stop_patience=patience)
        if patience is not None:  # early stopping must fire before the largest cap
            model = build_model(toy_spec(objective="classifier"), SeededRng(2).derive("init").seed,
                                subject_ids=data.subject_ids)
            _, history = train(model, data, data, replace(config, lr=0.3, epochs=5, seed=2))
            assert history.n_epochs < 5
        shared = hyperparameter_sweep(toy_spec(objective="classifier"), config, self.SETTINGS,
                                      [1, 2], data, data, data, workers=workers)
        separate = _one_cap_sweeps(self.SETTINGS, [1, 2], config, data)
        assert not any(row["error"] for row in separate)
        assert _comparable(shared.rows) == _comparable(separate)
        assert (_csv_bytes(shared.rows, tmp_path / "shared.csv")
                == _csv_bytes(separate, tmp_path / "separate.csv"))

    def test_one_run_per_group(self, monkeypatch):
        data = toy_dataset(t=30)
        runs = []
        real = training._train_epochs
        monkeypatch.setattr(training, "_train_epochs",
                            lambda *args: runs.append(args[3].epochs) or real(*args))
        hyperparameter_sweep(toy_spec(objective="classifier"), TrainConfig(batch_size=16),
                             self.SETTINGS, [1, 2], data, data, data)
        assert runs == [5] * 4  # two learning rates x two seeds, each up to the largest cap

    def test_duplicate_settings_get_the_same_row(self):
        data = toy_dataset(t=30)
        settings = [{"epochs": 3, "lr": 0.05}, {"epochs": 3, "lr": 0.05}, {"epochs": 5, "lr": 0.05}]
        config = TrainConfig(batch_size=16)
        rows = hyperparameter_sweep(toy_spec(objective="classifier"), config, settings, [1],
                                    data, data, data).rows
        assert dict(rows[1], setting_index=0) == rows[0]
        assert _comparable(rows) == _comparable(_one_cap_sweeps(settings, [1], config, data))

    def test_bad_epoch_cap_fails_its_row_alone(self):
        data = toy_dataset(t=30)
        settings = [{"epochs": 3}, {"epochs": -1}, {"epochs": 5}]
        config = TrainConfig(batch_size=16)
        rows = hyperparameter_sweep(toy_spec(objective="classifier"), config, settings, [1],
                                    data, data, data).rows
        assert rows[1]["error"].startswith("ConfigError: epochs must be an integer >= 0")
        assert math.isnan(rows[1]["val_loss"]) and math.isnan(rows[1]["test_metric"])
        kept = [settings[0], settings[2]]
        expected = _one_cap_sweeps(kept, [1], config, data)
        assert _comparable([rows[0], dict(rows[2], setting_index=1)]) == _comparable(expected)

    def test_divergence_between_caps_keeps_the_smaller_cap(self, monkeypatch):
        # toy_dataset(t=30) has 90 rows: 6 steps of 16 per epoch, so the loss
        # turns NaN at step 20, after epoch 3 and before epoch 5
        data = toy_dataset(t=30)
        settings = [{"epochs": 0}, {"epochs": 3}, {"epochs": 5}]
        config = TrainConfig(batch_size=16)
        expected = _one_cap_sweeps(settings[:2], [1], config, data)
        real = training.loss_and_grads

        def diverging(model, *args):
            model.steps_taken = getattr(model, "steps_taken", 0) + 1
            value, terms, grads = real(model, *args)
            return (math.nan if model.steps_taken >= 20 else value), terms, grads

        monkeypatch.setattr(training, "loss_and_grads", diverging)
        rows = hyperparameter_sweep(toy_spec(objective="classifier"), config, settings, [1],
                                    data, data, data).rows
        assert _comparable(rows[:2]) == _comparable(expected)
        assert rows[2]["error"] == "DivergenceError: non-finite loss at step 19"
        assert math.isnan(rows[2]["val_loss"]) and math.isnan(rows[2]["test_metric"])

    def test_build_failure_fails_its_whole_group(self, monkeypatch):
        data = toy_dataset(t=30)
        settings = [{"first_layer_width": width, "epochs": epochs}
                    for width in (3, 4) for epochs in (3, 5)]
        real = training.build_model

        def build(spec, *args, **kwargs):
            if spec.first_layer_width == 3:
                raise RuntimeError("no model of width 3")
            return real(spec, *args, **kwargs)

        monkeypatch.setattr(training, "build_model", build)
        rows = hyperparameter_sweep(toy_spec(objective="classifier"), TrainConfig(batch_size=16),
                                    settings, [1], data, data, data).rows
        assert [row["error"] for row in rows] == ["RuntimeError: no model of width 3"] * 2 + [None] * 2
        assert all(math.isnan(row["val_loss"]) for row in rows[:2])


def _blas_threads() -> int:
    """This process's OpenBLAS thread count, read by the getter matching the sweep's setter."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    name = training._openblas_setter().__name__.replace("_set_", "_get_")
    getter = getattr(ctypes.CDLL(umath.__file__), name)
    getter.argtypes, getter.restype = [], ctypes.c_int
    return getter()


class TestSweepPool:
    """The sweep starts no more worker processes than it has groups of cells, and gives
    each worker its share of the CPUs for BLAS threads."""

    def test_pool_capped_at_the_group_count(self, inline_pools):
        data = toy_dataset(labelled=False, t=30)
        settings = [{"lr": 0.01, "epochs": 1}, {"lr": 0.01, "epochs": 2}, {"lr": 0.03, "epochs": 1}]
        res = hyperparameter_sweep(toy_spec(), TrainConfig(batch_size=16), settings, [1],
                                   data, data, workers=8)
        assert [pool.max_workers for pool in inline_pools] == [2]
        assert len(res.rows) == 3 and not any(row["error"] for row in res.rows)

    def test_one_group_runs_inline(self, inline_pools):
        data = toy_dataset(labelled=False, t=30)
        res = hyperparameter_sweep(toy_spec(), TrainConfig(batch_size=16),
                                   [{"epochs": 1}, {"epochs": 2}], [1], data, data, workers=8)
        assert inline_pools == []
        assert len(res.rows) == 2

    @pytest.mark.parametrize("cpus,groups,pool", [(2, 2, (2, 1)), (8, 3, (3, 2)), (1, 3, (3, 1)),
                                                  (3, 2, (2, 1))])
    def test_each_worker_gets_its_share_of_the_cpus(self, inline_pools, monkeypatch,
                                                    cpus, groups, pool):
        monkeypatch.setattr(training, "usable_cpus", lambda: cpus)
        data = toy_dataset(labelled=False, t=30)
        settings = [{"lr": 0.01 * (i + 1), "epochs": 1} for i in range(groups)]
        hyperparameter_sweep(toy_spec(), TrainConfig(batch_size=16), settings, [1],
                             data, data, workers=8)
        assert [(p.max_workers, p.initargs) for p in inline_pools] == [(pool[0], (pool[1],))]

    @pytest.mark.skipif(training._openblas_setter() is None,
                        reason="numpy's BLAS has no known thread-count setter")
    @pytest.mark.parametrize("threads", [1, 3])
    def test_initializer_sets_the_budget_in_the_worker_alone(self, threads):
        before = _blas_threads()
        with ProcessPoolExecutor(max_workers=1, initializer=training._budget_blas_threads,
                                 initargs=(threads,)) as pool:
            assert pool.submit(_blas_threads).result(timeout=60) == threads
        assert _blas_threads() == before

    @pytest.mark.parametrize("variant", ["group", "subject", "decomposed"])
    def test_pooled_rows_equal_inline_rows(self, tmp_path, variant):
        # 21000 test rows of width 16: the inline run's scoring gemms are far above
        # OpenBLAS's threading cutoff, while each pooled worker runs one BLAS thread
        train_set = toy_dataset(labelled=False, t=40, n=16)
        test_set = toy_dataset(seed=1, labelled=False, t=7000, n=16)
        spec = toy_spec(variant=variant, n=16, first_layer_width=16, trunk_widths=(16,))
        settings = [{"lr": lr, "epochs": epochs} for lr in (0.01, 0.05) for epochs in (1, 2)]
        config = TrainConfig(batch_size=16)
        inline, pooled = (hyperparameter_sweep(spec, config, settings, [1], train_set, train_set,
                                               test_set, workers=workers).rows
                          for workers in (1, 2))
        assert not any(row["error"] for row in inline)
        assert (_csv_bytes(pooled, tmp_path / "pooled.csv")
                == _csv_bytes(inline, tmp_path / "inline.csv"))


class TestUsableCpus:
    def test_counts_the_affinity_set(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert training.usable_cpus() == 3

    @pytest.mark.parametrize("count,expected", [(6, 6), (None, 1)])
    def test_cpu_count_where_there_is_no_affinity(self, monkeypatch, count, expected):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert training.usable_cpus() == expected


class TestBlockedScoring:
    @pytest.mark.parametrize("variant", ["group", "subject", "decomposed"])
    @pytest.mark.parametrize("objective", ["classifier", "autoencoder", "vae"])
    def test_one_block_scores_as_loss_bit_for_bit(self, variant, objective):
        data = toy_dataset(labelled=objective == "classifier")
        model = build_model(toy_spec(variant, objective), seed=4, subject_ids=data.subject_ids)
        assert data.block.shape[0] <= training._score_block_rows(model.spec)
        assert evaluate_loss(model, data) == loss(model, *stacked(data, model))

    @pytest.mark.parametrize("variant", ["group", "subject", "decomposed"])
    @pytest.mark.parametrize("objective", ["classifier", "autoencoder", "vae"])
    def test_blocks_with_a_partial_last_block_match_one_batch(self, monkeypatch, variant,
                                                              objective):
        data = toy_dataset(labelled=objective == "classifier")  # 120 rows
        model = build_model(toy_spec(variant, objective), seed=4, subject_ids=data.subject_ids)
        monkeypatch.setattr(training, "_SCORE_BLOCK_ELEMENTS", 1)
        monkeypatch.setattr(training, "_SCORE_MIN_ROWS", 7)
        blocks, real = [], training.loss_terms
        monkeypatch.setattr(training, "loss_terms",
                            lambda model, x, *rest: blocks.append(len(x)) or real(model, x, *rest))
        value, terms = evaluate_loss(model, data)
        assert blocks == [7] * 17 + [1]
        want_value, want_terms = loss(model, *stacked(data, model))
        assert value == pytest.approx(want_value, rel=1e-14, abs=0)
        assert terms.keys() == want_terms.keys()
        for key, want in want_terms.items():
            if key == "accuracy":
                assert terms[key] == want
            else:
                assert terms[key] == pytest.approx(want, rel=1e-14, abs=0)

    @pytest.mark.parametrize("variant", ["group", "subject", "decomposed"])
    @pytest.mark.parametrize("objective", ["classifier", "autoencoder", "vae"])
    def test_one_block_encodes_as_encode_bit_for_bit(self, variant, objective):
        data = toy_dataset(labelled=objective == "classifier")
        model = build_model(toy_spec(variant, objective), seed=4, subject_ids=data.subject_ids)
        x, idx, _ = stacked(data, model)
        assert x.shape[0] <= training._score_block_rows(model.spec)
        np.testing.assert_array_equal(encode_dataset(model, data), encode(model, x, idx).z)

    @pytest.mark.parametrize("objective", ["classifier", "vae"])
    def test_blocks_encode_every_row_in_order(self, monkeypatch, objective):
        data = toy_dataset(labelled=objective == "classifier")  # 120 rows
        model = build_model(toy_spec("decomposed", objective), seed=4,
                            subject_ids=data.subject_ids)
        monkeypatch.setattr(training, "_SCORE_BLOCK_ELEMENTS", 1)
        monkeypatch.setattr(training, "_SCORE_MIN_ROWS", 7)
        blocks, real = [], training.encode
        monkeypatch.setattr(training, "encode",
                            lambda model, x, *rest: blocks.append(len(x)) or real(model, x, *rest))
        latents = encode_dataset(model, data)
        assert blocks == [7] * 17 + [1]
        np.testing.assert_allclose(latents, real(model, *stacked(data, model)[:2]).z,
                                   rtol=1e-14, atol=0)

    def test_encoding_memory_follows_the_block(self):
        spec = toy_spec("group", n=64, n_subjects=4)
        rows = training._score_block_rows(spec)
        data = toy_dataset(n_subjects=4, t=2 * rows, n=64, labelled=False)
        model = build_model(spec, seed=4, subject_ids=data.subject_ids)
        budget = 8 * training._SCORE_BLOCK_ELEMENTS  # bytes of one block's widest array, at most
        tracemalloc.start()
        try:
            encode_dataset(model, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * budget

    def test_block_rows_follow_the_widest_array(self):
        # 2**18 elements over the input width, a layer width, or a subject map's
        # per-row weight gather; at least 128 rows
        assert training._score_block_rows(toy_spec("group", n=2 ** 9)) == 2 ** 9
        assert training._score_block_rows(toy_spec("group", trunk_widths=(2 ** 9,))) == 2 ** 9
        assert training._score_block_rows(toy_spec("subject", n=2 ** 6)) == 2 ** 10
        assert training._score_block_rows(toy_spec("group", n=2 ** 20)) == 128

    @pytest.mark.parametrize("variant", ["group", "subject", "decomposed"])
    def test_scoring_memory_follows_the_block(self, variant):
        # the whole dataset used to be one batch: each of its arrays was 8 blocks' worth
        spec = toy_spec(variant, n=64, n_subjects=4)
        rows = training._score_block_rows(spec)
        assert rows > training._SCORE_MIN_ROWS  # the element budget sets the block
        data = toy_dataset(n_subjects=4, t=2 * rows, n=64, labelled=False)
        model = build_model(spec, seed=4, subject_ids=data.subject_ids)
        budget = 8 * training._SCORE_BLOCK_ELEMENTS  # bytes of one block's widest array, at most
        tracemalloc.start()
        try:
            evaluate_loss(model, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * budget


def test_parameter_digest_excludes_only_named_rows():
    data = toy_dataset(labelled=False)
    model = build_model(toy_spec(), seed=1, subject_ids=data.subject_ids)
    base = parameter_digest(model)
    model.enc_map.s[1, 0] += 1.0
    assert parameter_digest(model) != base
    assert parameter_digest(model, (1,)) == parameter_digest(model, (1,))
    model.enc_map.v[0, 0] += 1.0
    assert parameter_digest(model, (1,)) != base


def _storage_digest(dataset) -> str:
    digest = hashlib.sha256(dataset.block.tobytes())
    if dataset.labels is not None:
        digest.update(dataset.labels.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("variant", ["group", "subject", "decomposed"])
@pytest.mark.parametrize("objective", ["classifier", "autoencoder", "vae"])
def test_passes_leave_dataset_storage_unchanged(variant, objective):
    # stacked hands out the dataset's own block, so no pass may write its input
    data = toy_dataset(labelled=objective == "classifier", t=24)
    latents = MultiSubjectDataset(
        [SubjectData(sid, SeededRng(i).normal((5, 2))) for i, sid in enumerate(data.subject_ids)])
    before = _storage_digest(data), _storage_digest(latents)
    model = build_model(toy_spec(variant, objective), seed=4, subject_ids=data.subject_ids)
    x, idx, labels = stacked(data, model)
    loss(model, x, idx, labels)
    loss_and_grads(model, x, idx, labels, SeededRng(2))
    encode(model, x, idx, SeededRng(3))
    if objective != "classifier":
        decode(model, *stacked(latents, model)[:2])
    evaluate_loss(model, data)
    train(model, data, data, TrainConfig(lr=0.01, epochs=2, batch_size=8, seed=1))
    assert (_storage_digest(data), _storage_digest(latents)) == before
