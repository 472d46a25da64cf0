import hashlib
import math

import numpy as np
import pytest

from subjmap.datasets import (MultiSubjectDataset, SubjectData, synth_group_dataset, split,
                              stacked, FirstSecondHalf, _take_all)
from subjmap import training
from subjmap.errors import (ConfigError, DivergenceError, EmptySubset, MissingLabels, ShapeError,
                            SweepFailed)
from subjmap.linalg import SeededRng
from subjmap.models import Model, ModelSpec, build_model, decode, encode, loss, loss_and_grads
from subjmap.maps import GroupMap
from subjmap.models import DenseLayer
from subjmap.training import (
    Adam,
    TrainConfig,
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
        path = tmp_path / "history.csv"
        h.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,metric"
        assert len(lines) == 1 + h.n_epochs


class TestGradClip:
    def grads(self):
        rng = SeededRng(4)
        return {"a": rng.normal((3, 4)), "b": rng.normal(5)}

    @staticmethod
    def norm(grads):
        return math.sqrt(sum(float((g * g).sum()) for g in grads.values()))

    def test_above_max_norm_rescaled_to_it(self):
        grads = self.grads()
        total = self.norm(grads)
        originals = {k: g.copy() for k, g in grads.items()}
        training.clip_gradients(grads, total / 3)
        assert self.norm(grads) == pytest.approx(total / 3, rel=1e-14)
        for k, g in grads.items():  # one common scale: the direction is kept
            np.testing.assert_allclose(g * 3, originals[k], rtol=1e-14)

    def test_below_max_norm_byte_equal(self):
        grads = self.grads()
        originals = {k: g.copy() for k, g in grads.items()}
        training.clip_gradients(grads, self.norm(grads) * 1.01)
        for k, g in grads.items():
            assert g.tobytes() == originals[k].tobytes()

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


class TestAdam:
    def test_zero_gradient_is_noop(self):
        p = {"w": np.array([1.0, -2.0, 3.0])}
        before = p["w"].copy()
        opt = Adam(lr=0.1)
        opt.step(p, {"w": np.zeros(3)})
        np.testing.assert_array_equal(p["w"], before)

    def test_step_moves_against_gradient(self):
        p = {"w": np.zeros(3)}
        Adam(lr=0.1).step(p, {"w": np.array([1.0, -1.0, 2.0])})
        assert np.all(p["w"][0] < 0) and p["w"][1] > 0


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

    def test_single_timestep_fraction_runs(self):
        model, _, unseen, _ = self.setup_trained(seed=1)
        result = finetune_subjects(model, _take_all(unseen, np.arange(1)),
                                   TrainConfig(lr=0.005, epochs=20, batch_size=4, seed=0,
                                               early_stop_patience=None))
        assert result.enc_rows.shape == (2, 4)
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
        fitted = result.enc_rows[0]
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
        assert result.enc_rows.shape == (1, 6, 4) and result.dec_rows.shape == (1, 4, 6)
        np.testing.assert_array_equal(result.enc_rows[0], model.enc_map.w[3])
        assert not np.array_equal(result.enc_rows[0], start_row)

    def test_group_model_rejected(self):
        data = toy_dataset(labelled=False)
        model = build_model(toy_spec(variant="group"), seed=0, subject_ids=data.subject_ids)
        with pytest.raises(ValueError):
            finetune_subjects(model, data.subset(["s0"]), TrainConfig(epochs=1))


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
