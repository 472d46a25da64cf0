import math
from dataclasses import asdict

import numpy as np
import pytest

from subjmap.errors import MissingLabels, ShapeError, UnknownSubject
from subjmap.linalg import SeededRng
from subjmap.maps import DecomposedMap, GroupMap
from subjmap.models import (
    DenseLayer,
    Model,
    ModelSpec,
    build_model,
    decode,
    encode,
    latent_traversal,
    loss,
    loss_and_grads,
    softmax,
)


def identity_autoencoder(n=3, subjects=2):
    """Hand-built model where encode and decode are exact identities."""
    spec = ModelSpec(variant="decomposed", objective="autoencoder", input_size=n,
                     first_layer_width=n, latent_size=n, n_subjects=subjects)
    ident_map = lambda d: DecomposedMap(np.eye(n), np.eye(n), np.ones((subjects, n)),
                                        np.zeros(n), d)
    return Model(
        spec=spec,
        subject_ids=tuple(f"s{i}" for i in range(subjects)),
        enc_map=ident_map("reduce"),
        enc_layers=[DenseLayer(np.eye(n), np.zeros(n), "linear")],
        dec_layers=[DenseLayer(np.eye(n), np.zeros(n), "linear")],
        dec_map=ident_map("expand"),
    )


class TestEncodeDecode:
    def test_identity_configuration_roundtrip(self):
        model = identity_autoencoder()
        x = SeededRng(1).normal((5, 3))
        ids = np.array([0, 1, 0, 1, 0])
        lat = encode(model, x, ids)
        np.testing.assert_array_equal(lat.z, x)
        np.testing.assert_array_equal(decode(model, lat.z, ids), x)

    def test_encode_is_deterministic_without_rng(self):
        spec = ModelSpec(variant="subject", objective="vae", input_size=4,
                         first_layer_width=3, latent_size=2, n_subjects=2, trunk_widths=(5,))
        model = build_model(spec, seed=7)
        x = SeededRng(2).normal((6, 4))
        ids = np.zeros(6, dtype=int)
        a = encode(model, x, ids)
        b = encode(model, x, ids)
        assert np.array_equal(a.z, b.z) and np.array_equal(a.z, a.mu)

    def test_vae_sampling_reproducible_bitwise(self):
        spec = ModelSpec(variant="group", objective="vae", input_size=4,
                         first_layer_width=3, latent_size=2, n_subjects=1, trunk_widths=(5,))
        model = build_model(spec, seed=7)
        x = SeededRng(2).normal((6, 4))
        ids = np.zeros(6, dtype=int)
        a = encode(model, x, ids, rng=SeededRng(55))
        b = encode(model, x, ids, rng=SeededRng(55))
        assert np.array_equal(a.z, b.z)
        assert not np.array_equal(a.z, a.mu)

    def test_encode_output_width_is_latent_size(self):
        spec = ModelSpec(variant="decomposed", objective="classifier", input_size=2,
                         first_layer_width=8, latent_size=2, n_subjects=4,
                         trunk_widths=(6,), n_classes=2)
        model = build_model(spec, seed=1)
        z = encode(model, SeededRng(3).normal((9, 2)), np.zeros(9, dtype=int)).z
        assert z.shape == (9, 2)

    def test_decode_depends_on_subject_rows(self):
        spec = ModelSpec(variant="decomposed", objective="autoencoder", input_size=5,
                         first_layer_width=3, latent_size=2, n_subjects=2, trunk_widths=(4,))
        model = build_model(spec, seed=3)
        model.dec_map.s[1] *= 2.5
        z = SeededRng(4).normal((3, 2))
        a = decode(model, z, np.zeros(3, dtype=int))
        b = decode(model, z, np.ones(3, dtype=int))
        assert not np.allclose(a, b)
        assert np.all(np.isfinite(a)) and a.shape == (3, 5)

    @pytest.mark.parametrize("variant", ["group", "subject", "decomposed"])
    @pytest.mark.parametrize("objective", ["autoencoder", "vae"])
    def test_loss_sees_what_encode_and_decode_return(self, variant, objective):
        spec = ModelSpec(variant=variant, objective=objective, input_size=5,
                         first_layer_width=4, latent_size=2, n_subjects=3, trunk_widths=(6,))
        model = build_model(spec, seed=12)
        x = SeededRng(6).normal((7, 5))
        ids = np.array([0, 1, 2, 0, 1, 2, 0])

        def mse_of(lat):
            resid = decode(model, lat.z, ids) - x
            return float(np.einsum("ij,ij->", resid, resid) / resid.size)

        assert loss(model, x, ids)[1]["mse"] == mse_of(encode(model, x, ids))
        # the same seeded stream must draw the same eps in encode and in the loss
        sampled = loss_and_grads(model, x, ids, rng=SeededRng(31))[1]["mse"]
        assert sampled == mse_of(encode(model, x, ids, rng=SeededRng(31)))
        if objective == "vae":
            assert sampled != loss(model, x, ids)[1]["mse"]

    def test_wrong_width_raises(self):
        model = identity_autoencoder()
        with pytest.raises(ShapeError):
            encode(model, np.ones((2, 4)), [0, 0])

    def test_unknown_subject_string(self):
        model = identity_autoencoder()
        with pytest.raises(UnknownSubject):
            model.index_of(["nope"])


class TestLoss:
    def test_perfect_reconstruction_zero_mse(self):
        model = identity_autoencoder()
        x = SeededRng(5).normal((4, 3))
        value, parts = loss(model, x, np.zeros(4, dtype=int))
        assert value == 0.0 and parts["mse"] == 0.0

    def test_vae_kl_zero_at_standard_normal(self):
        n = 3
        spec = ModelSpec(variant="group", objective="vae", input_size=n,
                         first_layer_width=n, latent_size=n, n_subjects=1)
        # encoder head outputs exactly mu=0, logvar=0
        model = Model(
            spec=spec, subject_ids=("s0",),
            enc_map=GroupMap(np.zeros((n, n)), np.zeros(n)),
            enc_layers=[DenseLayer(np.zeros((n, 2 * n)), np.zeros(2 * n), "linear")],
            dec_layers=[DenseLayer(np.zeros((n, n)), np.zeros(n), "linear")],
            dec_map=GroupMap(np.zeros((n, n)), np.zeros(n)),
        )
        x = np.zeros((2, n))
        value, parts = loss(model, x, np.zeros(2, dtype=int))
        assert parts["kl"] == 0.0 and value == 0.0

    def test_uniform_classifier_logits_cross_entropy(self):
        spec = ModelSpec(variant="group", objective="classifier", input_size=2,
                         first_layer_width=2, latent_size=3, n_subjects=1, n_classes=3)
        model = build_model(spec, seed=0)
        for layer in model.enc_layers:
            layer.w[...] = 0.0
            layer.b[...] = 0.0
        model.enc_map.w[...] = 0.0
        value, _ = loss(model, np.ones((5, 2)), np.zeros(5, dtype=int),
                        labels=np.array([0, 1, 2, 0, 1]))
        assert abs(value - math.log(3)) < 1e-12

    def test_classifier_needs_labels(self):
        spec = ModelSpec(variant="group", objective="classifier", input_size=2,
                         first_layer_width=2, latent_size=2, n_subjects=1, n_classes=2)
        model = build_model(spec, seed=0)
        with pytest.raises(MissingLabels):
            loss(model, np.ones((2, 2)), np.zeros(2, dtype=int))

    @pytest.mark.parametrize("rows", [32, 40, 128])
    def test_training_pass_loss_matches_scoring_pass(self, rows):
        # both passes sum the squared residual with one einsum, at every size; the
        # training pass used to square 2**17 elements at a time and agree to 1e-14 above
        spec = ModelSpec(variant="decomposed", objective="autoencoder", input_size=4096,
                         first_layer_width=8, latent_size=2, n_subjects=2, trunk_widths=(4,))
        model = build_model(spec, seed=5)
        x, ids = SeededRng(6).normal((rows, 4096)), np.arange(rows) % 2
        assert loss_and_grads(model, x, ids)[0] == loss(model, x, ids)[0]

    def test_softmax_rows_sum_to_one(self):
        logits = SeededRng(8).normal((50, 7)) * 30
        p = softmax(logits)
        np.testing.assert_allclose(p.sum(axis=1), np.ones(50), atol=1e-12)

    def test_vae_kl_nonnegative(self):
        spec = ModelSpec(variant="subject", objective="vae", input_size=5,
                         first_layer_width=4, latent_size=3, n_subjects=3, trunk_widths=(6,))
        model = build_model(spec, seed=9)
        rng = SeededRng(10)
        for _ in range(10):
            x = rng.normal((4, 5)) * 3
            _, parts = loss(model, x, np.array([0, 1, 2, 0]), rng=rng)
            assert parts["kl"] >= 0.0


class TestLatentTraversal:
    def build(self, n_subjects=3, n=20, d=4):
        spec = ModelSpec(variant="decomposed", objective="autoencoder", input_size=n,
                         first_layer_width=5, latent_size=d, n_subjects=n_subjects,
                         trunk_widths=(6,))
        return build_model(spec, seed=17)

    def test_zero_grid_zero_bias_decoder(self):
        model = self.build()
        for layer in model.dec_layers:
            layer.b[...] = 0.0
        model.dec_map.bias[...] = 0.0
        out = latent_traversal(model, 0, [0.0])
        # z=0 flows through linear/tanh layers with zero bias to a zero reconstruction
        np.testing.assert_allclose(out, 0.0, atol=1e-14)

    def test_equal_subject_rows_equal_stacks(self):
        model = self.build()
        model.dec_map.s[1] = model.dec_map.s[0]
        out = latent_traversal(model, 1, np.linspace(-2, 2, 5), subject_idx=[0, 1])
        np.testing.assert_array_equal(out[0], out[1])

    def test_shapes(self):
        out = latent_traversal(self.build(), 2, np.linspace(-3, 3, 11))
        assert out.shape == (3, 11, 20)

    def test_dim_out_of_range(self):
        with pytest.raises(ShapeError, match=r"latent dim 4 out of range \[0, 4\)"):
            latent_traversal(self.build(), 4, [0.0])

    def test_classifier_rejected(self):
        spec = ModelSpec(variant="group", objective="classifier", input_size=2,
                         first_layer_width=2, latent_size=2, n_subjects=1, n_classes=2)
        with pytest.raises(ValueError):
            latent_traversal(build_model(spec, seed=0), 0, [0.0])


class TestSpecValidation:
    def test_classifier_latent_must_equal_classes(self):
        with pytest.raises(ValueError):
            ModelSpec(variant="group", objective="classifier", input_size=2,
                      first_layer_width=2, latent_size=3, n_subjects=1, n_classes=2)

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            ModelSpec(variant="shared", objective="autoencoder", input_size=2,
                      first_layer_width=2, latent_size=2, n_subjects=1)

    def test_spec_roundtrips_through_dict(self):
        spec = ModelSpec(variant="subject", objective="vae", input_size=6,
                         first_layer_width=4, latent_size=2, n_subjects=5,
                         trunk_widths=(8, 4), beta=0.5)
        assert ModelSpec(**asdict(spec)) == spec

    def test_build_model_deterministic(self):
        spec = ModelSpec(variant="decomposed", objective="autoencoder", input_size=6,
                         first_layer_width=4, latent_size=2, n_subjects=3, trunk_widths=(5,))
        a = build_model(spec, seed=123).params()
        b = build_model(spec, seed=123).params()
        assert all(np.array_equal(a[k], b[k]) for k in a)

    MAP_PARAMS = {"group": ["w", "bias"], "subject": ["w", "bias"],
                  "decomposed": ["v", "u", "s", "bias"]}

    @pytest.mark.parametrize("objective", ["classifier", "autoencoder", "vae"])
    @pytest.mark.parametrize("variant", ["group", "subject", "decomposed"])
    def test_param_names_and_order_pinned(self, variant, objective):
        # the checkpoint's blob names and order: renaming or reordering one breaks old files
        spec = ModelSpec(variant=variant, objective=objective, input_size=6, first_layer_width=4,
                         latent_size=2, n_subjects=3, trunk_widths=(5,),
                         n_classes=2 if objective == "classifier" else None)
        model = build_model(spec, seed=0)
        names = [f"enc_map.{p}" for p in self.MAP_PARAMS[variant]]
        names += ["enc.0.w", "enc.0.b", "enc.1.w", "enc.1.b"]
        if objective != "classifier":
            names += ["dec.0.w", "dec.0.b", "dec.1.w", "dec.1.b"]
            names += [f"dec_map.{p}" for p in self.MAP_PARAMS[variant]]
        assert list(model.params()) == names
        x = SeededRng(1).normal((5, 6))
        labels = np.array([0, 1, 0, 1, 1]) if objective == "classifier" else None
        grads = loss_and_grads(model, x, np.array([0, 1, 2, 0, 1]), labels, SeededRng(2))[2]
        assert sorted(grads) == sorted(names)

    def test_decomposed_u_initialized_orthonormal(self):
        spec = ModelSpec(variant="decomposed", objective="autoencoder", input_size=6,
                         first_layer_width=4, latent_size=2, n_subjects=3)
        model = build_model(spec, seed=3)
        for dmap in model.decomposed_maps():
            np.testing.assert_allclose(dmap.u.T @ dmap.u, np.eye(4), atol=1e-10)
            np.testing.assert_array_equal(dmap.s, np.ones((3, 4)))
