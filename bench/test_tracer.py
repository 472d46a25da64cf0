"""Self-test of the tracer: patch sites, flop accounting, uninstall.

    python3 -m pytest -q bench/test_tracer.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from subjmap import maps, models, training  # noqa: E402
from subjmap.models import ModelSpec, build_model  # noqa: E402

from benchstats import aggregate, layer_value  # noqa: E402
from tracer import Tracer  # noqa: E402

B, N, L = 4, 6, 3


@pytest.fixture
def decomposed_ae():
    spec = ModelSpec(variant="decomposed", objective="autoencoder", input_size=N,
                     first_layer_width=L, latent_size=2, n_subjects=2, trunk_widths=(4,))
    model = build_model(spec, seed=1)
    x = np.random.default_rng(0).normal(size=(B, N))
    return model, x, np.array([0, 1, 0, 1])


def test_spans_and_map_flops_of_one_step(tmp_path, decomposed_ae):
    model, x, idx = decomposed_ae
    tracer = Tracer(tmp_path)
    tracer.install(full=True)
    try:
        # called the way the training loop looks the name up
        training.loss_and_grads(model, x, idx)
    finally:
        tracer.uninstall()
    agg = aggregate(tracer.take())

    assert agg["models.loss_and_grads"]["calls"] == 1
    assert agg["maps.DecomposedMap.forward"]["calls"] == 2
    assert agg["maps.DecomposedMap.backward"]["calls"] == 2
    assert agg["models.DenseLayer.forward"]["calls"] == 4
    # forward, both maps: 2*B*L*(N + L) each
    fwd = 2 * (2 * B * L * (N + L))
    # input map backward: recompute + grad_x wasted
    enc_bwd, enc_waste = 6 * B * N * L + 4 * B * L * L, 4 * B * N * L
    # output map backward: only the recomputed forward product is wasted
    dec_bwd, dec_waste = 6 * B * L * L + 4 * B * N * L, 2 * B * L * L
    total = fwd + enc_bwd + dec_bwd
    assert layer_value(agg, "maps.DecomposedMap.gflop") == pytest.approx(total / 1e9)
    assert layer_value(agg, "maps.wasted_gflop_frac") == pytest.approx(
        (enc_waste + dec_waste) / total)
    # the span covers its children, so self time is never negative
    assert 0 <= agg["models.loss_and_grads"]["self_s"] <= agg["models.loss_and_grads"]["s"]


def test_uninstall_restores_every_patch_site(tmp_path):
    originals = (training.loss_and_grads, training.qr_orthonormalize,
                 maps.DecomposedMap.__dict__["forward"], models.DenseLayer.__dict__["backward"])
    tracer = Tracer(tmp_path)
    tracer.install(full=True)
    assert training.loss_and_grads is not originals[0]
    assert training.qr_orthonormalize is not originals[1]
    tracer.uninstall()
    assert (training.loss_and_grads, training.qr_orthonormalize,
            maps.DecomposedMap.__dict__["forward"],
            models.DenseLayer.__dict__["backward"]) == originals


def test_untraced_mode_wraps_only_the_sweep(tmp_path):
    before = training.loss_and_grads
    tracer = Tracer(tmp_path)
    tracer.install(full=False)
    try:
        assert training.loss_and_grads is before
        assert training.hyperparameter_sweep.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert not hasattr(training.hyperparameter_sweep, "__wrapped__")
