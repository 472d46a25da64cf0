"""Seeded byte-flip and truncation fuzzing of the .smds and .ckpt loaders.

Whatever the damage, a load either succeeds or raises a SubjmapError; a raw
numpy, struct or codec exception escaping would reach the CLI as an unnamed
runtime error.
"""

import numpy as np
import pytest

from subjmap.checkpoint import load_model, save_model
from subjmap.datasets import MultiSubjectDataset, SubjectData, load_dataset, save_dataset
from subjmap.errors import SubjmapError
from subjmap.linalg import SeededRng
from subjmap.models import ModelSpec, build_model

TRIALS = 1500


def mutants(blob: bytes, rng: SeededRng, trials: int):
    """Damaged copies of ``blob``: a random truncation, or 1-4 bytes overwritten.

    Half of the overwrites land in the first 256 bytes, where the headers
    are, and half of the new bytes are 0x00, 0x7f or 0xff, which make
    extreme counts and non-finite floats.
    """
    for _ in range(trials):
        if rng.uniform() < 0.2:
            yield blob[:int(rng.integers(0, len(blob)))]
            continue
        damaged = bytearray(blob)
        span = 256 if rng.uniform() < 0.5 else len(blob)
        for pos in rng.integers(0, min(span, len(blob)), int(rng.integers(1, 5))):
            if rng.uniform() < 0.5:
                damaged[pos] = (0x00, 0x7F, 0xFF)[int(rng.integers(0, 3))]
            else:
                damaged[pos] = int(rng.integers(0, 256))
        yield bytes(damaged)


def small_dataset(path):
    rng = SeededRng(1)
    save_dataset(MultiSubjectDataset([
        SubjectData("a", rng.normal((5, 3)), np.arange(5) % 2, 0),
        SubjectData("bb", rng.normal((5, 3)), None, None),
    ]), path)


def small_checkpoint(path):
    spec = ModelSpec(variant="decomposed", objective="autoencoder", input_size=3,
                     first_layer_width=2, latent_size=2, n_subjects=2, trunk_widths=(3,))
    save_model(build_model(spec, seed=4), path, config_hash="f" * 64)


@pytest.mark.parametrize("write,load", [(small_dataset, load_dataset),
                                        (small_checkpoint, load_model)],
                         ids=["smds", "ckpt"])
def test_damaged_file_raises_only_named_errors(tmp_path, write, load):
    path = tmp_path / "file"
    write(path)
    blob = path.read_bytes()
    for trial, damaged in enumerate(mutants(blob, SeededRng(2024), TRIALS)):
        path.write_bytes(damaged)
        try:
            load(path)
        except SubjmapError:
            pass
        except Exception as exc:
            pytest.fail(f"trial {trial}: {type(exc).__name__}: {exc}")
