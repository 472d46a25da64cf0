import json
import re
import tracemalloc
import zlib

import numpy as np
import pytest

from subjmap.checkpoint import load_model, save_model
from subjmap.errors import ParseError
from subjmap.linalg import SeededRng
from subjmap.models import ModelSpec, build_model, loss


def make_model(variant="decomposed", objective="autoencoder"):
    spec = ModelSpec(variant=variant, objective=objective, input_size=6,
                     first_layer_width=4, latent_size=2, n_subjects=3, trunk_widths=(5,),
                     n_classes=2 if objective == "classifier" else None)
    if objective == "classifier":
        spec = ModelSpec(variant=variant, objective=objective, input_size=6,
                         first_layer_width=4, latent_size=2, n_subjects=3, trunk_widths=(5,),
                         n_classes=2)
    model = build_model(spec, seed=77)
    # perturb away from init so the blobs are non-trivial
    rng = SeededRng(5)
    for arr in model.params().values():
        arr += 0.01 * rng.normal(arr.shape)
    return model


class TestRoundtrip:
    def test_parameters_and_behavior_survive(self, tmp_path):
        model = make_model()
        path = tmp_path / "m.ckpt"
        save_model(model, path, config_hash="abc123")
        loaded, config_hash = load_model(path)
        assert config_hash == "abc123"
        assert loaded.spec == model.spec
        assert loaded.subject_ids == model.subject_ids
        for k, v in model.params().items():
            np.testing.assert_array_equal(loaded.params()[k], v)
        x = SeededRng(1).normal((4, 6))
        ids = np.array([0, 1, 2, 0])
        assert loss(model, x, ids)[0] == loss(loaded, x, ids)[0]

    def test_save_load_save_is_byte_identical(self, tmp_path):
        model = make_model()
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_model(model, first, config_hash="h")
        loaded, h = load_model(first)
        save_model(loaded, second, config_hash=h)
        assert first.read_bytes() == second.read_bytes()

    def test_blobs_are_the_parameters_bytes(self, tmp_path):
        # the layout written out by hand: magic, header, padding, each parameter's bytes
        model = make_model()
        path = tmp_path / "m.ckpt"
        save_model(model, path, config_hash="h")
        raw = path.read_bytes()
        header_len = int.from_bytes(raw[4:8], "little")
        header = json.loads(raw[8:8 + header_len])
        data_start = 8 + header_len + (-(8 + header_len)) % 8
        assert raw[8 + header_len:data_start] == b"\x00" * (data_start - 8 - header_len)
        assert raw[data_start:] == b"".join(
            arr.astype("<f8").tobytes() for arr in model.params().values())
        offset = 0
        for blob, (name, arr) in zip(header["blobs"], model.params().items()):
            chunk = arr.astype("<f8").tobytes()
            assert blob == {"name": name, "shape": list(arr.shape), "offset": offset,
                            "crc32": zlib.crc32(chunk)}
            offset += len(chunk)

    @pytest.mark.parametrize("variant,objective", [
        ("group", "vae"), ("subject", "autoencoder"), ("decomposed", "classifier")])
    def test_all_variants(self, tmp_path, variant, objective):
        model = make_model(variant, objective)
        path = tmp_path / "m.ckpt"
        save_model(model, path)
        loaded, _ = load_model(path)
        for k, v in model.params().items():
            np.testing.assert_array_equal(loaded.params()[k], v)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("variant", ["decomposed", "group"])
def test_io_makes_no_model_sized_copy(tmp_path, variant):
    # saving held a bytes copy of every parameter until it wrote, and loading
    # copied each blob out of the file's bytes before checking its CRC
    model = build_model(ModelSpec(variant, "autoencoder", 8192, 16, 2, 3, (16,)), seed=1)
    sizes = [arr.nbytes for arr in model.params().values()]
    path = tmp_path / "m.ckpt"
    save_peak = _traced_peak(save_model, model, path)[1]
    assert save_peak < sum(sizes) / 10
    (loaded, _), load_peak = _traced_peak(load_model, path)
    # the model it builds plus the file's bytes; a copy of the largest blob is half again
    assert load_peak < 2 * sum(sizes) + max(sizes) / 2
    for k, v in model.params().items():
        np.testing.assert_array_equal(loaded.params()[k], v)


class TestCorruption:
    def test_flipped_blob_byte_names_blob(self, tmp_path):
        model = make_model()
        path = tmp_path / "m.ckpt"
        save_model(model, path)
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0xFF  # inside the last blob's payload
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="failed its checksum") as err:
            load_model(path)
        assert "dec_map" in str(err.value)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(ParseError):
            load_model(path)

    def test_truncated_file(self, tmp_path):
        model = make_model()
        path = tmp_path / "m.ckpt"
        save_model(model, path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(ParseError):
            load_model(path)

    def test_version_gate(self, tmp_path):
        model = make_model()
        path = tmp_path / "m.ckpt"
        save_model(model, path)
        raw = path.read_bytes()
        swapped = raw.replace(b'"format_version":1', b'"format_version":9', 1)
        assert swapped != raw
        path.write_bytes(swapped)
        with pytest.raises(ParseError, match="checkpoint version 9"):
            load_model(path)

    @pytest.mark.parametrize("old,new", [
        (b'"variant":"decomposed"', b'"variant":"decomposee"'),
        (b'"spec":', b'"spex":'),
        (b'"first_layer_width":4', b'"first_layer_width":0'),
        (b'"blobs":', b'"blobz":'),
    ])
    def test_malformed_header_field(self, tmp_path, old, new):
        model = make_model()
        path = tmp_path / "m.ckpt"
        save_model(model, path)
        raw = path.read_bytes()
        patched = raw.replace(old, new, 1)
        assert patched != raw and len(patched) == len(raw)
        path.write_bytes(patched)
        with pytest.raises(ParseError, match="malformed checkpoint header"):
            load_model(path)

    def test_overflowing_header_number(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_model(make_model(), path)
        raw = path.read_bytes()
        # "crc32":3094130263 -> "crc32":3e94130263, a float too large for int()
        patched = re.sub(rb'("crc32":\d)\d', rb"\1e", raw, count=1)
        assert patched != raw and len(patched) == len(raw)
        path.write_bytes(patched)
        with pytest.raises(ParseError, match="malformed checkpoint header"):
            load_model(path)

    def test_header_not_an_object(self, tmp_path):
        model = make_model()
        path = tmp_path / "m.ckpt"
        save_model(model, path)
        raw = path.read_bytes()
        header_len = int.from_bytes(raw[4:8], "little")
        path.write_bytes(raw[:8] + b"[" + b" " * (header_len - 2) + b"]" + raw[8 + header_len:])
        with pytest.raises(ParseError, match="not a JSON object"):
            load_model(path)

    def test_spec_not_an_object(self, tmp_path):
        # ModelSpec(**spec) raises TypeError for a non-mapping, which is a malformed header
        path = tmp_path / "m.ckpt"
        save_model(make_model(), path)
        raw = path.read_bytes()
        start = raw.index(b'"spec":{') + len(b'"spec":')
        end = raw.index(b"}", start) + 1
        path.write_bytes(raw[:start] + b"[" + b" " * (end - start - 2) + b"]" + raw[end:])
        with pytest.raises(ParseError, match="malformed checkpoint header: TypeError"):
            load_model(path)
