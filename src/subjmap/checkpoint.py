"""Model checkpoint container.

Layout: magic ``SMCP``, u32 header length, UTF-8 JSON header, zero padding
to an 8-byte boundary, then raw float64 little-endian blobs.  The header
records the model spec, subject ids, config hash, and per-blob name, shape,
offset and CRC32, so loads validate integrity before touching any weights.
Saving is deterministic: save -> load -> save reproduces the bytes exactly.

Neither direction copies the model.  Saving checksums and writes each
parameter's own buffer (a big-endian host keeps a little-endian copy of
each).  Loading reads the file's bytes once, then checks each blob and
copies it into its parameter through a ``memoryview`` slice of those bytes.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np

from .datasets import atomic_write
from .errors import ParseError, ShapeError
from .models import Model, ModelSpec, build_model

MAGIC = b"SMCP"
FORMAT_VERSION = 1


def save_model(model: Model, path, config_hash: str = "") -> None:
    blobs = []
    payloads = []
    offset = 0
    for name, arr in model.params().items():
        raw = np.ascontiguousarray(arr, dtype="<f8")  # the parameter itself, on little-endian
        blobs.append({
            "name": name,
            "shape": list(arr.shape),
            "offset": offset,
            "crc32": zlib.crc32(raw),
        })
        payloads.append(raw)
        offset += raw.nbytes

    header = {
        "format_version": FORMAT_VERSION,
        "spec": model.spec.to_dict(),
        "subject_ids": list(model.subject_ids),
        "init_seed": model.init_seed,
        "config_hash": config_hash,
        "blobs": blobs,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    prefix_len = len(MAGIC) + 4 + len(header_bytes)
    padding = (-prefix_len) % 8

    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(b"\x00" * padding)
        for raw in payloads:
            fh.write(raw)


def load_model(path) -> tuple[Model, str]:
    """Reconstruct a model; returns (model, config_hash)."""
    blob = Path(path).read_bytes()
    if blob[:4] != MAGIC:
        raise ParseError("bad magic; not a model checkpoint")
    if len(blob) < 8:
        raise ParseError(f"truncated header at byte {len(blob)}")
    (header_len,) = struct.unpack("<I", blob[4:8])
    header_end = 8 + header_len
    if len(blob) < header_end:
        raise ParseError(f"truncated header at byte {len(blob)}")
    try:
        header = json.loads(blob[8:header_end].decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"unreadable checkpoint header: {exc}") from exc
    if not isinstance(header, dict):
        raise ParseError("checkpoint header is not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise ParseError(f"checkpoint version {header.get('format_version')}")

    try:
        spec = ModelSpec(**header["spec"])
        init_seed = int(header.get("init_seed", 0))
        subject_ids = list(header["subject_ids"])
        # name -> (shape, offset, crc32)
        stored = {b["name"]: (tuple(b["shape"]), int(b["offset"]), int(b["crc32"]))
                  for b in header["blobs"]}
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed checkpoint header: {exc!r}") from exc
    model = build_model(spec, init_seed, subject_ids)
    params = model.params()
    data_start = header_end + ((-header_end) % 8)
    view = memoryview(blob)  # each blob is a slice of the file's bytes, not a copy

    if set(stored) != set(params):
        raise ShapeError(
            f"blob names {sorted(stored)} do not match model parameters {sorted(params)}")
    for name, arr in params.items():
        shape, offset, crc32 = stored[name]
        if shape != arr.shape:
            raise ShapeError(
                f"blob {name!r} has shape {list(shape)}, model expects {list(arr.shape)}")
        begin = data_start + offset
        end = begin + arr.size * 8
        if end > len(blob):
            raise ParseError(f"truncated blob {name!r} at byte {len(blob)}")
        raw = view[begin:end]
        if zlib.crc32(raw) != crc32:
            raise ParseError(f"blob {name!r} failed its checksum")
        arr[...] = np.frombuffer(raw, dtype="<f8").reshape(arr.shape)
    return model, header.get("config_hash", "")
