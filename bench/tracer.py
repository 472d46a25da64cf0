"""Spans around the public functions of each subjmap module, from outside the package.

Modules import these names directly (``from .linalg import svd_small``), so a
wrapper has to replace the name in every module that looks it up.
``Tracer.install`` finds each target function object in every loaded
``subjmap`` module and swaps in a wrapper; methods of the map classes,
``DenseLayer`` and ``Adam`` are patched on the class.  ``uninstall`` puts the
originals back.

A span is ``[name, start, end, parent, extra]`` where ``parent`` indexes the
enclosing span of the same process (or -1) and ``extra`` holds counts taken at
the boundary (bytes, flops, steps).  Spans stay in memory; the owner turns
them into per-layer metrics with ``benchstats.aggregate``.

Sweep cells run in workers forked by the sweep's process pool.  Workers
inherit the patched modules, so ``training._sweep_cell`` is wrapped too: in a
worker it starts an empty span list and writes the cell's spans to
``spill_dir`` when the cell ends, and the owner collects those files with
``collect_spilled``.  The traced sweep therefore runs with the same worker
count and thread policy as the untraced one.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time
from pathlib import Path

MIB = 1024.0 * 1024.0


def _file_mb(path) -> float:
    return os.path.getsize(path) / MIB


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


# --- map flop counts (matmul and einsum products only) --------------------------

def _map_dims(m, x):
    rows = x.shape[0]
    if m.variant == "decomposed":
        return rows, m.n_in, m.n_out, m.n_hidden
    return rows, m.n_in, m.n_out, None


def _map_forward_flops(m, x) -> float:
    b, n_in, n_out, hidden = _map_dims(m, x)
    if hidden is None:
        return 2.0 * b * n_in * n_out
    return 2.0 * b * hidden * (n_in + n_out)


def _map_backward_flops(m, x, is_input_map: bool) -> tuple[float, float]:
    """(total, wasted) flops of one backward call.

    Wasted: the input map's ``grad_x``, which the loss discards, and the
    forward product ``x @ first`` that the decomposed backward recomputes.
    """
    b, n_in, n_out, hidden = _map_dims(m, x)
    if hidden is None:
        grad_w = 2.0 * b * n_in * n_out
        grad_x = 2.0 * b * n_in * n_out
        return grad_w + grad_x, grad_x if is_input_map else 0.0
    recompute = 2.0 * b * n_in * hidden
    grad_second = 4.0 * b * n_out * hidden      # g.T @ scaled and g @ second
    grad_first = 2.0 * b * n_in * hidden
    grad_x = 2.0 * b * n_in * hidden
    total = recompute + grad_second + grad_first + grad_x
    return total, recompute + (grad_x if is_input_map else 0.0)


class Tracer:
    """Installs span-recording wrappers and holds the spans of this process."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.owner_pid = os.getpid()
        self.input_map = None      # enc_map of the model inside loss_and_grads
        self._undo: list[tuple] = []
        self._spilled = 0

    # --- recording ----------------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name, fn, extra=None, before=None):
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self.stack.pop()
            if extra is not None:
                rec[4] = extra(args, out, token)
            return out
        return wrapper

    def take(self) -> list[list]:
        """Hand over this process's spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans

    def collect_spilled(self) -> list[list[list]]:
        """Span lists written by sweep workers since the last call, one per cell."""
        out = []
        for path in sorted(self.spill_dir.glob("cell-*.json")):
            out.append(json.loads(path.read_text(encoding="utf-8")))
            path.unlink()
        return out

    # --- patching -------------------------------------------------------------------

    def _replace_function(self, fn, wrapper) -> None:
        for module in [m for name, m in sys.modules.items()
                       if name == "subjmap" or name.startswith("subjmap.")]:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, fn))

    def _replace_method(self, cls, method: str, wrapper) -> None:
        self._undo.append((cls, method, cls.__dict__[method]))
        setattr(cls, method, wrapper)

    def install(self, full: bool) -> None:
        """Wrap every target, or with ``full=False`` only the sweep (one span per sweep)."""
        from subjmap import checkpoint, datasets, evaluation, linalg, maps, models, stats, training

        def file_arg(i):
            return lambda args, out, token: {"mb": _file_mb(args[i])}

        def sweep_before(args):
            return _children_cpu_s()

        def sweep_extra(args, out, token):
            return {"cells": len(out.rows), "errors": sum(1 for r in out.rows if r["error"]),
                    "cpu_s": _children_cpu_s() - token}

        def loss_before(args):
            previous, self.input_map = self.input_map, args[0].enc_map
            return previous

        def loss_extra(args, out, previous):
            self.input_map = previous
            return None

        functions = [
            (datasets.load_dataset, "datasets.load_dataset", file_arg(0), None),
            (datasets.save_dataset, "datasets.save_dataset", file_arg(1), None),
            (datasets.split, "datasets.split", None, None),
            (datasets.stacked, "datasets.stacked",
             lambda args, out, token: {"mb": out[0].nbytes / MIB}, None),
            (checkpoint.save_model, "checkpoint.save_model", file_arg(1), None),
            (checkpoint.load_model, "checkpoint.load_model", file_arg(0), None),
            (training.hyperparameter_sweep, "training.hyperparameter_sweep",
             sweep_extra, sweep_before),
            (training.train, "training.train",
             lambda args, out, token: {"steps": out[1].n_steps, "epochs": out[1].n_epochs},
             None),
            (training.finetune_subjects, "training.finetune_subjects",
             lambda args, out, token: {"steps": out.history.n_steps}, None),
            (training.evaluate_loss, "training.evaluate_loss", None, None),
            (models.loss_and_grads, "models.loss_and_grads", loss_extra, loss_before),
            (models.encode, "models.encode", None, None),
            (models.decode, "models.decode", None, None),
            (models.latent_traversal, "models.latent_traversal", None, None),
            (linalg.qr_orthonormalize, "linalg.qr_orthonormalize", None, None),
            (linalg.svd_small, "linalg.svd_small", None, None),
            (linalg.pca, "linalg.pca", None, None),
            (stats.group_difference_pipeline, "stats.group_difference_pipeline", None, None),
            (stats.fastica, "stats.fastica",
             lambda args, out, token: {"iterations": out.n_iter,
                                       "converged": int(out.converged)}, None),
            (stats.welch_t_test, "stats.welch_t_test", None, None),
            (stats.bh_fdr, "stats.bh_fdr", None, None),
            (evaluation.probe_classify, "evaluation.probe_classify", None, None),
        ]
        for fn, name, extra, before in functions:
            if full or name == "training.hyperparameter_sweep":
                self._replace_function(fn, self._wrap(name, fn, extra, before))
        if not full:
            return

        self._replace_function(training._sweep_cell, self._cell_wrapper(training._sweep_cell))
        self._replace_method(training.Adam, "step",
                             self._wrap("training.Adam.step", training.Adam.step))
        for method in ("forward", "backward"):
            self._replace_method(models.DenseLayer, method, self._wrap(
                f"models.DenseLayer.{method}", getattr(models.DenseLayer, method)))
        for cls in (maps.GroupMap, maps.SubjectMap, maps.DecomposedMap):
            name = f"maps.{cls.__name__}"
            self._replace_method(cls, "forward", self._wrap(
                f"{name}.forward", cls.forward,
                lambda args, out, token: {"gflop": _map_forward_flops(args[0], args[1]) / 1e9}))
            self._replace_method(cls, "backward", self._wrap(
                f"{name}.backward", cls.backward, self._backward_extra))

    def _backward_extra(self, args, out, token):
        total, wasted = _map_backward_flops(args[0], args[1], args[0] is self.input_map)
        return {"gflop": total / 1e9, "wasted_gflop": wasted / 1e9}

    def _cell_wrapper(self, fn):
        @functools.wraps(fn)
        def cell(job):
            if os.getpid() == self.owner_pid:
                return fn(job)
            # forked sweep worker: record this cell's spans alone, then spill them
            self.spans, self.stack = [], []
            try:
                return fn(job)
            finally:
                self._spilled += 1
                path = self.spill_dir / f"cell-{os.getpid()}-{self._spilled:05d}.json"
                tmp = path.with_suffix(".tmp")
                tmp.write_text(json.dumps(self.spans), encoding="utf-8")
                os.replace(tmp, path)
                self.spans = []
        return cell

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []
