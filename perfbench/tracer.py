"""In-memory span tracing of collapse_sim, recorded from outside the package.

The tracer replaces public names that the package looks up at call time
(module attributes such as ``collapse_sim.cli.simulate_model``, class
attributes such as ``DensityMatrix.__post_init__`` and the numpy kernels the
package calls through ``np.linalg``) with timing wrappers, and restores them
afterwards. Nothing inside the package changes. Spans stay in memory until
``layer_metrics`` turns them into per-layer numbers at the end of a run.

A span's parent is the innermost open span of the same thread. Sweep rows
run in worker threads that start with no open span; their parent is the
innermost span open on the main thread, which is the sweep itself.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager

import numpy as np

import collapse_sim
from collapse_sim import analysis, cli, evolution
from collapse_sim.model import MeasurementModel
from collapse_sim.states import DensityMatrix

# span name -> (span-time metric, self-time metric)
SPAN_METRICS = {
    "cli": ("cli.main_s", "cli.self_s"),
    "config.load": ("config.load_s", "config.load_self_s"),
    "model.build": ("model.build_s", "model.build_self_s"),
    "dissipator.family": ("dissipator.family_s", "dissipator.family_self_s"),
    "dissipator.apply": ("dissipator.apply_s", "dissipator.apply_self_s"),
    "evolution.simulate": ("evolution.simulate_s", "evolution.simulate_self_s"),
    "evolution.assemble": ("evolution.assemble_s", "evolution.assemble_self_s"),
    "evolution.propagate": ("evolution.propagate_s", "evolution.propagate_self_s"),
    "evolution.alignment": ("evolution.alignment_s", "evolution.alignment_self_s"),
    "states.eigvalsh": ("states.eigvalsh_s", "states.eigvalsh_self_s"),
    "states.density_check": ("states.density_check_s", "states.density_check_self_s"),
    "analysis.spectrum": ("analysis.spectrum_s", "analysis.spectrum_self_s"),
    "analysis.qsl": ("analysis.qsl_s", "analysis.qsl_self_s"),
    "analysis.sweep": ("analysis.sweep_s", "analysis.sweep_self_s"),
    "csvio.write": ("csvio.write_s", "csvio.write_self_s"),
    "svgplot.write": ("svgplot.write_s", "svgplot.write_self_s"),
}

# counters reported per traced op; the propagate_* ones are computed from the
# observed matrix_power exponents and shapes, not measured
COUNTERS = (
    "evolution.simulate_calls",
    "evolution.rhs_calls",
    "evolution.matrix_power_calls",
    "evolution.propagate_matmuls",
    "evolution.propagate_gflop",
    "evolution.propagate_bytes",
    "evolution.samples",
    "evolution.n_steps",
    "dissipator.apply_calls",
    "states.eigvalsh_calls",
    "states.density_checks",
    "csvio.bytes",
    "svgplot.bytes",
)
COMPUTED = frozenset(
    ("evolution.propagate_matmuls", "evolution.propagate_gflop", "evolution.propagate_bytes")
)


def matrix_power_cost(shape, dtype, k: int) -> dict:
    """Matrix products numpy.linalg.matrix_power performs for exponent ``k``
    (binary decomposition: one squaring per bit after the first, one
    multiply per set bit after the first), with their flops and bytes.

    A complex N x N product counts 8 N^3 flops, a real one 2 N^3. Bytes are
    two operands read and one result written, ignoring caches.
    """
    k = abs(int(k))
    matmuls = max(k.bit_length() + bin(k).count("1") - 2, 0)
    n = shape[-1]
    flops_per = (8 if np.issubdtype(dtype, np.complexfloating) else 2) * n**3
    return {
        "evolution.propagate_matmuls": matmuls,
        "evolution.propagate_gflop": matmuls * flops_per / 1e9,
        "evolution.propagate_bytes": matmuls * 3 * n * n * np.dtype(dtype).itemsize,
    }


def _trajectory_counts(args, kwargs, traj):
    return {"evolution.samples": len(traj.times), "evolution.n_steps": traj.n_steps}


def _written_bytes(counter):
    def after(args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        return {counter: os.path.getsize(path)}
    return after


def _matrix_power_counts(args, kwargs, result):
    a, k = args
    a = np.asarray(a)
    return matrix_power_cost(a.shape, a.dtype, k)


# (owner, attribute, span name, call counter, extra counts from the call)
_TARGETS = [
    (cli, "main", "cli", None, None),
    (cli, "load_run_config", "config.load", None, None),
    (MeasurementModel, "__init__", "model.build", None, None),
    (MeasurementModel, "rate_table", "model.build", None, None),
    (MeasurementModel, "initial_dm", "model.build", None, None),
    (MeasurementModel, "aligned_target", "model.build", None, None),
    (cli, "lindblad_jump_family", "dissipator.family", None, None),
    (evolution, "lindblad_jump_family", "dissipator.family", None, None),
    (evolution, "apply_dissipator", "dissipator.apply", "dissipator.apply_calls", None),
    (collapse_sim, "simulate_model", "evolution.simulate", "evolution.simulate_calls",
     _trajectory_counts),
    (cli, "simulate_model", "evolution.simulate", "evolution.simulate_calls", _trajectory_counts),
    (analysis, "simulate_model", "evolution.simulate", "evolution.simulate_calls",
     _trajectory_counts),
    (cli, "master_rhs", "evolution.assemble", "evolution.rhs_calls", None),
    (evolution, "master_rhs", "evolution.assemble", "evolution.rhs_calls", None),
    (np.linalg, "matrix_power", "evolution.propagate", "evolution.matrix_power_calls",
     _matrix_power_counts),
    (collapse_sim, "alignment_time", "evolution.alignment", None, None),
    (cli, "alignment_time", "evolution.alignment", None, None),
    (analysis, "alignment_time", "evolution.alignment", None, None),
    (np.linalg, "eigvalsh", "states.eigvalsh", "states.eigvalsh_calls", None),
    (DensityMatrix, "__post_init__", "states.density_check", "states.density_checks", None),
    (cli, "diag_generator_matrix", "analysis.spectrum", None, None),
    (cli, "generator_spectrum", "analysis.spectrum", None, None),
    (cli, "qsl_lower_bound", "analysis.qsl", None, None),
    (cli, "gamma_sweep", "analysis.sweep", None, None),
    (cli, "write_trajectory_csv", "csvio.write", None, _written_bytes("csvio.bytes")),
    (cli, "write_spectrum_csv", "csvio.write", None, _written_bytes("csvio.bytes")),
    (cli, "write_qsl_csv", "csvio.write", None, _written_bytes("csvio.bytes")),
    (cli, "write_sweep_csv", "csvio.write", None, _written_bytes("csvio.bytes")),
    (cli, "write_line_plot", "svgplot.write", None, _written_bytes("svgplot.bytes")),
]


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts = {name: 0 for name in COUNTERS}
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident

    def _open(self, name: str) -> int | None:
        ident = threading.get_ident()
        stack = self._stacks.setdefault(ident, [])
        if any(self.spans[i][0] == name for i in stack):
            return None  # nested call of the same layer: counted once, by the outer span
        if stack:
            parent = stack[-1]
        else:
            main_stack = self._stacks.get(self._main) if ident != self._main else None
            parent = main_stack[-1] if main_stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
        stack.append(index)
        return index

    def _close(self, index: int | None) -> None:
        if index is None:
            return
        self.spans[index][2] = time.perf_counter()
        self._stacks[threading.get_ident()].pop()

    def _add(self, counts: dict) -> None:
        with self._lock:
            for key, value in counts.items():
                self.counts[key] += value

    def _wrap(self, fn, name, counter, extra):
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
                if counter is not None:
                    self._add({counter: 1})
            if extra is not None:
                self._add(extra(args, kwargs, result))
            return result
        return wrapper

    @contextmanager
    def installed(self):
        """Trace every call made inside the block."""
        saved = []
        try:
            for owner, attr, name, counter, extra in _TARGETS:
                fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, counter, extra))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def _self_times(self) -> list[float]:
        children: dict[int, list[int]] = {}
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent is not None:
                children.setdefault(parent, []).append(i)
        out = []
        for i, (_, start, end, _) in enumerate(self.spans):
            covered = 0.0
            cursor = start
            for lo, hi in sorted((self.spans[c][1], self.spans[c][2]) for c in children.get(i, ())):
                lo, hi = max(lo, cursor), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append((end - start) - covered)
        return out

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-op means of every span time, self time and counter, plus the
        sweep parallelism (summed row spans over sweep wall time). A span
        that never fired reads 0."""
        per_op = 1.0 / max(n_ops, 1)
        metrics = {}
        for span_metric, self_metric in SPAN_METRICS.values():
            metrics[span_metric] = 0.0
            metrics[self_metric] = 0.0
        selfs = self._self_times()
        sweep_wall = rows = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            span_metric, self_metric = SPAN_METRICS[name]
            metrics[span_metric] += (end - start) * per_op
            metrics[self_metric] += selfs[i] * per_op
            if name == "analysis.sweep":
                sweep_wall += end - start
            elif parent is not None and self.spans[parent][0] == "analysis.sweep":
                rows += end - start
        for key, value in self.counts.items():
            metrics[key] = value * per_op
        metrics["analysis.sweep_parallelism"] = rows / sweep_wall if sweep_wall else 0.0
        return metrics
