"""Deterministic CSV export/import for trajectories and analysis reports.

Numbers are written with 17 significant digits (``%.17g``) so a written
double parses back bit-exactly; files are written atomically (temp file plus
rename). No field ever needs quoting, so rows are joined with commas. The
trajectory table is formatted in bulk, one block of ``evolution._stack_blocks``
per application of one row template, with the same bytes as formatting each
value on its own.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

from .analysis import QslReport, SweepRow
from .evolution import Trajectory, _stack_blocks


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to a new temp file beside ``path`` under a random name, created with
    mode 0o666 so that the kernel applies the umask as a plain ``open()`` does, and
    rename it into place."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _tracked_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The flat index pairs (r, s) whose coherence gets ``re_r_s`` and
    ``im_r_s`` columns: every upper-triangle pair while n <= 8, else only
    (0, n - 1)."""
    if n <= 8:
        return tuple((r, s) for r in range(n) for s in range(r + 1, n))
    return ((0, n - 1),)


def trajectory_header(traj: Trajectory) -> list[str]:
    n = traj.dim
    header = ["t"]
    header += [f"diag_{k}" for k in range(n)]
    for r, s in _tracked_pairs(n):
        header += [f"re_{r}_{s}", f"im_{r}_{s}"]
    header.append("entropy")
    header += [f"eig_{k}" for k in range(n)]
    header.append("trace_dist_to_target")
    return header


def write_trajectory_csv(path: str, traj: Trajectory) -> None:
    header = trajectory_header(traj)
    row = ",".join(["%.17g"] * len(header)) + "\n"
    chunks = [",".join(header) + "\n"]
    r, s = np.array(_tracked_pairs(traj.dim), dtype=int).reshape(-1, 2).T
    for rows in _stack_blocks(traj.states):
        coherences = traj.states[rows, r, s]
        table = np.column_stack((
            traj.times[rows],
            traj.diagonals[rows],
            # re_r_s, im_r_s per pair, as in the header
            np.stack((coherences.real, coherences.imag), axis=-1).reshape(len(coherences), -1),
            traj.entropy[rows],
            traj.eigenvalues[rows],
            traj.trace_dist[rows],
        ))
        chunks.append(row * len(table) % tuple(table.ravel().tolist()))
    atomic_write_text(path, "".join(chunks))


def read_csv_columns(path: str) -> dict[str, np.ndarray]:
    """Read any CSV written by this module back into named float columns; a
    blank field (a ``qsl.csv`` without a measured time) reads as NaN."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(x) if x else math.nan for x in row] for row in reader]
    data = np.asarray(rows, dtype=float) if rows else np.zeros((0, len(header)))
    return {name: data[:, k].copy() for k, name in enumerate(header)}


def _write_rows(path: str, rows) -> None:
    atomic_write_text(path, "".join(",".join(row) + "\n" for row in rows))


def write_sweep_csv(path: str, rows: list[SweepRow]) -> None:
    _write_rows(path, [
        ["gamma", "alignment_time", "gamma_times_tau"],
        *([_fmt(row.gamma), _fmt(row.alignment_time), _fmt(row.gamma_times_tau)] for row in rows),
    ])


def write_qsl_csv(path: str, report: QslReport) -> None:
    optional = (report.measured_alignment_time, report.ratio)
    _write_rows(path, [
        ["numerator", "denominator", "bound", "measured_tau", "ratio"],
        [_fmt(report.numerator), _fmt(report.denominator), _fmt(report.bound),
         *("" if x is None else _fmt(x) for x in optional)],
    ])


def write_spectrum_csv(path: str, eigenvalues: np.ndarray, stationary: np.ndarray) -> None:
    _write_rows(path, [
        ["index", "eigenvalue_re", "eigenvalue_im", "stationary_component"],
        *([str(k), _fmt(ev.real), _fmt(ev.imag), _fmt(stationary[k])]
          for k, ev in enumerate(eigenvalues)),
    ])
