import csv
import io
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from collapse_sim import IntegratorConfig, simulate_model
from collapse_sim.analysis import QslReport, SweepRow
from collapse_sim.csvio import (
    _tracked_pairs,
    atomic_write_text,
    read_csv_columns,
    trajectory_header,
    write_qsl_csv,
    write_sweep_csv,
    write_trajectory_csv,
)
from collapse_sim.evolution import Trajectory
from collapse_sim.svgplot import _MARGIN_BOTTOM, _MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP
from collapse_sim.svgplot import HEIGHT, WIDTH, render_line_plot, write_line_plot
from conftest import random_amplitude_model, stack_block


@pytest.fixture(scope="module")
def short_trajectory(two_level_model):
    return simulate_model(two_level_model, IntegratorConfig(t_max=0.05), mode="full")


def per_value_trajectory_csv(traj) -> str:
    """The trajectory writer as it was before bulk formatting: one
    ``format(x, ".17g")`` per value, rows through ``csv.writer``."""
    def fmt(x):
        return format(float(x), ".17g")

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(trajectory_header(traj))
    for k in range(traj.times.size):
        row = [fmt(traj.times[k])]
        row += [fmt(traj.states[k, c, c].real) for c in range(traj.dim)]
        for r, s in _tracked_pairs(traj.dim):
            row += [fmt(traj.states[k, r, s].real), fmt(traj.states[k, r, s].imag)]
        row.append(fmt(traj.entropy[k]))
        row += [fmt(traj.eigenvalues[k, c]) for c in range(traj.dim)]
        row.append(fmt(traj.trace_dist[k]))
        writer.writerow(row)
    return buf.getvalue()


def synthetic_trajectory(n_rows, n):
    """A trajectory whose columns cycle through values that stress the
    shortest round-trip digits: signed zero, subnormals, huge and tiny
    magnitudes, and fractions without a short decimal form. The diagonal
    and upper-triangle entries of ``states`` are set through ``.real`` and
    ``.imag``, which keeps every bit of those values."""
    special = np.array([-0.0, 5e-324, 1e-300, 0.1, 1.0 / 3.0, 1e16, 1e17,
                        -2.5e-310, 6.02e23, -1.0, 0.0, 2.0**-52])
    rng = np.random.default_rng(3)
    diag = np.arange(n)
    upper = np.triu_indices(n, k=1)

    def column(*shape):
        size = int(np.prod(shape))
        values = np.where(rng.random(size) < 0.5, np.resize(special, size),
                          rng.normal(size=size) * 10.0 ** rng.integers(-20, 20, size))
        return values.reshape(shape)

    times = column(n_rows)
    states = np.zeros((n_rows, n, n), dtype=complex)
    states.real[:, diag, diag] = column(n_rows, n)
    states.real[:, upper[0], upper[1]] = column(n_rows, upper[0].size)
    states.imag[:, upper[0], upper[1]] = column(n_rows, upper[0].size)
    traj = Trajectory(times=times, states=states, target=np.zeros((n, n), dtype=complex),
                      dt=0.1, n_steps=n_rows)
    # the derived series are computed on first read; set special-value columns in their place
    for name, shape in (("entropy", (n_rows,)), ("eigenvalues", (n_rows, n)),
                        ("trace_dist", (n_rows,))):
        traj.__dict__[name] = column(*shape)
    return traj


class TestCsvFormat:
    def test_seventeen_digits_round_trip(self):
        rng = np.random.default_rng(42)
        values = list(rng.normal(size=50)) + [1.0 / 3.0, 1e-300, 2**-52, 6.02e23]
        for x in values:
            assert float(format(float(x), ".17g")) == float(x)

    def test_header_contract(self, short_trajectory):
        header = trajectory_header(short_trajectory)
        assert header[0] == "t"
        assert header[1:5] == ["diag_0", "diag_1", "diag_2", "diag_3"]
        assert header[5:7] == ["re_0_1", "im_0_1"]
        assert "entropy" in header
        assert header[-5:] == ["eig_0", "eig_1", "eig_2", "eig_3", "trace_dist_to_target"]

    def test_trajectory_round_trip(self, tmp_path, short_trajectory):
        path = str(tmp_path / "trajectory.csv")
        write_trajectory_csv(path, short_trajectory)
        cols = read_csv_columns(path)
        assert np.array_equal(cols["t"], short_trajectory.times)
        for k in range(4):
            assert np.array_equal(cols[f"diag_{k}"], short_trajectory.diagonals[:, k])
            assert np.array_equal(cols[f"eig_{k}"], short_trajectory.eigenvalues[:, k])
        assert np.array_equal(cols["entropy"], short_trajectory.entropy)
        assert np.array_equal(cols["trace_dist_to_target"], short_trajectory.trace_dist)
        # every pair at n = 4, each column bit for bit equal to its stack entry
        pairs = [(r, s) for r in range(4) for s in range(r + 1, 4)]
        assert [name for name in cols if name.startswith("re_")] == [f"re_{r}_{s}" for r, s in pairs]
        for r, s in pairs:
            coherence = short_trajectory.states[:, r, s]
            assert cols[f"re_{r}_{s}"].tobytes() == coherence.real.tobytes()
            assert cols[f"im_{r}_{s}"].tobytes() == coherence.imag.tobytes()

    def test_reference_trajectory_matches_per_value_writer(self, tmp_path, two_level_trajectory):
        assert len(_tracked_pairs(two_level_trajectory.dim)) == 6
        self._assert_matches_oracle(tmp_path, two_level_trajectory)

    def test_fast_amplitude_trajectory_matches_per_value_writer(self, tmp_path):
        model = random_amplitude_model(np.random.default_rng(7), 3, 3)
        traj = simulate_model(model, IntegratorConfig(t_max=0.5), mode="fast")
        assert traj.dim == 9 and _tracked_pairs(traj.dim) == ((0, 8),)
        self._assert_matches_oracle(tmp_path, traj)

    # the last: two blocks of the rule at n = 3, 910 rows each, and 3 rows
    @pytest.mark.parametrize("n_rows", [0, 1, 7, 2 * stack_block(3) + 3])
    def test_synthetic_trajectory_matches_per_value_writer(self, tmp_path, n_rows):
        self._assert_matches_oracle(tmp_path, synthetic_trajectory(n_rows, 3))

    @staticmethod
    def _assert_matches_oracle(tmp_path, traj):
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(str(path), traj)
        assert path.read_bytes() == per_value_trajectory_csv(traj).encode()

    def test_sweep_and_qsl_headers(self, tmp_path):
        sweep_path = str(tmp_path / "sweep.csv")
        write_sweep_csv(sweep_path, [SweepRow(2.5, 0.8, 2.0)])
        with open(sweep_path) as fh:
            assert fh.readline().strip() == "gamma,alignment_time,gamma_times_tau"
        qsl_path = str(tmp_path / "qsl.csv")
        write_qsl_csv(qsl_path, QslReport(0.6, 100.0, 0.006, measured_alignment_time=0.4))
        with open(qsl_path) as fh:
            assert fh.readline().strip() == "numerator,denominator,bound,measured_tau,ratio"
        cols = read_csv_columns(qsl_path)
        assert cols["ratio"][0] == pytest.approx(0.4 / 0.006)

    def test_qsl_without_measured_time_reads_back(self, tmp_path):
        # the two optional fields are written blank and read back as NaN
        path = str(tmp_path / "qsl.csv")
        write_qsl_csv(path, QslReport(0.6, 100.0, 0.006))
        cols = read_csv_columns(path)
        assert [cols[name].tolist() for name in ("numerator", "denominator", "bound")] == [
            [0.6], [100.0], [0.006]]
        assert np.isnan(cols["measured_tau"]).all() and cols["measured_tau"].shape == (1,)
        assert np.isnan(cols["ratio"]).all() and cols["ratio"].shape == (1,)

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "payload\n")
        with open(path) as fh:
            assert fh.read() == "payload\n"
        assert sorted(os.listdir(tmp_path)) == ["out.txt"]

    def test_atomic_write_leaves_the_umask_alone(self, tmp_path, monkeypatch):
        # reading the umask sets it, and a file another thread creates meanwhile gets that mode
        def forbidden(*args):
            raise AssertionError("os.umask was called")

        monkeypatch.setattr(os, "umask", forbidden)
        atomic_write_text(str(tmp_path / "out.txt"), "payload\n")
        assert (tmp_path / "out.txt").read_text() == "payload\n"

    @pytest.mark.parametrize("failing", ["write", "rename"])
    def test_failed_atomic_write_leaves_no_temp_file(self, tmp_path, monkeypatch, failing):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "old\n")
        text = "new\n"
        if failing == "write":
            text = "\ud800"  # a lone surrogate: no codec writes it
        else:
            def refused(*args):
                raise OSError("rename refused")

            monkeypatch.setattr(os, "replace", refused)
        with pytest.raises((UnicodeError, OSError)):
            atomic_write_text(path, text)
        assert sorted(os.listdir(tmp_path)) == ["out.txt"]
        with open(path) as fh:
            assert fh.read() == "old\n"


class TestSvgPlots:
    def test_render_is_well_formed_svg(self):
        x = np.linspace(0.0, 1.0, 20)
        doc = render_line_plot(
            [("a", x, np.sin(x)), ("b", x, np.cos(x))],
            title="two curves", xlabel="x", ylabel="y",
        )
        root = ET.fromstring(doc)
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 2

    def test_write_line_plot(self, tmp_path):
        path = str(tmp_path / "plot.svg")
        x = np.linspace(0.0, 2.0, 10)
        write_line_plot(path, [("curve", x, x**2)], title="t", xlabel="x", ylabel="y")
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")

    def test_flat_series_does_not_crash(self):
        x = np.array([0.0, 1.0])
        doc = render_line_plot([("flat", x, np.zeros(2))], title="", xlabel="", ylabel="")
        assert "polyline" in doc

    def test_one_point_series_gets_a_unit_wide_x_axis(self):
        # one x value spans no range: the axis widens to [x, x + 1], with the point at its left end
        doc = render_line_plot([("point", [0.5], [2.0])], title="", xlabel="", ylabel="")
        root = ET.fromstring(doc)
        (polyline,) = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert polyline.get("points").startswith("64.00,")
        x_labels = [el.text for el in root.iter() if el.tag.endswith("text") and el.get("y") == "412"]
        assert x_labels == ["0.6", "0.8", "1", "1.2", "1.4"]

    def test_subnormal_time_span_does_not_crash(self):
        # a span whose tick step underflows to 0 gets one tick, not a log10(0) error
        x = np.array([0.0, 5e-324])
        doc = render_line_plot([("tiny", x, np.array([0.0, 1.0]))], title="", xlabel="", ylabel="")
        assert "polyline" in doc

    def test_polylines_match_per_point_formatting(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            series = []
            for k in range(rng.integers(1, 4)):
                size = int(rng.integers(1, 200))
                scale = 10.0 ** rng.integers(-12, 12)
                x = np.sort(rng.uniform(0.0, 1.0, size)) * scale
                y = rng.normal(size=size) * 10.0 ** rng.integers(-12, 12)
                if k == 1:
                    y[:] = y[0]
                series.append((f"s{k}", x, y))
            doc = render_line_plot(series, title="", xlabel="", ylabel="")
            points = [el.get("points") for el in ET.fromstring(doc).iter()
                      if el.tag.endswith("polyline")]
            assert points == per_point_polylines(series)


def per_point_polylines(series):
    """Polyline point lists as the renderer wrote them before numpy: scalar
    ``px``/``py`` per point, each formatted by its own f-string."""
    xs = np.concatenate([np.asarray(x, dtype=float) for _, x, _ in series])
    ys = np.concatenate([np.asarray(y, dtype=float) for _, _, y in series])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    pad = 0.05 * (y_hi - y_lo) or 1.0
    y_lo -= pad
    y_hi += pad
    plot_w = WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x):
        return _MARGIN_LEFT + plot_w * (x - x_lo) / (x_hi - x_lo)

    def py(y):
        return _MARGIN_TOP + plot_h * (1.0 - (y - y_lo) / (y_hi - y_lo))

    return [" ".join(f"{px(float(xx)):.2f},{py(float(yy)):.2f}" for xx, yy in zip(x, y))
            for _, x, y in series]
