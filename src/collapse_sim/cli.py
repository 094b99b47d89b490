"""Command-line front end: simulate, spectrum, qsl, and sweep subcommands.

Exit codes: 0 success, 1 configuration or usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from .analysis import gamma_sweep, qsl_lower_bound
from .analysis import generator_spectrum  # noqa: F401  (perfbench/tracer.py wraps this name)
from .config import RunConfig, load_run_config
from .csvio import _tracked_pairs, write_qsl_csv, write_spectrum_csv, write_sweep_csv, write_trajectory_csv
from .dissipator import _balanced_modes, _closed_form_rhs, _pack, _rate_bounds, _unpack, diag_generator_matrix
from .dissipator import lindblad_jump_family, master_rhs  # noqa: F401  (perfbench/tracer.py wraps this name)
from .errors import IntegrationError, ValidationError
from .evolution import Trajectory, alignment_time, simulate_model
from .svgplot import write_line_plot


class _Parser(argparse.ArgumentParser):
    # usage problems are configuration errors: exit 1, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


@functools.cache  # built on the first call, then reused: parsing keeps no state in it
def _build_parser() -> _Parser:
    parser = _Parser(prog="collapse-sim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_mode=True):
        p.add_argument("--config", required=True, help="path to a JSON run configuration")
        p.add_argument("--out", default=None, help="output directory (default from config)")
        if with_mode:
            p.add_argument("--mode", choices=("full", "fast"), default=None,
                           help="override the configured integration mode")

    p_sim = sub.add_parser("simulate", help="integrate a scenario and write trajectory.csv")
    add_common(p_sim)
    p_sim.add_argument("--plot", action="store_true", default=None,
                       help="also write fig1.svg and fig2.svg")

    p_spec = sub.add_parser("spectrum", help="eigenvalues and stationary vector of the diagonal generator")
    add_common(p_spec, with_mode=False)

    p_qsl = sub.add_parser("qsl", help="speed-limit bound against the measured alignment time")
    add_common(p_qsl)

    p_sweep = sub.add_parser("sweep", help="alignment times over a list of coupling strengths")
    add_common(p_sweep)
    p_sweep.add_argument("--gammas", default=None,
                         help="comma-separated coupling strengths, e.g. 2.5,5,10,20")
    return parser


def _ensure_outdir(cfg: RunConfig) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg.out_dir


def _write_figures(cfg: RunConfig, traj: Trajectory) -> None:
    out = cfg.out_dir
    corr = cfg.model.correspondence
    weights = np.diagonal(cfg.model.aligned_target().entries).real
    rates = cfg.model.rate_table().flat
    # one series per pairing with a physical rate, the entries above the floor, in assignment order (the legend order)
    series = [
        (f"diag_{flat} / {weights[flat]:.4g}", traj.times, traj.diagonals[:, flat] / weights[flat])
        for _, flat, _ in corr._pairings()
        if rates[flat] > cfg.model.epsilon
    ]
    # the coherence between the outermost aligned states, else the first CSV pair (none at n = 1)
    aligned = corr.aligned_flat_indices()
    pairs = [(aligned[0], aligned[-1])] if len(aligned) >= 2 else _tracked_pairs(traj.dim)[:1]
    for r, s in pairs:
        series.append((f"re_{r}_{s}", traj.times, traj.states[:, r, s].real))
    write_line_plot(
        os.path.join(out, "fig1.svg"),
        series,
        title="Aligned diagonals (normalized) and a decaying off-diagonal",
        xlabel="t [1/omega]",
        ylabel="value",
    )
    write_line_plot(
        os.path.join(out, "fig2.svg"),
        [("entropy", traj.times, traj.entropy)],
        title="Spectral entropy of the combined state",
        xlabel="t [1/omega]",
        ylabel="entropy [nats]",
    )


def _cmd_simulate(args) -> int:
    cfg = load_run_config(args.config, mode=args.mode, out_dir=args.out, plot=args.plot)
    out = _ensure_outdir(cfg)
    traj = simulate_model(cfg.model, cfg.integrator, mode=cfg.mode)
    write_trajectory_csv(os.path.join(out, "trajectory.csv"), traj)
    if cfg.plot:
        _write_figures(cfg, traj)
    return 0


def _cmd_spectrum(args) -> int:
    cfg = load_run_config(args.config, out_dir=args.out)
    model = cfg.model  # sized by load_run_config, before any n x n array
    out = _ensure_outdir(cfg)
    p_all = model.rate_table().flat_probabilities()
    eigenvalues = _balanced_modes(_rate_bounds(p_all, model.gamma, model.omega))[0]
    write_spectrum_csv(os.path.join(out, "spectrum.csv"), eigenvalues, p_all / p_all.sum())
    return 0


def _cmd_qsl(args) -> int:
    cfg = load_run_config(args.config, mode=args.mode, out_dir=args.out)
    out = _ensure_outdir(cfg)
    model = cfg.model
    traj = simulate_model(model, cfg.integrator, mode=cfg.mode)
    target = model.aligned_target()
    measured = alignment_time(traj, target, tol=cfg.alignment_tol)
    rho0 = model.initial_dm()
    diag_gen = diag_generator_matrix(model.rate_table().flat_probabilities(), model.gamma, model.omega)
    h = model.hamiltonian if cfg.mode == "full" else None
    initial_rhs = _unpack(_closed_form_rhs(diag_gen, h, _pack(rho0.entries)))
    report = qsl_lower_bound(rho0, target, initial_rhs, measured_alignment_time=measured)
    write_qsl_csv(os.path.join(out, "qsl.csv"), report)
    return 0


def _cmd_sweep(args) -> int:
    gammas = None
    if args.gammas is not None:
        text = args.gammas.strip()
        if not text:
            raise ValidationError("--gammas needs at least one value")
        try:
            gammas = tuple(float(x) for x in text.split(","))
        except ValueError as exc:
            raise ValidationError(f"--gammas must be a comma-separated number list, got {args.gammas!r}") from exc
    cfg = load_run_config(args.config, mode=args.mode, out_dir=args.out, gammas=gammas)
    if not cfg.gammas:
        raise ValidationError("sweep needs coupling strengths via --gammas or the config's 'gammas'")
    out = _ensure_outdir(cfg)
    rows = gamma_sweep(cfg.model, cfg.gammas, cfg.integrator, mode=cfg.mode, tol=cfg.alignment_tol)
    write_sweep_csv(os.path.join(out, "sweep.csv"), rows)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "spectrum": _cmd_spectrum,
    "qsl": _cmd_qsl,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (IntegrationError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
