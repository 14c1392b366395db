"""Command-line entry point.

    greenfdtd run        --config <path> [--out <path>]
    greenfdtd reflection --config <path> [--out <path>]
    greenfdtd green      --config <path> [--out <path>]
    greenfdtd verify     --config <path>

`run` executes one simulation and emits the raw probe series as CSV;
`reflection` runs analysis.reflection_experiment for both dispersive
updaters, emits |R|(f) against the analytic coefficient and prints an
error summary; `green` compares the closed-form rectangle response with the
RK4 oracle for every medium pole; `verify` runs the invariant suite.

CSV output is locale-independent (scientific notation, 12+ significant
digits, '\n' line endings) and goes to --out when given, the config's
[run] out path otherwise, else stdout.  Exit status: 0 success, 1
usage, config or file error or a run whose probe record is not finite,
2 verification failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import analysis
from .config import load_config
from .errors import ConfigError, ValidationError
from .fdtd import probe_nodes_from_fractions


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def _write_csv(header, rows, out_path):
    lines = [header]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def cmd_run(config, out_path) -> int:
    """Single simulation; CSV of the raw probe series, written only when
    every sample is finite."""
    nodes = probe_nodes_from_fractions(config.probes, config.n_grid)
    series = analysis.finite_run(config, config.method, nodes, config.method)
    header = "time_s," + ",".join(f"probe{i + 1}" for i in range(len(series)))
    rows = (
        [t] + [s.samples[k] for s in series]
        for k, t in enumerate(series[0].times)
    )
    _write_csv(header, rows, out_path)
    return 0


def cmd_reflection(config, out_path) -> int:
    """Vacuum reference + both dispersive updaters; CSV of |R|(f) columns
    and a stdout summary of each method's error against the analytic
    coefficient."""
    freqs, analytic, mags = analysis.reflection_experiment(config, ("tgm", "adem"))
    rows = zip(freqs, analytic, mags["tgm"], mags["adem"])
    _write_csv("freq_hz,r_analytic,r_tgm,r_adem", rows, out_path)

    for name, mag in mags.items():
        worst, rms, _ = analysis.reflection_errors(freqs, analytic, mag)
        print(f"{name}: max abs error {worst:.6f}, rms error {rms:.6f} "
              f"over {len(freqs)} bins in [{freqs[0]:.3e}, {freqs[-1]:.3e}] Hz")
    return 0


def cmd_green(config, out_path) -> int:
    """Closed-form rectangle response vs RK4 oracle for each medium pole;
    CSV comparison with the 1-based pole number in the first column."""
    from . import verify

    if not config.medium.poles:
        raise ValidationError("green command needs at least one medium pole")
    dt = config.dt
    taus = np.arange(0.5 * dt, 30.5 * dt - 0.25 * dt, 0.25 * dt)
    rows = []
    for k, pole in enumerate(config.medium.poles, start=1):
        closed, rk4 = verify.green_closed_and_rk4(pole, dt, taus)
        rows.extend(zip([k] * len(taus), taus, closed, rk4, np.abs(closed - rk4)))
    _write_csv("pole,t_s,g_closed_form,g_rk4,abs_diff", rows, out_path)
    return 0


def cmd_verify(config) -> int:
    """Invariant suite; per-check status lines; exit 2 on any failure."""
    from . import verify

    results = verify.run_checks(config)
    for res in results:
        print(f"{res.status:4s} {res.name}: {res.detail}")
    failed = [r for r in results if not r.ok]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 2 if failed else 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="greenfdtd",
        description="1D FDTD solver for Lorentz-dispersive media",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "single simulation, raw probe series CSV"),
        ("reflection", "reflection-coefficient experiment CSV + summary"),
        ("green", "closed-form vs RK4 rectangle-response CSV"),
        ("verify", "run the invariant suite"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to config file")
        if name != "verify":
            p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        config = load_config(args.config)
        if args.command == "verify":
            return cmd_verify(config)
        command = {"run": cmd_run, "reflection": cmd_reflection, "green": cmd_green}
        return command[args.command](config, args.out or config.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
