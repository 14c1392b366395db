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
Each command imports only its layers: `run` and `reflection` load the
grid (fdtd) and analysis, `green` and `verify` load verify and its
oracles, which step the pole bank (bank) and build no grid.

CSV output is locale-independent (scientific notation, 12+ significant
digits, '\n' line endings).  Its rows stream, one write each, to --out
when given, else to stdout, where `reflection`'s summary then goes to
stderr; the config names no output.  Exit status: 0 success, 1
usage or file error or a refusal, 2 verification failure.  A refusal is
a ValidationError, printed as one `config error:` line: of the config,
of a pole by the build's branch-symmetry gate, of a run whose probe
record is not finite, of an undamped pole on a bin of the padded
transform (`reflection`) or of a non-finite RK4 reference (`green`).
Commands run with numpy's floating-point warnings off: each non-finite
value ends in a message.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

import numpy as np

from .config import load_config
from .errors import ValidationError


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def _write_csv(header, rows, out_path):
    """Write `header`, then each row as it is drawn from `rows`; a `rows`
    that raises leaves the rows before it written."""
    with (contextlib.nullcontext(sys.stdout) if out_path is None
          else open(out_path, "w", encoding="utf-8", newline="")) as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(_fmt, row)) + "\n")


def cmd_run(config, out_path) -> int:
    """Single simulation; CSV of the raw probe series, written only when
    every sample is finite."""
    from . import analysis
    from .fdtd import probe_nodes_from_fractions

    nodes = probe_nodes_from_fractions(config.probes, config.n_grid)
    series = analysis.finite_run(config, config.method, nodes, config.method)
    header = "time_s," + ",".join(f"probe{i + 1}" for i in range(len(series)))
    _write_csv(header, zip(series[0].times, *(s.samples for s in series)), out_path)
    return 0


def cmd_reflection(config, out_path) -> int:
    """Vacuum reference + both dispersive updaters; CSV of |R|(f) columns
    and a summary of each method's error against the analytic
    coefficient, on stdout unless the CSV is there."""
    from . import analysis

    freqs, analytic, mags = analysis.reflection_experiment(config, ("tgm", "adem"))
    rows = zip(freqs, analytic, mags["tgm"], mags["adem"])
    _write_csv("freq_hz,r_analytic,r_tgm,r_adem", rows, out_path)

    for name, mag in mags.items():
        worst, rms, _ = analysis.reflection_errors(freqs, analytic, mag)
        print(f"{name}: max abs error {worst:.6f}, rms error {rms:.6f} "
              f"over {len(freqs)} bins in [{freqs[0]:.3e}, {freqs[-1]:.3e}] Hz",
              file=sys.stderr if out_path is None else sys.stdout)
    return 0


def cmd_green(config, out_path) -> int:
    """Closed-form rectangle response vs RK4 oracle for each medium pole;
    CSV comparison with the 1-based pole number in the first column; a
    pole's refusal is prefixed with its section."""
    from . import verify

    if not config.medium.poles:
        raise ValidationError("green command needs at least one medium pole")
    dt = config.dt
    taus = np.arange(0.5 * dt, 30.5 * dt - 0.25 * dt, 0.25 * dt)
    rows = []
    for k, pole in enumerate(config.medium.poles, start=1):
        try:
            closed, rk4 = verify.green_closed_and_rk4(pole, dt, taus)
        except ValidationError as exc:
            raise ValidationError(f"[medium.pole.{k}]: {exc}") from None
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
    # a non-finite value ends in a check's message, not in numpy's warnings
    with np.errstate(all="ignore"):
        try:
            config = load_config(args.config)
            if args.command == "verify":
                return cmd_verify(config)
            command = {"run": cmd_run, "reflection": cmd_reflection, "green": cmd_green}
            return command[args.command](config, args.out)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except ValidationError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 1
