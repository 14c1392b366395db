"""Print one sha256 line per greenfdtd output on the bundled table1 config
and on a three-pole lossy medium.

The table1 outputs are the `reflection` CSV and stdout, the `run` CSV,
the `green` CSV and the `verify` stdout.  The three-pole medium adds the
`reflection` CSV and stdout on a 600-node grid at table1's dx with a
132-cell absorber, and the `verify` stdout: its medium has eps_inf = 2,
sigma = 0.5 S/m and poles (delta_eps, f_p, delta_p/2pi) of (1.5, 15 GHz,
1.5 GHz), (0.8, 60 GHz, 3 GHz) and (1.0, 30 GHz, 90 GHz), the last
overdamped, so the digests also cover multi-pole banks, a lossy medium
suffix and every pole kind's verify lines.  Configs and CSVs
go to a temporary directory that is removed afterwards.  A refactor that
must keep the outputs byte-identical is checked by diffing this script's
output on two checkouts:

    PYTHONPATH=src python scripts/output_digests.py
"""

import contextlib
import hashlib
import io
import math
import pathlib
import sys
import tempfile

from greenfdtd import cli
from greenfdtd.config import load_table1, table1_path


def three_pole_config():
    """Config text of the three-pole medium on 600 nodes at table1's dx."""
    dx = load_table1().dx
    poles = ((1.5, 15e9, 1.5e9), (0.8, 60e9, 3e9), (1.0, 30e9, 90e9))
    lines = ["[grid]", f"length = {599 * dx!r}", "nodes = 600", "cfl = 0.9",
             "absorber_cells = 132", "absorber_sigma = 10.0",
             "[source]", "t0 = 1.0e-11", "width = 1.0e-12", "omega0 = 6.283185307179586e11",
             "[medium]", "eps_inf = 2.0", "sigma = 0.5"]
    for k, (delta_eps, f_p, f_d) in enumerate(poles, start=1):
        lines += [f"[medium.pole.{k}]", f"delta_eps = {delta_eps!r}",
                  f"omega_p = {2 * math.pi * f_p!r}", f"delta_p = {2 * math.pi * f_d!r}"]
    lines += ["[run]", "steps = 32768", "probes = 0.25, 0.499, 0.75", "method = tgm",
              "band_threshold = 0.001"]
    return "\n".join(lines) + "\n"


def main():
    with tempfile.TemporaryDirectory() as tmp:
        three_pole = pathlib.Path(tmp) / "three_pole.cfg"
        three_pole.write_text(three_pole_config(), encoding="utf-8")
        runs = [(command, table1_path(), command)
                for command in ("reflection", "run", "green", "verify")]
        runs += [(command, three_pole, f"three-pole {command}")
                 for command in ("reflection", "verify")]
        for command, config, label in runs:
            args = [command, "--config", str(config)]
            csv = pathlib.Path(tmp) / f"{command}.csv"
            if command != "verify":
                args += ["--out", str(csv)]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                cli.main(args)
            if command != "verify":
                print(f"{hashlib.sha256(csv.read_bytes()).hexdigest()}  {label} csv")
            if command in ("reflection", "verify"):
                digest = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
                print(f"{digest}  {label} stdout")
    return 0


if __name__ == "__main__":
    sys.exit(main())
