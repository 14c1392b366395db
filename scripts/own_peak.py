"""Print the own peak resident memory of greenfdtd's table1 commands.

Each of `run`, `reflection` and `verify` on the bundled table1.cfg runs
in a child interpreter, RUNS times, and the child's ru_maxrss (from
os.wait4) is printed in MB.  This launcher imports neither numpy nor
greenfdtd, so its own resident set stays far below any child's: Linux
carries the launcher's memory into a child's ru_maxrss when it starts
the child, and a heavy launcher would report itself, not the child.
CSVs go to a temporary directory that is removed afterwards.

    python scripts/own_peak.py [--src <dir holding greenfdtd>]

`--src` picks the checkout to measure (default: this checkout's src).
"""

import argparse
import os
import pathlib
import sys
import tempfile

COMMANDS = ("run", "reflection", "verify")
RUNS = 4


def own_peak_mb(src, command, out_dir):
    """ru_maxrss in MB of one `greenfdtd <command>` on table1.cfg."""
    argv = [sys.executable, "-m", "greenfdtd", command,
            "--config", str(src / "greenfdtd" / "data" / "table1.cfg")]
    if command != "verify":
        argv += ["--out", str(out_dir / f"{command}.csv")]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    pid = os.posix_spawn(sys.executable, argv, env,
                         file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"greenfdtd {command} exited with status {status}")
    return usage.ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent / "src")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        for command in COMMANDS:
            peaks = [own_peak_mb(src, command, pathlib.Path(tmp)) for _ in range(RUNS)]
            print(f"{command:10s} " + " ".join(f"{p:.2f}" for p in peaks) + " MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
