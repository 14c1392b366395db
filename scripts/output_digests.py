"""Print one sha256 line per greenfdtd output on the bundled table1 config.

The outputs are the `reflection` CSV and stdout, the `run` CSV, the
`green` CSV and the `verify` stdout.  CSVs go to a temporary directory
that is removed afterwards.  A refactor that must keep the outputs
byte-identical is checked by diffing this script's output on two
checkouts:

    PYTHONPATH=src python scripts/output_digests.py
"""

import contextlib
import hashlib
import io
import pathlib
import sys
import tempfile

from greenfdtd import cli
from greenfdtd.config import table1_path


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for command in ("reflection", "run", "green", "verify"):
            args = [command, "--config", str(table1_path())]
            csv = pathlib.Path(tmp) / f"{command}.csv"
            if command != "verify":
                args += ["--out", str(csv)]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                cli.main(args)
            if command != "verify":
                print(f"{hashlib.sha256(csv.read_bytes()).hexdigest()}  {command} csv")
            if command in ("reflection", "verify"):
                digest = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
                print(f"{digest}  {command} stdout")
    return 0


if __name__ == "__main__":
    sys.exit(main())
