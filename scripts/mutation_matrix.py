"""Run greenfdtd's checks against a fixed list of small source mutations.

Each mutation is a named (file, old text, new text) triple whose old text
occurs exactly once in the file.  For each one, the tree is copied into a
temporary directory, the mutation is applied there, and the copy runs
tier-1 (`python -m pytest -q --continue-on-collection-errors`, less
LIST_TEST) and then `python -m greenfdtd verify --config
src/greenfdtd/data/table1.cfg`, one process at a time.  One row per
mutant names the `verify` checks that print FAIL, followed by the tier-1
tests that fail, one a line; a mutant is killed when either list is not
empty, or when `verify` exits non-zero.  A pytest run that does not
complete (exit status other than 0 or 1) stops the matrix rather than
counting as a survivor.  A score line ends the table.  The working tree is
only read.

    python scripts/mutation_matrix.py

Each mutant takes about as long as one tier-1 run.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
FDTD, VERIFY = "src/greenfdtd/fdtd.py", "src/greenfdtd/verify.py"
BANK, CONFIG = "src/greenfdtd/bank.py", "src/greenfdtd/config.py"
DISPERSION = "src/greenfdtd/dispersion.py"
GREENS, ADE = "src/greenfdtd/greens.py", "src/greenfdtd/ade.py"
ANALYSIS, ORACLE = "src/greenfdtd/analysis.py", "src/greenfdtd/oracle.py"
_MATRIX_END = "        mat[m, m] += curr_e\n    return mat\n"
_BANK_READ = ("        dot, subtract = np.dot, np.subtract\n\n"
              "        def advance():\n"
              '            """Step every pole from E^N and subtract the current from rhs."""\n'
              "            e_row, x_now, x_next, j = next(turns)\n"
              "            e_row[...] = e_run\n")

# name -> (file, old text, new text)
MUTATIONS = {
    # the bank's current row x (1 + 1e-6), and its A[0,0] x (1 + 1e-9)
    "current-row": (BANK, _MATRIX_END,
                    _MATRIX_END.replace("    return", "    mat[m] *= 1.0 + 1e-6\n    return")),
    "a00": (BANK, _MATRIX_END,
            _MATRIX_END.replace("    return", "    mat[0, 0] *= 1.0 + 1e-9\n    return")),
    # the bank steps from the previous sample's E
    "stale-e": (
        BANK, _BANK_READ,
        _BANK_READ.replace("np.subtract\n", "np.subtract\n        stale = np.zeros(len(e_run))\n")
        .replace("e_row[...] = e_run\n", "e_row[...] = stale\n            stale[...] = e_run\n")),
    "quiet-tol": (FDTD, "QUIET_TOL = 1e-14\n", "QUIET_TOL = 1e-12\n"),
    # the absorber's cubic grading made quadratic
    "taper-grading": (
        FDTD, "(np.arange(w) / (w - 1)) ** 3", "(np.arange(w) / (w - 1)) ** 2"),
    "steady-state-tol": (VERIFY, "    tol = 1e-3\n", "    tol = 1e-2\n"),
    "amplification-bound": (VERIFY, "r < 1.0 if strict", "r < 1.01 if strict"),
    "mur-sign": (
        FDTD, "return (C0 * dt - dx) / (C0 * dt + dx)", "return (dx - C0 * dt) / (C0 * dt + dx)"),
    "source-late": (FDTD, "    t = step_index * dt\n", "    t = (step_index - 1) * dt\n"),
    # the bank subtracts its current from the rhs row of the node before
    "rhs-shift": (FDTD, "e[i0:n - 1], rhs[i0 - 1:n - 2]", "e[i0:n - 1], rhs[i0 - 2:n - 3]"),
    # the field-domain table: POSITIVE admits 0, and a bool passes as a count
    "positive-admits-zero": (DISPERSION, "lambda x: 0.0 < x < math.inf",
                             "lambda x: 0.0 <= x < math.inf"),
    "bool-count": (DISPERSION, "isinstance(x, bool) or not",
                   "isinstance(x, bool) and kind is not numbers.Integral or not"),
    # check_value lets a bool through for every domain, and SimConfig
    # admits a subnormal dt
    "bool-any": (DISPERSION, "    if isinstance(x, bool) or not isinstance(x, kind)",
                 "    if not isinstance(x, kind)"),
    "dt-normal": (CONFIG, "self.dt < sys.float_info.min", "self.dt < 0.0"),
    # ade-fixed-point's reduction drops a NaN again, and the source's width
    # row names a key the config files do not have
    "nan-max": (VERIFY, "float(np.max([abs(p_next - p_star), abs(j) * dt / scale]) / p_star)",
                "max(abs(p_next - p_star), abs(j) * dt / scale) / p_star"),
    "width-row": (CONFIG, '"source.width"', '"source.delta_t"'),
    # the tgm block's rotation conjugated, and the adem drive constant k x 1.01
    "tgm-conj": (GREENS, "return ([[a, -b], [b, a]], (1.0, 0.0),",
                 "return ([[a, b], [-b, a]], (1.0, 0.0),"),
    "adem-k": (ADE, "        pole.strength * dt * dt,\n",
               "        1.01 * pole.strength * dt * dt,\n"),
    # the |R| band admits bins of zero incident spectrum, and the RK4
    # oracles admit a fine_step whose dt / fine_step is not finite
    "band-zero": (ANALYSIS, " & (inc_mag > 0.0)", ""),
    "substep-finite": (ORACLE, " and np.isfinite(dt / fine_step)", ""),
}

# the tier-1 test that each old text occurs once, which every mutant fails
LIST_TEST = "tests/test_scripts.py::test_mutation_applies_once"
_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".perfbench_work",
                               ".hypothesis", ".benchmarks", "*.egg-info")


def mutant_tree(dest, file, old, new):
    """Copy the tree to `dest` and replace `old`, which must occur once in
    `file`, by `new` there."""
    shutil.copytree(ROOT, dest, ignore=_SKIP)
    path = dest / file
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise ValueError(f"{file}: the old text occurs {text.count(old)} times, not once")
    path.write_text(text.replace(old, new), encoding="utf-8")


def run_checks(tree):
    """(failing tier-1 test ids, FAIL verify checks, verify exit status) of `tree`."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    tests = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "--tb=no", "-rfE", "--deselect", LIST_TEST],
        cwd=tree, env=env, capture_output=True, text=True, timeout=1800)
    if tests.returncode not in (0, 1):
        raise RuntimeError(f"pytest did not complete in {tree} (exit {tests.returncode}):\n"
                           f"{tests.stdout[-2000:]}{tests.stderr[-2000:]}")
    # "FAILED <test id> - <message>"; a parametrized id may hold spaces
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in tests.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    verify = subprocess.run(
        [sys.executable, "-m", "greenfdtd", "verify", "--config",
         str(tree / "src/greenfdtd/data/table1.cfg")],
        cwd=tree, env=env, capture_output=True, text=True, timeout=600)
    checks = [line.split()[1].rstrip(":") for line in verify.stdout.splitlines()
              if line.startswith("FAIL ")]
    return failed, checks, verify.returncode


def main():
    killed = 0
    for name, mutation in MUTATIONS.items():
        with tempfile.TemporaryDirectory() as tmp:
            tree = pathlib.Path(tmp) / "tree"
            mutant_tree(tree, *mutation)
            failed, checks, status = run_checks(tree)
        caught = bool(failed or checks or status)
        killed += caught
        print(f"{'killed' if caught else 'SURVIVED'} {name}: {len(failed)} tests fail; verify "
              f"exits {status}, FAIL: {' '.join(checks) or '-'}", *failed, sep="\n    ", flush=True)
    print(f"score: {killed}/{len(MUTATIONS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
