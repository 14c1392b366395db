"""The benchmark workloads: inputs made from the seed, the job one run
repeats, the checks on each job's output and the computed work counts.

Every workload is a batch job run in a fresh Python process.  Two of
them are `greenfdtd` CLI invocations; `sweep_multipole` runs the library
calls of `scripts/absorber_study.py` from `jobs.py sweep`.  The program
only ever sees the generated config files.  Each workload lists the
build_simulation calls of one job in `builds()`; the set-up probe and
the traced run's extra measurements take them from there.

One operation is one CLI invocation (`table1_reflection`), one
simulation or one |R| extraction (`sweep_multipole`) or one verify check
(`verify_table1`).  A job's operations fail on a non-zero exit, an
exception, a non-finite probe sample or |R| value, a FAIL line or an
accuracy bound being missed, so a silently broken output is counted,
never timed as a success.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import sys

import numpy as np

from jobs import load_builds

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE1 = os.path.join("src", "greenfdtd", "data", "table1.cfg")

# Acceptance bound of the table1 experiment on max |R| error.
TABLE1_R_ERR_MAX = 0.02
# Sweep bounds, fixed from seed-1 runs (worst seen over seeds 1-3: max
# 0.37, rms 0.064, tgm-adem 4e-4).  The 300-node grid cannot absorb the
# pulse's low-frequency content, so the analytic errors are large below
# ~30 GHz; the tgm/adem agreement is the tight check.
SWEEP_R_ERR_MAX = 0.5
SWEEP_R_ERR_RMS = 0.1
SWEEP_TGM_ADEM_MAX = 2e-3
SWEEP_MEDIA = 3
VERIFY_CHECKS = 8

_VERIFY_LINE = re.compile(r"^(PASS|FAIL|SKIP) (\S+): ")


@dataclasses.dataclass
class Job:
    """One finished child process: exit code, wall time, peak RSS and
    the files holding its standard output and CSV output."""

    rc: int
    wall_s: float
    rss_mb: float
    stdout: str
    out: str | None


@dataclasses.dataclass
class Outcome:
    """Checked result of one job: operations attempted and failed, the
    reason of each failure and any accuracy figures."""

    attempted: int
    failed: int = 0
    notes: list = dataclasses.field(default_factory=list)
    r_err_max: float | None = None
    r_err_rms: float | None = None

    def fail(self, n: int, note: str) -> None:
        self.failed = min(self.attempted, self.failed + n)
        self.notes.append(note)


def format_config(cfg) -> str:
    """Config-file text that parses back to `cfg` exactly (floats in repr)."""
    src, med = cfg.source, cfg.medium
    lines = [
        "[grid]",
        f"length = {cfg.system_length!r}",
        f"nodes = {cfg.n_grid}",
        f"cfl = {cfg.cfl_factor!r}",
        f"absorber_cells = {cfg.absorber_cells}",
        f"absorber_sigma = {cfg.absorber_sigma!r}",
        "[source]",
        f"t0 = {src.t0!r}",
        f"width = {src.delta_t!r}",
        f"omega0 = {src.omega0!r}",
    ]
    if med.poles or med.eps_inf != 1.0 or med.sigma != 0.0:
        lines += ["[medium]", f"eps_inf = {med.eps_inf!r}", f"sigma = {med.sigma!r}"]
    for k, p in enumerate(med.poles, start=1):
        lines += [f"[medium.pole.{k}]", f"delta_eps = {p.delta_eps!r}",
                  f"omega_p = {p.omega_p!r}", f"delta_p = {p.delta_p!r}"]
    lines += [
        "[run]",
        f"steps = {cfg.n_steps}",
        "probes = " + ", ".join(repr(p) for p in cfg.probes),
        f"method = {cfg.method}",
        f"band_threshold = {cfg.band_threshold!r}",
    ]
    return "\n".join(lines) + "\n"


def scaled_table1(factor: float, n_steps: int, **changes):
    """table1 at `factor` times the node count with table1's dx: length
    and absorber width scale with the node count."""
    from greenfdtd.config import load_config

    base = load_config(TABLE1)
    dx = base.system_length / (base.n_grid - 1)
    n = int(round(base.n_grid * factor))
    return dataclasses.replace(
        base, n_grid=n, system_length=(n - 1) * dx,
        absorber_cells=int(round(base.absorber_cells * factor)),
        n_steps=n_steps, **changes)


def random_medium(rng):
    """Two underdamped poles, one overdamped pole, sigma = 0; every
    resonance inside the source band (the 100 GHz pulse reaches DC)."""
    from greenfdtd.dispersion import LorentzPole, Medium

    def pole(damping):
        wp = 2.0 * math.pi * rng.uniform(20e9, 200e9)
        return LorentzPole(delta_eps=rng.uniform(0.5, 2.0), omega_p=wp,
                           delta_p=wp * rng.uniform(*damping))

    poles = (pole((0.05, 0.3)), pole((0.05, 0.3)), pole((1.5, 4.0)))
    return Medium(eps_inf=rng.uniform(1.0, 2.5), sigma=0.0, poles=poles)


def write_config(path: str, cfg) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_config(cfg))
    return path


def read_csv(path: str) -> np.ndarray:
    """Rows of a CLI CSV as a 2-D float array (header skipped)."""
    with open(path, encoding="utf-8") as fh:
        next(fh)
        rows = [[float(v) for v in line.split(",")] for line in fh if line.strip()]
    return np.array(rows, dtype=float).reshape(len(rows), -1)


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return fh.read()
    except OSError:
        return ""


class Workload:
    """One workload: its inputs are written under `work` when it is made;
    only sweep_multipole draws them from the seed."""

    name = ""
    cli_args: list = []

    def __init__(self, seed: int, work: str):
        self.configs: list = []
        self.out: str | None = None

    # -- what a job runs -------------------------------------------------
    def job_argv(self) -> list:
        return [sys.executable, "-m", "greenfdtd", *self.cli_args]

    def inputs(self) -> dict:
        """Everything a child process needs to repeat or trace the job."""
        return {"workload": self.name, "configs": self.configs,
                "cli_args": self.cli_args, "out": self.out, "builds": self.builds()}

    def builds(self) -> list:
        """Every build_simulation call of one job, as `jobs.load_builds`
        takes them; none for a workload without a grid."""
        return []

    # -- computed work -----------------------------------------------------
    def counts(self) -> dict:
        """Exact work of one job, computed from the configs."""
        from greenfdtd.fdtd import interface_node

        cell_steps = pole_cell_steps = 0
        state = {}
        for label, cfg, method in load_builds(self.builds()):
            n = cfg.n_grid
            cells = n - interface_node(n)
            poles = len(cfg.medium.poles)
            cell_steps += n * cfg.n_steps
            pole_cell_steps += poles * cells * cfg.n_steps
            field = 8 * n + 8 * (n - 1)
            pole = poles * cells * (32 if method == "tgm" else 16)
            state[label] = {"field_bytes": field, "pole_bytes": pole}
        return {
            "cell_steps": cell_steps,
            "pole_cell_steps": pole_cell_steps,
            "fft_points": self.fft_points(),
            "state_bytes_per_step_computed": state,
        }

    def fft_points(self) -> int:
        return 0

    def check(self, job: Job) -> Outcome:
        raise NotImplementedError


def reflection_builds(path: str) -> list:
    """The three simulations of one |R| extraction on the config at
    `path`: the vacuum reference, `tgm` and `adem`."""
    return [{"config": path, "vacuum": True, "method": "tgm", "label": "vacuum"},
            {"config": path, "vacuum": False, "method": "tgm", "label": "tgm"},
            {"config": path, "vacuum": False, "method": "adem", "label": "adem"}]


def _padded(n: int) -> int:
    """Transform length `analysis.spectrum` uses for an n-sample record."""
    m = 1
    while m < 2 * n:
        m *= 2
    return m


class Table1Reflection(Workload):
    """`greenfdtd reflection` on the bundled table1.cfg."""

    name = "table1_reflection"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.configs = [TABLE1]
        self.out = os.path.join(work, "reflection.csv")
        self.cli_args = ["reflection", "--config", TABLE1, "--out", self.out]

    def builds(self):
        return reflection_builds(TABLE1)

    def fft_points(self):
        from greenfdtd.config import load_config

        # two extractions, each transforming the incident and reflected record
        return 4 * _padded(load_config(TABLE1).n_steps)

    def check(self, job):
        out = Outcome(attempted=1)
        if job.rc != 0:
            out.fail(1, f"exit code {job.rc}")
            return out
        try:
            data = read_csv(job.out)
        except (OSError, ValueError, StopIteration) as exc:
            out.fail(1, f"unreadable CSV: {exc}")
            return out
        if data.shape[0] == 0 or data.shape[1] != 4 or not np.isfinite(data).all():
            out.fail(1, "empty, malformed or non-finite |R| CSV")
            return out
        errs = np.abs(data[:, 2:] - data[:, 1:2])
        out.r_err_max = float(errs.max())
        out.r_err_rms = float(np.sqrt(np.mean(errs**2, axis=0)).max())
        if out.r_err_max > TABLE1_R_ERR_MAX:
            out.fail(1, f"max |R| error {out.r_err_max:.6f} above {TABLE1_R_ERR_MAX}")
        return out


class SweepMultipole(Workload):
    """A seeded sweep of three-pole media on a 300-node grid."""

    name = "sweep_multipole"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        from greenfdtd.fdtd import GaussianSource

        base = scaled_table1(0.1, 8192)
        # a 5-width delay still starts the pulse from ~4e-6 of its peak, and
        # the interface echo reaches node 0 after the hard source lets go
        src = base.source
        base = dataclasses.replace(
            base, source=GaussianSource(5.0 * src.delta_t, src.delta_t, src.omega0))
        rng = np.random.default_rng(seed)
        self.media_cfgs = [base.with_medium(random_medium(rng)) for _ in range(SWEEP_MEDIA)]
        self.configs = [
            write_config(os.path.join(work, f"medium{k + 1}.cfg"), cfg)
            for k, cfg in enumerate(self.media_cfgs)]

    def job_argv(self):
        return [sys.executable, os.path.join(HERE, "jobs.py"), "sweep", *self.configs]

    def builds(self):
        return [b for path in self.configs for b in reflection_builds(path)]

    def fft_points(self):
        return 4 * SWEEP_MEDIA * _padded(self.media_cfgs[0].n_steps)

    def check(self, job):
        ops_per_medium = 5
        out = Outcome(attempted=ops_per_medium * len(self.configs))
        if job.rc != 0:
            out.fail(out.attempted, f"exit code {job.rc}")
            return out
        try:
            result = json.loads(_read_text(job.stdout).strip().splitlines()[-1])
        except (IndexError, ValueError) as exc:
            out.fail(out.attempted, f"no sweep result: {exc}")
            return out
        media = result.get("media", [])
        if len(media) != len(self.configs):
            out.fail(out.attempted, f"{len(media)} media reported, {len(self.configs)} run")
            return out
        worst_max = worst_rms = 0.0
        for k, med in enumerate(media, start=1):
            for op, err in med["ops"].items():
                if err is not None:
                    out.fail(1, f"medium {k} {op}: {err}")
            for method in ("tgm", "adem"):
                if med["ops"][f"refl.{method}"] is not None:
                    continue
                mx, rms = med["r_err_max"][method], med["r_err_rms"][method]
                worst_max, worst_rms = max(worst_max, mx), max(worst_rms, rms)
                if mx > SWEEP_R_ERR_MAX or rms > SWEEP_R_ERR_RMS:
                    out.fail(1, f"medium {k} {method}: |R| error max {mx:.4f} rms {rms:.4f}")
            gap = med.get("tgm_adem_max")
            if gap is not None and gap > SWEEP_TGM_ADEM_MAX:
                out.fail(2, f"medium {k}: tgm and adem |R| differ by {gap:.2e}")
        out.r_err_max, out.r_err_rms = worst_max, worst_rms
        return out


class VerifyTable1(Workload):
    """`greenfdtd verify --config table1.cfg`: no grid, scalar path."""

    name = "verify_table1"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.configs = [TABLE1]
        self.cli_args = ["verify", "--config", TABLE1]

    def check(self, job):
        out = Outcome(attempted=VERIFY_CHECKS)
        passed = 0
        for line in _read_text(job.stdout).splitlines():
            m = _VERIFY_LINE.match(line)
            if m and m.group(1) == "PASS":
                passed += 1
            elif m:
                out.notes.append(line)
        if passed != VERIFY_CHECKS:
            out.fail(VERIFY_CHECKS - passed,
                     f"{passed}/{VERIFY_CHECKS} checks passed, exit code {job.rc}")
        elif job.rc != 0:
            out.fail(1, f"exit code {job.rc} although every check passed")
        return out


WORKLOADS = {cls.name: cls for cls in (Table1Reflection, SweepMultipole, VerifyTable1)}
