"""Spans around greenfdtd's public entry points, and the per-layer
metrics derived from them.

A span is recorded for every call of a wrapped function, from the
benchmark's side of the call: name, start and end (perf_counter_ns), the
id of the enclosing span and an operation id shared by all spans under
one top-level call.  Spans stay in memory and are written out when the
job ends.  A layer's self time is its span minus its child spans.

The wrappers replace module attributes, so each name is also replaced
where another greenfdtd module imported it into its own namespace
(`cli.build_simulation`, `verify.ade_advance`, ...).
"""

from __future__ import annotations

import hashlib
import statistics
import time
import tracemalloc
from collections import defaultdict

FIELDS = ["id", "name", "start_ns", "end_ns", "parent", "op", "info"]

VERIFY_CHECK_NAMES = (
    "recurrence-vs-direct-sum", "green-closed-form-vs-rk4", "steady-state",
    "conjugacy", "realness", "non-amplification", "ade-fixed-point",
    "temporal-convergence-order",
)
STEP_LABELS = ("vacuum", "tgm", "adem")
BLOCK_ROUNDS, BLOCK_STEPS = 16, 256
RK4 = ("oracle.green_rk4", "oracle.polarization_rk4", "oracle.smooth_drive_rk4")


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []      # tuples in FIELDS order, appended when a span ends
        self._patched = []   # (namespace, attribute, unwrapped value)
        self._stack = []
        self._next_id = 0
        self._op = 0

    def wrap(self, name, fn, before=None, after=None):
        """`fn` recording one span per call.  `before(*args)` and
        `after(result)` give the span's info; keep them cheap."""
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if stack:
                parent = stack[-1]
            else:
                parent = -1
                self._op += 1
            sid, op = self._next_id, self._op
            self._next_id += 1
            info = before(*args, **kwargs) if before else None
            stack.append(sid)
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                end = clock()
                stack.pop()
                if returned and after:
                    info = after(result)
                spans.append((sid, name, start, end, parent, op, info))
            return result

        return wrapper

    def install(self):
        """Wrap the public entry points of every greenfdtd layer."""
        import numpy as np
        import greenfdtd
        from greenfdtd import (ade, analysis, cli, config, dispersion, fdtd, greens,
                               oracle, verify)

        modules = (greenfdtd, ade, analysis, cli, config, dispersion, fdtd, greens,
                   oracle, verify)
        scalar = lambda state, e_now, *rest: not isinstance(e_now, np.ndarray)  # noqa: E731

        def patch(module, attr, name, before=None, after=None):
            fn = getattr(module, attr)
            wrapped = self.wrap(name, fn, before, after)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._patched.append((m, key, fn))
                        setattr(m, key, wrapped)

        def patch_method(cls, attr, name, before=None):
            fn = vars(cls)[attr]
            self._patched.append((cls, attr, fn))
            setattr(cls, attr, self.wrap(name, fn, before))

        patch(config, "load_config", "config.load_config")
        patch(fdtd, "build_simulation", "fdtd.build_simulation")
        patch_method(fdtd.Simulation, "run", "fdtd.Simulation.run", before=_run_info)
        patch_method(fdtd.Simulation, "step", "fdtd.Simulation.step")
        patch(analysis, "reflection_magnitude", "analysis.reflection_magnitude")
        patch(analysis, "spectrum", "analysis.spectrum",
              after=lambda s: 2 * (len(s.freqs) - 1))
        patch(dispersion, "reflection_coefficient", "dispersion.reflection_coefficient")
        patch(greens, "advance_state", "greens.advance_state", before=scalar)
        patch(ade, "ade_advance", "ade.ade_advance", before=scalar)
        for attr in ("direct_convolution_sum", "green_rk4", "polarization_rk4",
                     "smooth_drive_rk4"):
            patch(oracle, attr, f"oracle.{attr}")
        for attr in [a for a in vars(verify) if a.startswith("check_")]:
            patch(verify, attr, f"verify.{attr}", after=lambda r: (r.name, r.status))
        for attr in [a for a in vars(cli) if a.startswith("cmd_")]:
            patch(cli, attr, f"cli.{attr}")

    def uninstall(self):
        """Put every unwrapped function back."""
        for namespace, attr, fn in reversed(self._patched):
            setattr(namespace, attr, fn)
        self._patched.clear()


def _run_info(sim, n_steps, probe_nodes=()):
    """Label, size and identity of one Simulation.run call."""
    from greenfdtd.dispersion import Medium

    poles = sum(len(m.poles) for m in sim.media) if sim.method else 0
    if poles:
        label = sim.method
    elif all(m == Medium.vacuum() for m in sim.media):
        label = "vacuum"
    else:
        label = "nondispersive"
    key = (sim.n_nodes, sim.grid.dx, sim.grid.dt, repr(sim.source), repr(sim.media),
           sim.method if poles else None, sim.boundary, int(n_steps),
           hashlib.sha1(sim.sigma_node.tobytes()).hexdigest())
    return {"label": label, "nodes": sim.n_nodes, "steps": int(n_steps),
            "poles": poles, "key": repr(key)}


def measure_extras(inputs):
    """Untraced measurements after the job, on the first build of each
    label in its build list: the bytes each build retains (tracemalloc);
    the per-step cost of the nondispersive twin (the `tgm` build's grid
    with its medium's eps_inf and sigma, no poles), `tgm` and `adem`; and
    what recording the probes adds per step, as `run` against bare `step`
    blocks on the vacuum build.  All blocks are interleaved, so that a
    change of machine speed hits them alike."""
    from greenfdtd import dispersion, fdtd
    from jobs import load_builds

    first = {}
    for label, cfg, method in load_builds(inputs["builds"]):
        first.setdefault(label, (cfg, method))
    if not first:
        return {"state_bytes": {}, "step_us": {}, "poles": 0, "probe_us": 0.0}

    state_bytes = {}
    for label, (cfg, method) in first.items():
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sim = fdtd.build_simulation(cfg, method=method)
            state_bytes[label] = tracemalloc.get_traced_memory()[0] - before
            del sim
        finally:
            tracemalloc.stop()

    sims = {label: fdtd.build_simulation(c, method=m) for label, (c, m) in first.items()}
    cfg = first["tgm"][0]
    twin = cfg.with_medium(dispersion.Medium(eps_inf=cfg.medium.eps_inf, sigma=cfg.medium.sigma))
    nodes = fdtd.probe_nodes_from_fractions(cfg.probes, cfg.n_grid)
    blocks = {
        "nondispersive": fdtd.build_simulation(twin, method="tgm").step,
        "tgm": sims["tgm"].step,
        "adem": sims["adem"].step,
        "vacuum": sims["vacuum"].step,
        "vacuum_run": lambda: sims["vacuum"].run(BLOCK_STEPS, nodes),
    }
    times = defaultdict(list)
    for _ in range(BLOCK_ROUNDS):
        for label, fn in blocks.items():
            calls = 1 if label == "vacuum_run" else BLOCK_STEPS
            start = time.perf_counter_ns()
            for _ in range(calls):
                fn()
            times[label].append((time.perf_counter_ns() - start) / 1e3 / BLOCK_STEPS)
    probe = [r - s for r, s in zip(times.pop("vacuum_run"), times.pop("vacuum"))]
    return {"state_bytes": state_bytes,
            "step_us": {label: statistics.median(v) for label, v in times.items()},
            "poles": len(cfg.medium.poles),
            "probe_us": statistics.median(probe)}


def _median(values):
    return statistics.median(values) if values else 0.0


def summarize(spans, extras, csv_bytes):
    """Per-layer metrics of one traced job.  The step costs per run kind
    come from the job's own step spans; the nondispersive step, the
    per-pole and the probe costs come from the interleaved blocks of
    `measure_extras`."""
    by_id = {s[0]: s for s in spans}
    dur = {s[0]: s[3] - s[2] for s in spans}
    child_ns = defaultdict(int)
    for s in spans:
        if s[4] >= 0:
            child_ns[s[4]] += dur[s[0]]
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)

    def ms(*names):
        return _median([dur[s[0]] for n in names for s in by_name[n]]) / 1e6

    # per-step times grouped by the kind of the enclosing run
    steps = defaultdict(list)
    for s in by_name["fdtd.Simulation.step"]:
        run = by_id.get(s[4])
        if run is not None:
            steps[run[6]["label"]].append(dur[s[0]] / 1e3)
    step_us = {label: _median(steps[label]) for label in STEP_LABELS}
    runs = by_name["fdtd.Simulation.run"]
    nodes = {s[6]["label"]: s[6]["nodes"] for s in runs}
    blocks = extras["step_us"]

    m = {
        "config.load_ms": ms("config.load_config"),
        "fdtd.build_ms": ms("fdtd.build_simulation"),
    }
    for label in STEP_LABELS:
        m[f"fdtd.state_bytes.{label}"] = extras["state_bytes"].get(label, 0)
    for label in STEP_LABELS:
        m[f"fdtd.step_us.{label}"] = step_us[label]
    m["fdtd.step_us.nondispersive"] = blocks.get("nondispersive", 0.0)
    for label in STEP_LABELS:
        m[f"fdtd.mcell_steps_per_s.{label}"] = (
            nodes[label] / step_us[label] if step_us[label] else 0.0)
    m["fdtd.probe_us"] = extras["probe_us"]
    m["fdtd.runs"] = len(runs)
    m["fdtd.cell_steps"] = sum(s[6]["nodes"] * s[6]["steps"] for s in runs)
    m["fdtd.unique_run_ratio"] = (
        len({s[6]["key"] for s in runs}) / len(runs) if runs else 0.0)
    for layer, method in (("greens", "tgm"), ("ade", "adem")):
        m[f"{layer}.pole_step_us"] = (
            (blocks[method] - blocks["nondispersive"]) / extras["poles"] if blocks else 0.0)
    advances = by_name["greens.advance_state"]
    m["greens.advance_calls"] = len(advances)
    m["greens.scalar_advance_us"] = _median([dur[s[0]] / 1e3 for s in advances if s[6]])
    m["analysis.reflection_ms"] = ms("analysis.reflection_magnitude")
    m["analysis.fft_points"] = sum(s[6] for s in by_name["analysis.spectrum"])
    m["oracle.rk4_ms"] = ms(*RK4)
    m["oracle.direct_sum_ms"] = ms("oracle.direct_convolution_sum")
    checks = [s for s in spans if s[1].startswith("verify.check_") and s[6]]
    check_ms = defaultdict(float)
    for s in checks:
        check_ms[s[6][0]] += dur[s[0]] / 1e6
    for name in VERIFY_CHECK_NAMES:
        m[f"verify.check_ms.{name}"] = check_ms[name]
    m["verify.checks_failed"] = sum(1 for s in checks if s[6][1] == "FAIL")
    cmds = [s for s in spans if s[1].startswith("cli.cmd_")]
    m["cli.self_ms"] = sum(dur[s[0]] - child_ns[s[0]] for s in cmds) / 1e6
    m["cli.csv_bytes"] = csv_bytes

    # self time per span name, and the share of the CLI span that the
    # Simulation.run spans cover
    self_ms = defaultdict(float)
    for s in spans:
        self_ms[s[1]] += (dur[s[0]] - child_ns[s[0]]) / 1e6
    cmd_ids = {s[0] for s in cmds}
    cmd_ns = sum(dur[i] for i in cmd_ids)
    run_in_cmd = sum(dur[s[0]] for s in runs if s[4] in cmd_ids)
    return {
        "per_layer": m,
        "self_ms": dict(self_ms),
        "run_cover_frac": run_in_cmd / cmd_ns if cmd_ns else None,
        "spans": len(spans),
    }
