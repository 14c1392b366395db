"""Child-process entry points of the benchmark, run from the checkout root
with `src` on PYTHONPATH:

    python3 perfbench/jobs.py setup <inputs.json>
    python3 perfbench/jobs.py sweep <medium.cfg>...
    python3 perfbench/jobs.py traced <inputs.json> <summary.json>

`setup` times what a job does before its first step: importing
greenfdtd, loading the configs and every build_simulation call listed
in the inputs' `builds`.  `sweep` is the sweep_multipole job.  `traced`
repeats one job in-process with spans around the package's public entry
points, then, untraced, times the nondispersive twin against tgm and
adem and probe recording against bare steps, takes the retained bytes
of each build, and writes the per-layer metrics.

Nothing from greenfdtd or numpy is imported at module level, so `setup`
pays the same imports the CLI pays.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time


def load_builds(builds, loaded=None):
    """(label, config, method) of each build: `config` is the path of a
    config file, loaded once (or taken from `loaded`, keyed by path),
    with its medium swapped for vacuum where `vacuum` is set."""
    from greenfdtd import config, dispersion

    loaded = {} if loaded is None else loaded
    out = []
    for b in builds:
        if b["config"] not in loaded:
            loaded[b["config"]] = config.load_config(b["config"])
        cfg = loaded[b["config"]]
        if b["vacuum"]:
            cfg = cfg.with_medium(dispersion.Medium.vacuum())
        out.append((b["label"], cfg, b["method"]))
    return out


def setup(inputs_path):
    with open(inputs_path, encoding="utf-8") as fh:
        inputs = json.load(fh)
    t0 = time.perf_counter()
    from greenfdtd import config, fdtd

    # every config is loaded, also where the job builds no grid from it
    loaded = {path: config.load_config(path) for path in inputs["configs"]}
    builds = load_builds(inputs["builds"], loaded)
    sims = [fdtd.build_simulation(cfg, method=m) for _, cfg, m in builds]
    elapsed = time.perf_counter() - t0
    print(json.dumps({"setup_s": elapsed, "builds": len(sims)}))
    return 0


def sweep(paths):
    """Vacuum reference, tgm and adem runs and both |R| extractions per
    medium.  Each failure is recorded against its operation and the sweep
    goes on; the caller judges the errors against its bounds."""
    import numpy as np
    from greenfdtd import analysis, config, dispersion, fdtd

    media = []
    cell_steps = 0
    for path in paths:
        cfg = config.load_config(path)
        nodes = fdtd.probe_nodes_from_fractions(cfg.probes, cfg.n_grid)
        slot = min(1, len(nodes) - 1)
        ops, series, mags = {}, {}, {}
        rec = {"ops": ops, "r_err_max": {}, "r_err_rms": {}, "tgm_adem_max": None}
        for name, c, method in (
                ("vacuum", cfg.with_medium(dispersion.Medium.vacuum()), "tgm"),
                ("tgm", cfg, "tgm"), ("adem", cfg, "adem")):
            try:
                probes = fdtd.build_simulation(c, method=method).run(cfg.n_steps, nodes)
                cell_steps += cfg.n_grid * cfg.n_steps
                if not all(np.isfinite(p.samples).all() for p in probes):
                    raise ArithmeticError("non-finite probe sample")
                series[name] = probes[slot]
                ops[f"sim.{name}"] = None
            except Exception as exc:  # every failure is an outcome to report
                ops[f"sim.{name}"] = f"{type(exc).__name__}: {exc}"
        for name in ("tgm", "adem"):
            key = f"refl.{name}"
            if "vacuum" not in series or name not in series:
                ops[key] = "input run failed"
                continue
            try:
                pairs = analysis.reflection_magnitude(series["vacuum"], series[name],
                                                      cfg.band_threshold)
                freqs = np.array([f for f, _ in pairs])
                mag = np.array([m for _, m in pairs])
                if not np.isfinite(mag).all():
                    raise ArithmeticError("non-finite |R|")
                exact = np.abs(dispersion.reflection_coefficient(cfg.medium, 2.0 * np.pi * freqs))
                err = np.abs(mag - exact)
                rec["r_err_max"][name] = float(err.max())
                rec["r_err_rms"][name] = float(np.sqrt(np.mean(err**2)))
                mags[name] = mag
                ops[key] = None
            except Exception as exc:  # every failure is an outcome to report
                ops[key] = f"{type(exc).__name__}: {exc}"
        if len(mags) == 2:
            rec["tgm_adem_max"] = float(np.abs(mags["tgm"] - mags["adem"]).max())
        media.append(rec)
    return {"media": media, "cell_steps": cell_steps}


def traced(inputs_path, summary_path):
    with open(inputs_path, encoding="utf-8") as fh:
        inputs = json.load(fh)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import spans

    tracer = spans.Tracer()
    tracer.install()
    from greenfdtd import cli

    t0 = time.perf_counter()
    with open(inputs["stdout"], "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        if inputs["workload"] == "sweep_multipole":
            print(json.dumps(sweep(inputs["configs"])))
            rc = 0
        else:
            rc = cli.main(inputs["cli_args"])
    t1 = time.perf_counter()
    tracer.uninstall()
    extras = spans.measure_extras(inputs)
    csv_bytes = os.path.getsize(inputs["out"]) if inputs["out"] else 0
    summary = spans.summarize(tracer.spans, extras, csv_bytes)
    with open(inputs["spans"], "w", encoding="utf-8") as fh:
        json.dump({"fields": spans.FIELDS, "spans": tracer.spans}, fh)
    # post_s: everything after the job itself, which the caller takes
    # off the traced process's wall time
    summary.update(rc=rc, workload_s=t1 - t0, post_s=time.perf_counter() - t1)
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return rc


def main(argv):
    mode, args = argv[0], argv[1:]
    if mode == "setup":
        return setup(*args)
    if mode == "sweep":
        print(json.dumps(sweep(args)))
        return 0
    if mode == "traced":
        return traced(*args)
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
