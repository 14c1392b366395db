"""greenfdtd benchmark driver.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; greenfdtd is imported from
`src`, and work files go to `.perfbench_work/` there.  Workloads are in
`workloads.py`.  Jobs run one at a time in a closed loop: one job in
flight, each a fresh single-threaded Python process, for about
`--seconds` seconds.

`--trace 0` loops the job, timing before each job the workload's set-up
(import, config load and every build_simulation call) in
SETUP_PROBES_PER_JOB fresh processes, and reports the end-to-end metrics:

    wall_s       median wall time of one job, process start to exit,
                 at the reference host speed (below)
    setup_s      median set-up time, at the reference host speed
    peak_rss_mb  highest peak resident memory of a job process

The host is shared: the speed of each of its CPUs for single-threaded
Python work changes by up to 1.7x, in stretches from milliseconds to
minutes, so a whole run can fall in a slow stretch.  The run is pinned
to one CPU, and the fixed pure-Python kernel `host_time` (no greenfdtd,
no numpy) is timed on it right before and right after every job and
every set-up probe.  Each job or probe time is scaled by HOST_REF_S
over the mean of the two kernel times around it: the time it would
have taken on a host where the kernel takes HOST_REF_S seconds.  The
unscaled samples and the kernel times are in the report line.

`--trace 1` runs one untraced job and one traced job (`jobs.py traced`)
and reports the per-layer metrics, with trace.overhead_frac their
relative wall-time difference.

Every job's output is checked before its time counts.  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`; the line before it is the full report (run context, work
counts, accuracy, job samples, failure notes).  Exits 2 without a result
when there is no greenfdtd source to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

from workloads import WORKLOADS, Job, Outcome

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES_PER_JOB = 1
JOB_TIMEOUT_S = 120.0
# host_time's loop count and its nominal time: about its time on an
# uncontended 2.1 GHz Xeon (Emerald Rapids) vCPU with CPython 3.11.  It
# slows with the host about as much as the jobs do (1.6x against
# 1.6-1.75x between fast and slow stretches).
HOST_LOOPS = 450_000
HOST_REF_S = 0.05


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_job(argv, stdout_path, out=None):
    """Run one child to completion; wall time and peak RSS from wait4."""
    if out and os.path.exists(out):
        os.remove(out)
    with open(stdout_path, "wb") as fh, open(stdout_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=err, env=child_env())
        watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Job(rc=proc.returncode, wall_s=wall, rss_mb=usage.ru_maxrss / 1024.0,
               stdout=stdout_path, out=out)


def read_commit():
    """HEAD commit from .git without running git; None outside a repository."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over every file of src/greenfdtd, to identify the program
    where there is no git metadata."""
    h = hashlib.sha256()
    root = os.path.join("src", "greenfdtd")
    for dirpath, dirnames, files in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            h.update(path.encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_context(seed):
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": read_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def host_time():
    """Seconds the fixed host-speed kernel takes now: interpreter work,
    as in greenfdtd's per-step Python overhead and scalar paths."""
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(HOST_LOOPS):
        acc = acc * 0.5 + i
        table[i & 1023] = acc
    return time.perf_counter() - t0


def pin_to_one_cpu():
    """Keep this process and every child on one CPU.  The host's speed
    changes differ from CPU to CPU, so host_time measures the speed a
    job ran at only when both run on the same one."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def write_inputs(wl, work, **extra):
    path = os.path.join(work, "inputs.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**wl.inputs(), **extra}, fh)
    return path


def setup_probe(inputs, work):
    """Set-up time of one fresh process (`jobs.py setup`) and a failure
    note, if any."""
    job = run_job([sys.executable, os.path.join(HERE, "jobs.py"), "setup", inputs],
                  os.path.join(work, "setup.stdout"))
    try:
        with open(job.stdout, encoding="utf-8") as fh:
            return json.load(fh)["setup_s"], None
    except (OSError, ValueError, KeyError):
        # a failed probe counts with its process time, so set-up work that
        # starts failing cannot read as a speed-up
        return job.wall_s, f"set-up probe failed with exit code {job.rc}"


def untraced(wl, work, seconds):
    inputs = write_inputs(wl, work)
    # Set-up probes run between jobs, so that they and the jobs sample the
    # same stretch of machine speed.  Another round starts only while its
    # length so far still fits in what is left of `seconds`, so a run lasts
    # about `seconds` however long one job takes; the time left after the
    # last round goes to more set-up probes.
    jobs, setups, setup_notes = [], [], []
    host = [host_time()]

    def scaled(value):
        """`value` at the reference host speed, from the kernel times
        before and after it."""
        host.append(host_time())
        return value * HOST_REF_S / (0.5 * (host[-2] + host[-1]))

    def probe():
        t0 = time.perf_counter()
        value, note = setup_probe(inputs, work)
        setups.append((value, scaled(value)))
        setup_notes.extend([note] if note else [])
        return time.perf_counter() - t0

    start = time.perf_counter()
    last = 0.0
    while not jobs or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        for _ in range(SETUP_PROBES_PER_JOB):
            probe_s = probe()
        job = run_job(wl.job_argv(), os.path.join(work, "job.stdout"), wl.out)
        jobs.append((job, wl.check(job), scaled(job.wall_s)))
        last = time.perf_counter() - t0
    while time.perf_counter() - start + probe_s <= seconds:
        probe_s = probe()

    good = [w for j, o, w in jobs if o.failed == 0] or [w for _, _, w in jobs]
    walls = sorted(good)
    wall = statistics.median(walls)
    counts = wl.counts()
    outcomes = [o for _, o, _ in jobs]
    accuracy = [o for o in outcomes if o.r_err_max is not None]
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(v for _, v in setups),
        "peak_rss_mb": max(j.rss_mb for j, _, _ in jobs),
    }
    report = {
        "jobs": len(jobs),
        "wall_s_samples": [w for _, _, w in jobs],
        "wall_s_quartiles": quartiles(walls),
        "wall_s_unscaled": [j.wall_s for j, _, _ in jobs],
        "setup_s_samples": [v for _, v in setups],
        "setup_s_unscaled": [v for v, _ in setups],
        "host_time_s": host,
        "rss_mb_samples": [j.rss_mb for j, _, _ in jobs],
        "mcell_steps_per_s": counts["cell_steps"] / wall / 1e6 if counts["cell_steps"] else None,
        "r_err_max": max((o.r_err_max for o in accuracy), default=None),
        "r_err_rms": max((o.r_err_rms for o in accuracy), default=None),
        "work_per_job": counts,
        "csv_bytes": os.path.getsize(wl.out) if wl.out and os.path.exists(wl.out) else 0,
        "notes": setup_notes + [n for o in outcomes for n in o.notes],
    }
    return metrics, outcomes, report, not setup_notes


def traced(wl, work):
    summary_path = os.path.join(work, "trace_summary.json")
    inputs = write_inputs(wl, work, stdout=os.path.join(work, "traced.stdout"),
                          spans=os.path.join(work, "spans.json"))
    plain = run_job(wl.job_argv(), os.path.join(work, "job.stdout"), wl.out)
    outcomes = [wl.check(plain)]
    if os.path.exists(summary_path):
        os.remove(summary_path)
    job = run_job([sys.executable, os.path.join(HERE, "jobs.py"), "traced", inputs, summary_path],
                  os.path.join(work, "traced.proc.stdout"), wl.out)
    job.stdout = os.path.join(work, "traced.stdout")
    try:
        with open(summary_path, encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, ValueError):
        summary = None
    if summary is None:
        failed = Outcome(attempted=outcomes[0].attempted)
        failed.fail(failed.attempted, f"traced job wrote no summary, exit code {job.rc}")
        return {}, outcomes + [failed], {"notes": failed.notes}, True
    outcomes.append(wl.check(job))
    traced_wall = job.wall_s - summary["post_s"]
    metrics = dict(summary["per_layer"])
    metrics["trace.overhead_frac"] = (traced_wall - plain.wall_s) / plain.wall_s
    report = {
        "untraced_wall_s": plain.wall_s,
        "traced_wall_s": traced_wall,
        "traced_post_s": summary["post_s"],
        "spans": summary["spans"],
        "cli.run_cover_frac": summary["run_cover_frac"],
        "self_ms": summary["self_ms"],
        "notes": [n for o in outcomes for n in o.notes],
    }
    return metrics, outcomes, report, True


def main(argv=None):
    parser = argparse.ArgumentParser(description="greenfdtd benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "greenfdtd", "__init__.py")):
        print("error: no greenfdtd source in ./src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    pin_to_one_cpu()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    work = os.path.join(".perfbench_work", args.workload)
    os.makedirs(work, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, work)
    context = run_context(args.seed)
    if args.trace:
        metrics, outcomes, report, ok = traced(wl, work)
        declared = spec["per_layer"]
    else:
        metrics, outcomes, report, ok = untraced(wl, work, args.seconds)
        declared = spec["end_to_end"]
    context["trace.overhead_frac"] = metrics.get("trace.overhead_frac")
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    report.update(workload=args.workload, trace=args.trace, context=context,
                  attempted=attempted, failed=failed, ops_failed_frac=failed / attempted)

    result = {}
    for m in declared:
        value = metrics.get(m["name"], 0)
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{args.workload} {m['name']} = {value:.6g} {m['unit']}")
    for key, unit in (("mcell_steps_per_s", "Mcell-steps/s"), ("r_err_max", "|R|"),
                      ("r_err_rms", "|R|")):
        if report.get(key) is not None:
            print(f"{args.workload} {key} = {report[key]:.6g} {unit}")
    print(f"{args.workload} ops_failed_frac = {failed}/{attempted} failed/attempted")
    for note in report["notes"]:
        print(f"{args.workload} FAILED: {note}")
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": ok and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
