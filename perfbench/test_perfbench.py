"""Tests of the benchmark's own checks: a broken output must be counted
as a failed operation, never timed as a success.

Run from the checkout root:  python3 -m pytest -q perfbench
"""

import dataclasses
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Job  # noqa: E402


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_silent_nan_run_counts_as_failed(tmp_path):
    """table1 at 300 nodes with a 66-cell absorber and no medium: the
    vacuum absorber blows up, yet `greenfdtd run` exits 0 on it.  Run as
    the sweep job, every simulation on it and every |R| extraction from
    them is a failed operation."""
    from greenfdtd.config import load_config
    from greenfdtd.dispersion import Medium

    cfg = dataclasses.replace(load_config(workloads.TABLE1), n_grid=300, absorber_cells=66,
                              medium=Medium.vacuum(), n_steps=8192)
    wl = workloads.SweepMultipole(1, str(tmp_path))
    wl.configs = [workloads.write_config(str(tmp_path / "nan.cfg"), cfg)]
    assert "[medium]" not in open(wl.configs[0]).read()
    job = run.run_job(wl.job_argv(), str(tmp_path / "job.stdout"))
    assert job.rc == 0
    outcome = wl.check(job)
    assert (outcome.attempted, outcome.failed) == (5, 5)
    assert "non-finite probe sample" in outcome.notes[0]


def test_setup_builds_every_listed_simulation(tmp_path):
    wl = workloads.SweepMultipole(1, str(tmp_path))
    inputs = run.write_inputs(wl, str(tmp_path))
    job = run.run_job([sys.executable, os.path.join(HERE, "jobs.py"), "setup", inputs],
                      str(tmp_path / "setup.stdout"))
    assert job.rc == 0
    assert json.load(open(job.stdout))["builds"] == 3 * workloads.SWEEP_MEDIA
    assert wl.counts()["cell_steps"] == 3 * sum(c.n_grid * c.n_steps for c in wl.media_cfgs)


def _csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(header + "\n" + "".join(",".join(map(str, r)) + "\n" for r in rows))
    return path


def test_reflection_check_fails_on_bound_and_nan(tmp_path):
    wl = workloads.Table1Reflection(1, str(tmp_path))
    header = "freq_hz,r_analytic,r_tgm,r_adem"
    good = _csv(wl.out, header, [[1e9, 0.5, 0.51, 0.49], [2e9, 0.4, 0.4, 0.41]])
    assert wl.check(Job(0, 1.0, 1.0, "", good)).failed == 0
    _csv(wl.out, header, [[1e9, 0.5, 0.53, 0.49]])
    assert wl.check(Job(0, 1.0, 1.0, "", wl.out)).failed == 1
    _csv(wl.out, header, [[1e9, 0.5, float("nan"), 0.49]])
    assert wl.check(Job(0, 1.0, 1.0, "", wl.out)).failed == 1
    assert wl.check(Job(1, 1.0, 1.0, "", good)).failed == 1


def test_verify_check_counts_fail_lines(tmp_path):
    wl = workloads.VerifyTable1(1, str(tmp_path))
    stdout = tmp_path / "verify.stdout"
    lines = [f"PASS check{k}: fine" for k in range(7)]
    stdout.write_text("\n".join(lines + ["FAIL realness: residual", "7/8 checks passed"]))
    outcome = wl.check(Job(2, 1.0, 1.0, str(stdout), None))
    assert (outcome.attempted, outcome.failed) == (8, 1)
    stdout.write_text("\n".join(lines + ["PASS realness: ok", "8/8 checks passed"]))
    assert wl.check(Job(0, 1.0, 1.0, str(stdout), None)).failed == 0


def test_sweep_media_follow_the_seed(tmp_path):
    def texts(seed):
        wl = workloads.SweepMultipole(seed, str(tmp_path))
        return [open(p).read() for p in wl.configs]

    first = texts(3)
    assert texts(3) == first
    assert texts(4) != first
    assert all(text.count("[medium.pole.") == 3 for text in first)


def test_spans_nest_share_operation_and_survive_exceptions():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1, after=lambda r: r)

    def outer_fn(fail):
        inner(1)
        if fail:
            raise ValueError("boom")
        return inner(2)

    outer = tracer.wrap("outer", outer_fn)
    assert outer(False) == 3
    with pytest.raises(ValueError):
        outer(True)
    by_id = {s[0]: s for s in tracer.spans}
    assert sorted(by_id) == list(range(5))
    first, second = by_id[0], by_id[3]
    assert (first[1], first[4], second[4]) == ("outer", -1, -1)
    children = [s for s in tracer.spans if s[4] == 0]
    assert [s[6] for s in sorted(children)] == [2, 3]
    assert all(s[5] == first[5] for s in children) and second[5] == first[5] + 1
    assert all(s[2] <= s[3] for s in tracer.spans)
