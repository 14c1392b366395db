"""Leapfrog grid: source, boundaries, propagation, structural properties."""

import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenfdtd import greens
from greenfdtd.analysis import finite_run, reflection_magnitude
from greenfdtd.ade import ade_advance, ade_current_half_step
from greenfdtd.bank import PoleBank, pole_matrix
from greenfdtd.config import SimConfig, load_table1
from greenfdtd.constants import C0, EPS0, MU0
from greenfdtd.dispersion import LorentzPole, Medium
from greenfdtd.errors import ValidationError
from greenfdtd.fdtd import (
    GaussianSource,
    Grid1D,
    ProbeSeries,
    QUIET_CHECK_STEPS,
    Simulation,
    build_simulation,
    interface_node,
    mur_coefficient,
    mur_update,
    probe_nodes_from_fractions,
    source_value,
)

TABLE1_SRC = GaussianSource(t0=1.0e-11, delta_t=1.0e-12, omega0=2 * math.pi * 100e9)


def small_config(medium=None, n_grid=400, length=0.01, steps=600, **overrides):
    cfg = SimConfig(
        system_length=length,
        n_grid=n_grid,
        cfl_factor=0.9,
        source=TABLE1_SRC,
        medium=medium or Medium.vacuum(),
        n_steps=steps,
    )
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


WP = 2 * math.pi * 20e9
UNDERDAMPED = LorentzPole(3.0, WP, 0.1 * WP)
OVERDAMPED = LorentzPole(3.0, WP, 3.0 * WP)
UNDAMPED = LorentzPole(3.0, WP, 0.0)  # |prop| = 1


def table1_like_medium():
    return Medium(eps_inf=1.5, sigma=0.0, poles=(UNDERDAMPED,))


def multipole_medium():
    """Two underdamped poles and one overdamped pole, with conductivity."""
    return Medium(eps_inf=1.5, sigma=0.5, poles=(
        LorentzPole(2.0, WP, 0.1 * WP),
        LorentzPole(0.7, 2.6 * WP, 0.05 * WP),
        LorentzPole(0.5, 0.8 * WP, 2.5 * 0.8 * WP),
    ))


def two_pole_medium():
    """An overdamped and an underdamped pole, with conductivity."""
    return Medium(eps_inf=2.0, sigma=0.2, poles=(OVERDAMPED, LorentzPole(1.0, 1.7 * WP, 0.34 * WP)))


MEDIA = {"table1": table1_like_medium, "multipole": multipole_medium, "two_pole": two_pole_medium}


class TestSource:
    def test_peak(self):
        assert source_value(TABLE1_SRC, TABLE1_SRC.t0) == 1.0

    def test_quiet_start(self):
        # envelope at t=0 is exp(-50), far below any field of interest
        assert abs(source_value(TABLE1_SRC, 0.0)) < 1e-21

    def test_envelope_width(self):
        for sgn in (-1.0, 1.0):
            t = TABLE1_SRC.t0 + sgn * TABLE1_SRC.delta_t
            carrier = math.cos(TABLE1_SRC.omega0 * sgn * TABLE1_SRC.delta_t)
            assert source_value(TABLE1_SRC, t) == pytest.approx(
                math.exp(-0.5) * carrier, rel=1e-12
            )

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError):
            GaussianSource(t0=1e-11, delta_t=0.0, omega0=1e11)

    @pytest.mark.parametrize("t0", [0.0, -1e-11, math.nan])
    def test_t0_must_be_positive(self, t0):
        # the source must be live at t = 0, where the Simulation pins it
        with pytest.raises(ValueError, match="t0 must be positive"):
            GaussianSource(t0=t0, delta_t=1e-12, omega0=1e11)


class TestMur:
    def test_magic_step_perfect_absorption(self):
        dx = 1e-5
        dt = dx / C0
        assert mur_update(0.3, 0.7, 0.4, mur_coefficient(dx, dt)) == 0.7

    def test_static_field_preserved(self):
        e0 = 1.7
        k = mur_coefficient(1e-5, 0.9e-5 / C0)
        assert mur_update(e0, e0, e0, k) == pytest.approx(e0, rel=1e-15)

    def test_node0_holds_source_then_takes_mur(self):
        # node 0 holds the source's t = 0 value from build on; the first
        # step past t = 2 t0 gives it the Mur update of the fields before it
        sim = build_simulation(small_config())
        e, dx, dt = sim.grid.e, sim.grid.dx, sim.grid.dt
        assert e[0] == source_value(TABLE1_SRC, 0.0) != 0.0
        while (sim.step_index + 1) * dt < 2 * TABLE1_SRC.t0:
            sim.step()
            assert e[0] == source_value(TABLE1_SRC, sim.step_index * sim.grid.dt)
        e0_old, e1_old = float(e[0]), float(e[1])
        sim.step()
        k = (C0 * dt - dx) / (C0 * dt + dx)
        assert e[0] == e1_old + k * (float(e[1]) - e0_old)

    def test_vacuum_pulse_residual_below_one_percent(self):
        sim = build_simulation(small_config())
        # run until the pulse has fully left through both ends
        for _ in range(1000):
            sim.step()
        assert np.abs(sim.grid.e).max() < 0.01


class TestPropagation:
    def test_vacuum_peak_arrival_time(self):
        cfg = small_config()
        sim = build_simulation(cfg)
        node = 200
        series = sim.run(500, [node])[0]
        t_peak = series.times[np.abs(series.samples).argmax()]
        expected = TABLE1_SRC.t0 + node * sim.grid.dx / C0
        assert abs(t_peak - expected) < 2 * sim.grid.dt

    def test_probe_at_source_node_replays_source(self):
        cfg = small_config(steps=120)
        sim = build_simulation(cfg)
        series = sim.run(120, [0])[0]
        for t, sample in zip(series.times, series.samples):
            if t < 2 * TABLE1_SRC.t0:
                assert sample == source_value(TABLE1_SRC, t)

    def test_no_impedance_contrast_no_reflection(self):
        from greenfdtd.analysis import reflection_magnitude

        cfg = small_config(steps=900)
        ref = build_simulation(cfg).run(900, [100])[0]
        tot = build_simulation(
            cfg.with_medium(Medium(eps_inf=1.0, sigma=0.0)), method="tgm"
        ).run(900, [100])[0]
        for _, mag in reflection_magnitude(ref, tot, band_threshold=0.01):
            assert mag < 1e-3

    def test_run_zero_steps(self):
        sim = build_simulation(small_config())
        series = sim.run(0, [3])[0]
        assert len(series.samples) == 0

    def test_probe_out_of_range(self):
        sim = build_simulation(small_config())
        with pytest.raises(ValueError):
            sim.run(1, [10_000])

    def test_determinism(self):
        # the pole bank steps through BLAS; two builds must still agree bit
        # for bit, for either method
        for medium in (table1_like_medium(), multipole_medium()):
            cfg = small_config(medium=medium, steps=400)
            for method in ("tgm", "adem"):
                a, b = (build_simulation(cfg, method=method).run(400, [100, 200, 300])
                        for _ in range(2))
                for sa, sb in zip(a, b):
                    assert np.array_equal(sa.samples, sb.samples)


class TestQuietExit:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("where", ["e", "b", "bank"])
    @pytest.mark.parametrize("pos", [0, -1])
    def test_non_finite_grid_never_quiet(self, bad, where, pos):
        sim = build_simulation(small_config(medium=table1_like_medium()))
        sim.grid.e[0] = 0.0
        assert sim._lanes[0].quiet(np.ones(4))  # a zero grid is quiet
        arr = {"e": sim.grid.e, "b": sim.grid.b, "bank": sim._lanes[0].bank.buffers[1]}[where]
        arr.flat[pos] = bad
        for peaks in (np.ones(4), np.full(4, np.inf)):
            assert not sim._lanes[0].quiet(peaks)

    def test_subnormals_set_to_zero(self):
        # subnormals slow numpy's passes; the check zeroes them and keeps
        # every normal value, however small
        sim = build_simulation(small_config(medium=table1_like_medium()))
        tiny = np.finfo(float).smallest_normal
        for a in sim._lanes[0].state:
            a.flat[:5] = [tiny / 2, -tiny / 4, 5e-324, tiny, -1e-300]
        sim._lanes[0].quiet(np.ones(4))
        for a in sim._lanes[0].state:
            assert list(a.flat[:5]) == [0.0, 0.0, 0.0, tiny, -1e-300]

    def test_quiet_needs_every_array_below_its_own_peak(self):
        sim = build_simulation(small_config(medium=table1_like_medium()))
        sim.grid.e[0] = 0.0
        sim._lanes[0].bank.buffers[0][0, 5] = 1e-13
        peaks = np.array([1.0, 1.0, 1.0, 1.0])
        assert not sim._lanes[0].quiet(peaks)
        assert sim._lanes[0].quiet(np.array([1.0, 1.0, 100.0, 1.0]))


@pytest.mark.parametrize("method", ["vacuum", "tgm", "adem"])
def test_run_equals_stepping_by_hand(method):
    # `run` against `step` called by hand, recording E at the probes after
    # each step; the second `run` continues the first, after an odd number
    # of steps, so the bank's buffers must take their turns across calls
    cfg = small_config(medium=multipole_medium(), absorber_cells=40, absorber_sigma=5.0)
    if method == "vacuum":
        cfg, method = cfg.with_medium(Medium.vacuum()), "tgm"
    nodes, first, second = [100, 200, 300], 301, 299
    hand, sim = build_simulation(cfg, method=method), build_simulation(cfg, method=method)
    want = np.empty((first + second, len(nodes)))
    for row in want:
        hand.step()
        row[:] = hand.grid.e[nodes]
    runs = [sim.run(first, nodes), sim.run(second, nodes)]
    got = np.hstack([[s.samples for s in series] for series in runs]).T
    assert np.abs(want).max(axis=0).min() > 1e-3  # the pulse reaches every probe
    assert np.array_equal(got, want)
    assert sim.step_index == hand.step_index == first + second
    assert len(sim._lanes[0].state) == (4 if cfg.medium.dispersive else 2)
    for a, b in zip(sim._lanes[0].state, hand._lanes[0].state):
        assert np.array_equal(a, b)


def lane_config(cfg, label):
    """`cfg` as the run `label` of the reflection experiment: "vacuum"
    (its vacuum reference, stepped with tgm), "tgm" or "adem"."""
    if label == "vacuum":
        return dataclasses.replace(cfg.with_medium(Medium.vacuum()), method="tgm")
    return dataclasses.replace(cfg, method=label)


def small_table1():
    """A tenth of the table1 grid at table1's dx."""
    base = load_table1()
    return dataclasses.replace(base, n_grid=300, system_length=299 * base.dx,
                               absorber_cells=66, n_steps=600)


def chained_records(sim, nodes):
    """The records of `sim.run(301, nodes)` followed by `sim.run(299,
    nodes)`, one array per series, after checking the series' nodes."""
    first, second = sim.run(301, nodes), sim.run(299, nodes)
    assert [s.node_index for s in first] == [s.node_index for s in second]
    assert [s.node_index for s in first] == nodes * (len(first) // len(nodes))
    return [np.concatenate([s.samples, t.samples]) for s, t in zip(first, second)]


def counted_blocks(sim):
    """A list that gets the steps of each block that a kernel which `sim`
    binds from now on is asked to advance, stop - step_index, so that its
    sum is the steps `run` makes."""
    blocks, bind = [], sim._bind

    def counted_bind(*args):
        kernel = bind(*args)

        def counted(step_index, stop, i):
            blocks.append(stop - step_index)
            return kernel(step_index, stop, i)
        return counted

    sim._bind = counted_bind
    return blocks


# (base, labels) of the lane layouts that TestLanes builds (`lanes_of`)
LAYOUTS = pytest.mark.parametrize("base, labels", [
    ("table1", ("tgm", "adem", "vacuum")), ("table1", ("vacuum", "adem", "tgm")),
    ("multipole", ("tgm", "adem", "vacuum")), ("multipole", ("vacuum", "adem", "tgm")),
    # lanes of different media, whose pole counts, bank shapes and
    # first lossy nodes differ
    ("multipole", ("table1:tgm", "multipole:adem", "vacuum", "multipole:tgm",
                   "table1:adem")),
    ("multipole", ("multipole:tgm", "vacuum", "two_pole:adem", "table1:tgm")),
    # three media, each under both methods, and one vacuum lane
    ("table1", ("table1:tgm", "table1:adem", "multipole:tgm", "multipole:adem",
                "two_pole:tgm", "two_pole:adem", "vacuum")),
    # no absorber: a lossless lane's B loss run is only its seam and its E
    # loss run is empty, and a lossless last lane has neither
    ("bare", ("vacuum", "multipole:tgm")),
    ("bare", ("table1:adem", "multipole:tgm", "table1:tgm")),
], ids=["table1-labels0", "table1-labels1", "multipole-labels0", "multipole-labels1",
        "media-lossless-first", "media-lossy-first", "media-seven-lanes",
        "bare-vacuum-first", "bare-sigma0-first"])


def lanes_of(base, labels):
    """(configs, probe nodes) of a LAYOUTS case: the table1-like grid of
    `small_table1`, the multipole grid with a 40-cell absorber or, for
    "bare", the multipole grid without one; a label "<medium>:<method>"
    puts that medium of MEDIA in the lane."""
    if base == "table1":
        cfg, nodes = small_table1(), [75, 149, 224]
    elif base == "multipole":
        cfg, nodes = small_config(medium=multipole_medium(), absorber_cells=40,
                                  absorber_sigma=5.0), [100, 200, 300]
    else:
        cfg, nodes = small_config(medium=multipole_medium()), [100, 200, 300]
    configs = []
    for label in labels:
        medium, _, method = label.rpartition(":")
        configs.append(lane_config(cfg.with_medium(MEDIA[medium]()) if medium else cfg, method))
    return configs, nodes


def covered(whole, views):
    """Mask of the entries of the 1-D array `whole` that one of `views`,
    contiguous views of it, covers."""
    mask = np.zeros(len(whole), dtype=bool)
    for view in views:
        start = (view.ctypes.data - whole.ctypes.data) // whole.itemsize
        mask[start:start + len(view)] = True
    return mask


def diverging_lanes(labels):
    """The Simulation of the lanes `labels` of a medium under which adem
    diverges and tgm does not, after checking that each lane's records are
    byte-equal to its run alone."""
    # at omega_p*dt = 0.9 adem is unstable (limit 0.865) and tgm is not
    # (0.925): the adem lane overflows, its neighbours step on as alone
    cfg = small_config(steps=3072)
    wp = 0.9 / cfg.dt
    pole = LorentzPole(3.0, wp, 0.1 * wp)
    cfg = cfg.with_medium(Medium(eps_inf=1.5, sigma=0.0, poles=(pole,)))
    configs = [lane_config(cfg, label) for label in labels]
    sim = Simulation(*configs)
    with np.errstate(over="ignore", invalid="ignore"):
        got = sim.run(cfg.n_steps, [100])
        alone = [Simulation(c).run(cfg.n_steps, [100])[0] for c in configs]
    for label, g, want in zip(labels, got, alone):
        assert np.isfinite(want.samples).all() == (label != "adem")
        assert g.samples.tobytes() == want.samples.tobytes()
    return sim


class TestLanes:
    """Lanes of one Simulation against each lane's config run alone."""

    @LAYOUTS
    def test_each_lane_is_its_run_alone(self, base, labels):
        # two chained runs, the first of an odd number of steps, so every
        # bank's buffers take their turns across calls
        configs, nodes = lanes_of(base, labels)
        sim = Simulation(*configs)
        got = chained_records(sim, nodes)
        assert len(got) == len(labels) * len(nodes)
        for k, c in enumerate(configs):
            alone = Simulation(c)
            want = chained_records(alone, nodes)
            assert [g.tobytes() for g in got[k * len(nodes):(k + 1) * len(nodes)]] == \
                [w.tobytes() for w in want]
            assert np.abs(want).max() > 1e-3
            lane = sim._lanes[k]
            assert len(lane.state) == len(alone._lanes[0].state)
            for a, b in zip(lane.state, alone._lanes[0].state):
                assert np.array_equal(a, b)
        assert sim.step_index == 600
        # the seam B node after each lane but the last stays exactly zero
        n = configs[0].n_grid
        assert not sim.grid.b[n - 1::n].any()

    @LAYOUTS
    def test_every_factor_outside_the_loss_runs_is_one(self, base, labels):
        # the loss passes cover only the lanes' loss runs, so every factor
        # outside them must be exactly 1, and every seam, with bm_hi = 0,
        # must lie inside its lane's B run
        configs, _ = lanes_of(base, labels)
        sim = Simulation(*configs)
        n, lanes = configs[0].n_grid, sim._lanes
        b_runs = covered(sim.grid.b, [lane.b_run[0] for lane in lanes])
        e_runs = covered(sim.grid.e[1:-1], [lane.e_run[0] for lane in lanes])
        # each run's factor views lie over the same nodes as its field view
        assert np.array_equal(covered(sim._ca_b, [lane.b_run[1] for lane in lanes]), b_runs)
        assert np.array_equal(covered(sim._cb, [lane.b_run[2] for lane in lanes]), b_runs)
        assert np.array_equal(covered(sim._ca_e, [lane.e_run[1] for lane in lanes]), e_runs)
        for factors, runs in ((sim._ca_b, b_runs), (sim._cb, b_runs), (sim._ca_e, e_runs)):
            assert (factors[~runs] == 1.0).all()
        seams = np.arange(n - 1, len(sim.grid.b), n)
        assert b_runs[seams].all() and not sim._cb[seams].any()
        for k, (c, lane) in enumerate(zip(configs, lanes)):
            if c.medium.sigma == 0.0 and c.absorber_cells == 0:
                assert len(lane.b_run[0]) == (k < len(lanes) - 1) and not len(lane.e_run[0])
            else:
                assert len(lane.e_run[0]) > 0

    @settings(max_examples=8, deadline=None)
    @given(poles=st.lists(st.tuples(st.floats(0.1, 3.0), st.floats(0.005, 0.1),
                                    st.one_of(st.floats(0.0, 0.9), st.floats(1.2, 3.0))),
                          min_size=1, max_size=3),
           sigma=st.floats(0.0, 0.5), labels=st.permutations(["tgm", "adem", "vacuum"]),
           cuts=st.lists(st.integers(1, 2559), max_size=3, unique=True))
    def test_drawn_lanes_and_splits_are_runs_alone(self, poles, sigma, labels, cuts):
        # a drawn medium of (delta_eps, omega_p dt, delta_p / omega_p)
        # poles, under both methods beside a vacuum lane in a drawn order,
        # run in 1-4 calls: each lane's records and state are those of its
        # config run alone in one call.  A trailing vacuum lane is quiet at
        # step 2304 and drops out of the kernel before step 2560
        cfg, nodes = small_config(n_grid=200, length=0.005, absorber_cells=20,
                                  absorber_sigma=5.0), [50, 150]
        medium = Medium(eps_inf=1.5, sigma=sigma, poles=tuple(
            LorentzPole(deps, wpdt / cfg.dt, ratio * wpdt / cfg.dt) for deps, wpdt, ratio in poles))
        configs = [lane_config(cfg.with_medium(medium), label) for label in labels]
        sim, bounds = Simulation(*configs), [0, *sorted(cuts), 2560]
        calls = [sim.run(stop - start, nodes) for start, stop in zip(bounds, bounds[1:])]
        for k, c in enumerate(configs):
            alone = Simulation(c)
            want = alone.run(2560, nodes)
            got = [np.concatenate([call[k * len(nodes) + j].samples for call in calls])
                   for j in range(len(nodes))]
            assert [g.tobytes() for g in got] == [w.samples.tobytes() for w in want]
            assert [a.tobytes() for a in sim._lanes[k].state] == \
                [a.tobytes() for a in alone._lanes[0].state]

    @pytest.mark.parametrize("quiet_first", [True, False])
    def test_quiet_lane_exits_at_its_own_step(self, quiet_first):
        # the small vacuum grid is quiet at step 2560; the table1-like
        # medium decays by e every ~1060 steps and stays live
        labels = ["vacuum", "tgm"] if quiet_first else ["tgm", "vacuum"]
        cfg, nodes, steps = small_config(medium=table1_like_medium()), [100, 300], 3072
        configs = [lane_config(cfg, label) for label in labels]
        alone = Simulation(configs[labels.index("vacuum")])
        blocks = counted_blocks(alone)
        want = alone.run(steps, nodes)
        assert sum(blocks) == 2560

        sim = Simulation(*configs)
        lane = sim._lanes[labels.index("vacuum")]
        exits, quiet = [], lane.quiet
        lane.quiet = lambda peaks: quiet(peaks) and not exits.append(sim.step_index)
        got = sim.run(steps, nodes)
        assert exits == [2560] and sim.step_index == steps
        k = labels.index("vacuum")
        for g, w in zip(got[k * len(nodes):], want):
            assert g.samples.tobytes() == w.samples.tobytes()
            assert not w.samples[2560:].any() and w.samples[:2560].any()
        live = got[(1 - k) * len(nodes)]
        assert live.samples[2560:].any()
        # a trailing quiet lane leaves the kernel; a leading one stays in it
        assert sim._live == (2 if quiet_first else 1)
        assert not any(a.any() for a in lane.state)

    @pytest.mark.parametrize("labels", [["vacuum"], ["vacuum", "tgm"], ["tgm", "vacuum"]])
    def test_quiet_exit_spans_run_calls(self, labels):
        # a run split into calls keeps each lane's peaks and checks at the
        # steps of one call: the vacuum lane exits at step 2560 either way
        cfg, nodes = small_config(medium=table1_like_medium()), [100, 300]
        configs = [lane_config(cfg, label) for label in labels]
        sims, records = [Simulation(*configs), Simulation(*configs)], []
        for sim, split in zip(sims, [[3072], [1000, 2072]]):
            blocks = counted_blocks(sim)
            runs = [sim.run(steps, nodes) for steps in split]
            records.append([np.concatenate([s.samples for s in series])
                            for series in zip(*runs)])
            assert sum(blocks) == (2560 if labels == ["vacuum"] else 3072)
            assert sim.step_index == 3072
        single, split = records
        assert [s.tobytes() for s in split] == [s.tobytes() for s in single]
        assert [s._lanes[labels.index("vacuum")].exited for s in sims] == [True, True]
        assert sims[1]._live == sims[0]._live
        for one, two in zip(*(s._lanes for s in sims)):
            assert [a.tobytes() for a in two.state] == [a.tobytes() for a in one.state]
            assert two.peaks.tobytes() == one.peaks.tobytes()

    def test_kernels_bound_only_when_used(self, monkeypatch):
        # a build binds nothing; run binds its recording kernel once per
        # call and once per lane drop; step binds its own on first use,
        # keeps it, and binds it again over the lanes left after a drop
        calls, bind = [], Simulation._bind

        def counted_bind(self, live, nodes, out):
            calls.append((live, nodes))
            return bind(self, live, nodes, out)

        monkeypatch.setattr(Simulation, "_bind", counted_bind)
        cfg = small_config(medium=table1_like_medium())
        sim = build_simulation(lane_config(cfg, "tgm"), lane_config(cfg, "vacuum"))
        assert calls == []
        sim.run(300, [100])
        assert calls == [(2, (100,))]
        sim.step()
        sim.step()
        assert calls[1:] == [(2, ())]
        # the trailing vacuum lane is quiet at step 2560 and leaves both kernels
        sim.run(3072 - sim.step_index, [100])
        vacuum = sim._lanes[1]
        assert vacuum.exited and calls[2:] == [(2, (100,)), (1, (100,))]
        sim.step()
        assert calls[4:] == [(1, ())]
        assert not any(a.any() for a in vacuum.state)
        assert sim.grid.e[:cfg.n_grid].any()

    def test_series_share_one_record(self):
        cfg = small_config(medium=table1_like_medium())
        series = Simulation(cfg, lane_config(cfg, "vacuum")).run(300, [100, 200, 300])
        record = series[0].samples.base
        assert record.shape == (300, 6)
        assert all(np.shares_memory(s.samples, record) for s in series)

    def test_split_run_records_end_nodes_as_single_steps(self):
        # the kernel reads and writes the end nodes and writes the record
        # through memoryviews; calls of 1, 255, 256 and 257 steps cross the
        # source's end and the quiet check at step 512, where no lane exits
        cfg = small_config(medium=table1_like_medium(), absorber_cells=40, absorber_sigma=5.0)
        n, nodes = cfg.n_grid, [0, 1, 300, cfg.n_grid - 2, cfg.n_grid - 1]
        assert 256 * cfg.dt < 2.0 * cfg.source.t0 < 512 * cfg.dt
        configs = [lane_config(cfg, label) for label in ("tgm", "adem", "vacuum")]
        sim, ref = Simulation(*configs), Simulation(*configs)
        runs = [sim.run(steps, nodes) for steps in (1, 255, 256, 257)]
        got = [np.concatenate([s.samples for s in series]) for series in zip(*runs)]
        want = np.empty((769, 3 * len(nodes)))
        for row in want:
            ref.step()
            row[:] = ref.grid.e[(n * np.arange(3)[:, None] + nodes).ravel()]
        assert want.any(axis=0).all()
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want.T.copy()]
        assert sim.step_index == ref.step_index == 769
        assert all(lane.peaks.all() and not lane.exited for lane in sim._lanes)

    @pytest.mark.parametrize("n_steps, nodes, message", [
        (True, [5], "n_steps must be a non-negative integer, got True"),
        (2.0, [5], "n_steps must be a non-negative integer, got 2.0"),
        (3, [True, 5], "probe node must be an integer in [0, 400), got True"),
        (3, [5, np.float64(7.0)],
         "probe node must be an integer in [0, 400), got np.float64(7.0)"),
    ], ids=["bool-steps", "float-steps", "bool-node", "float-node"])
    def test_run_arguments_named(self, n_steps, nodes, message):
        # a bool is never a count or a node, as in the value types' domains
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build_simulation(small_config()).run(n_steps, nodes)

    def test_numpy_integer_arguments_accepted(self):
        sim = build_simulation(small_config())
        series = sim.run(np.int64(3), [np.intp(5)])
        assert len(series[0].samples) == 3 and type(series[0].node_index) is int
        assert sim.step_index == 3 and type(sim.step_index) is int

    def test_lane_beside_a_diverging_lane(self):
        diverging_lanes(("tgm", "adem", "vacuum"))

    def test_lossless_lanes_before_a_diverging_lane(self):
        # no lane has an absorber or sigma, so every B loss run is a seam
        # alone and no lane has an E loss run.  The seam between the two
        # finite lanes stays exactly zero; the one before the diverging
        # lane takes its overflow (bm_hi * inf is NaN), which only the end
        # rows, with ce = 0, read before their Mur updates rewrite them
        sim = diverging_lanes(("vacuum", "tgm", "adem"))
        n = len(sim._lanes[0].e)
        assert [len(lane.b_run[0]) for lane in sim._lanes] == [1, 1, 0]
        assert not any(len(lane.e_run[0]) for lane in sim._lanes)
        assert sim.grid.b[n - 1] == 0.0

    @pytest.mark.parametrize("field, value", [
        ("n_grid", 401),
        ("cfl_factor", 0.8),
        ("source", GaussianSource(t0=2.0e-11, delta_t=1.0e-12, omega0=2 * math.pi * 100e9)),
    ])
    def test_lanes_differ_only_in_medium_and_method(self, field, value):
        cfg = small_config()
        other = dataclasses.replace(cfg, medium=table1_like_medium(), method="adem",
                                    **{field: value})
        with pytest.raises(ValueError, match=f"not in {field}: "):
            Simulation(cfg, other)


@pytest.fixture(scope="module")
def table1_vacuum():
    """Table1's vacuum reference at its probes, from `run` (counting the
    steps its kernel advances) and from stepping all n_steps steps."""
    cfg = load_table1().with_medium(Medium.vacuum())
    nodes = probe_nodes_from_fractions(cfg.probes, cfg.n_grid)
    sim = build_simulation(cfg)
    blocks = counted_blocks(sim)
    series = sim.run(cfg.n_steps, nodes)
    ref = build_simulation(cfg)
    full = np.empty((cfg.n_steps, len(nodes)))
    for row in full:
        ref.step()
        row[:] = ref.grid.e[nodes]
    return {"config": cfg, "sim": sim, "series": series, "full": full.T, "steps_run": sum(blocks)}


class TestTable1QuietExit:
    def test_vacuum_reference_goes_quiet_before_step_13000(self, table1_vacuum):
        # measured: quiet at step 12032 of 32768
        steps_run = table1_vacuum["steps_run"]
        assert steps_run < 13000 and steps_run % QUIET_CHECK_STEPS == 0
        for series, full in zip(table1_vacuum["series"], table1_vacuum["full"]):
            assert not series.samples[steps_run:].any()
            assert full[steps_run:].all()  # stepped on, the grid keeps its rounding noise

    def test_matches_full_stepping(self, table1_vacuum):
        sim = table1_vacuum["sim"]
        assert sim.step_index == table1_vacuum["config"].n_steps
        assert not sim.grid.e.any() and not sim.grid.b.any()
        for series, full in zip(table1_vacuum["series"], table1_vacuum["full"]):
            assert np.abs(series.samples - full).max() <= 1e-14 * np.abs(full).max()

    @pytest.mark.parametrize("method", ["tgm", "adem"])
    def test_reflection_within_1e12_of_full_run(self, table1_vacuum, method):
        cfg, dt = load_table1(), table1_vacuum["sim"].grid.dt
        nodes = probe_nodes_from_fractions(cfg.probes, cfg.n_grid)
        col = nodes.index(max(i for i in nodes if i < interface_node(cfg.n_grid)))
        [total] = finite_run(cfg, method, [nodes[col]], method)
        quiet = reflection_magnitude(table1_vacuum["series"][col], total, cfg.band_threshold)
        full = reflection_magnitude(ProbeSeries(nodes[col], table1_vacuum["full"][col], dt),
                                    total, cfg.band_threshold)
        assert np.array_equal(quiet[:, 0], full[:, 0])
        assert np.abs(quiet[:, 1] - full[:, 1]).max() <= 1e-12


class TestEnergyAndStability:
    def test_vacuum_energy_conserved_while_pulse_is_interior(self):
        # 1600 nodes, so the pulse stays clear of both Mur ends over the
        # measured window
        cfg = small_config(n_grid=1600, length=0.04)
        sim = build_simulation(cfg)
        # let the source finish
        while sim.step_index * sim.grid.dt < 2 * TABLE1_SRC.t0:
            sim.step()
        dx, dt = sim.grid.dx, sim.grid.dt

        def energies_after_step():
            # (U_E, U_B) in staggered-product form, whose sum the lossless
            # leapfrog conserves exactly while the end nodes stay at zero;
            # the grid stores B*dx/dt
            e_now = sim.grid.e.copy()
            b_before = sim.grid.b * (dt / dx)
            sim.step()
            b_after = sim.grid.b * (dt / dx)
            return (0.5 * EPS0 * np.sum(e_now**2) * dx,
                    np.sum(b_before * b_after) / (2 * MU0) * dx)

        u0 = sum(energies_after_step())
        for _ in range(1000):
            u_e, u_b = energies_after_step()
            assert abs(u_e + u_b - u0) < 1e-3 * u0
            # a travelling pulse carries as much magnetic as electric
            # energy; each part alone is constant whatever B's units
            assert abs(u_b / u_e - 1.0) < 1e-2

    def test_long_run_stays_bounded(self):
        # dispersive run at the operating point: 2^16 steps, no late-time
        # instability
        cfg = load_table1()
        cfg = dataclasses.replace(cfg, n_steps=2**16)
        sim = build_simulation(cfg)
        peak = 0.0
        for _ in range(2**16):
            sim.step()
            peak = max(peak, float(np.abs(sim.grid.e).max()))
        assert peak <= 10.0

    def test_leapfrog_reduces_to_plain_yee_without_poles(self):
        cfg = small_config(medium=Medium(eps_inf=2.0, sigma=0.0), steps=300)
        assert build_simulation(cfg, method="tgm")._lanes[0].bank is None
        for got, ref in zip(simulated_fields(cfg, "tgm", 300),
                            fields(*full_array_leapfrog(cfg, "tgm"), 300)):
            assert_within_rounding(got, ref)


class TestBuilder:
    def test_interface_location(self):
        assert interface_node(3000) == 1500
        sim = build_simulation(small_config(medium=multipole_medium(), n_grid=3000, length=0.05))
        # eps_inf and sigma change between nodes 1499 and 1500; ce, which
        # holds dt/(eps0 eps_inf) of the interior nodes 1..n-2, between its
        # entries 1498 and 1499
        assert list(np.flatnonzero(np.diff(sim._ce))) == [1498]
        assert list(np.flatnonzero(np.diff(sim.sigma_node))) == [1499]

    def test_grid_spacing_and_step(self):
        cfg = load_table1()
        sim = build_simulation(cfg)
        assert cfg.n_grid == 3000
        assert sim.grid.dx == pytest.approx(0.05 / 2999, rel=1e-15)
        assert sim.grid.dt == pytest.approx(0.9 * sim.grid.dx / C0, rel=1e-15)

    def test_vacuum_config_allocates_no_pole_states(self):
        sim = build_simulation(small_config())
        assert sim._lanes[0].bank is None

    def test_pole_states_cover_medium_nodes(self):
        # one bank on the medium's run up to the last updated node, by
        # behaviour: a unit E^N at node i moves the rhs row i - 1 of E[i]
        # from i0 to n-2, and nothing at the vacuum node i0-1 or at the Mur
        # node n-1, which consumes no current.  Each probe starts from zero
        # E, rhs and pole states, so one build per method serves them all
        cfg = small_config(medium=table1_like_medium())
        n, i0 = cfg.n_grid, interface_node(cfg.n_grid)
        for method in ("tgm", "adem"):
            sim = build_simulation(cfg, method=method)
            bank = sim._lanes[0].bank
            for node, moved in ((i0, [i0 - 1]), (n - 2, [n - 3]), (i0 - 1, []), (n - 1, [])):
                for a in (sim.grid.e, sim._rhs, *bank.buffers):
                    a[...] = 0.0
                sim.grid.e[node] = 1.0
                bank.advance()
                assert list(np.flatnonzero(sim._rhs)) == moved
            # the pole's two states and the E^N / current row
            assert bank.matrix.shape == (3, 3)
            assert all(buf.shape == (3, n - 1 - i0) for buf in bank.buffers)

    @pytest.mark.parametrize("method", ["tgm", "adem"])
    def test_step_arrays_cache_line_aligned(self, method):
        sim = build_simulation(small_config(medium=multipole_medium(), absorber_cells=40,
                                            absorber_sigma=5.0), method=method)
        lane = sim._lanes[0]
        arrays = [sim.grid.e, sim.grid.b, sim._rhs, sim._cb, sim._ca_b, sim._ce, sim._ca_e]
        # the bank's matrix and its two state buffers; its _e and _rhs are
        # views into the grid's E and the step's rhs
        arrays += [lane.bank.matrix, *lane.bank.buffers]
        assert len(arrays) == 7 + 3
        assert all(a.ctypes.data % 64 == 0 for a in arrays)

    def test_cfl_violation_rejected(self):
        # SimConfig checks its invariants, so no bad config reaches the builder
        with pytest.raises(ValidationError, match=r"^grid\.cfl must be in \(0, 1\]"):
            small_config(cfl_factor=1.1)

    def test_unknown_method_rejected(self):
        # the method override goes through SimConfig, which names the key
        with pytest.raises(ValidationError, match="run.method"):
            build_simulation(small_config(), method="fdtd")

    def test_absorber_width_limited(self):
        with pytest.raises(ValidationError, match="absorber_cells"):
            small_config(absorber_cells=200, absorber_sigma=5.0)

    def test_no_config_rejected(self):
        with pytest.raises(ValidationError, match="at least one SimConfig"):
            build_simulation()

    def test_negative_step_count_rejected(self):
        with pytest.raises(ValidationError,
                           match=r"^n_steps must be a non-negative integer, got -5$"):
            build_simulation(small_config()).run(-5, [10])

    def test_non_integer_probe_node_rejected(self):
        # int() would truncate node 10.7 to node 10 without a word
        with pytest.raises(ValidationError, match=r"^probe node must be an integer in \[0, 400\), "
                                                  r"got 10\.7$"):
            build_simulation(small_config()).run(3, [10.7])

    @pytest.mark.parametrize("node", [-1, 400])
    def test_probe_node_outside_grid_rejected(self, node):
        with pytest.raises(ValidationError, match=rf"^probe node must be an integer in \[0, 400\), "
                                                  rf"got {node}$"):
            build_simulation(small_config()).run(3, [10, node])

    def test_probe_fraction_mapping(self):
        assert probe_nodes_from_fractions((0.25, 0.499, 0.75), 3000) == [750, 1497, 2249]


# Simulation.step multiplies by coefficients baked at build where the
# reference below divides, scales and sums term by term, so the two
# round differently; they may differ by this much of the reference's peak
ROUNDING = 1e-12


def assert_within_rounding(values, ref):
    assert np.abs(values - ref).max() <= ROUNDING * np.abs(ref).max()


def full_array_leapfrog(cfg, method):
    """(grid, step): the fields of a reference leapfrog of `cfg` and the
    step that advances them in place.

    It computes the full-array update of the fdtd module docstring, with
    B in tesla, term by term: the absorber's B factors on every B node,
    sigma*E on every interior node, the curl divided by -(mu0 dx) and then
    scaled by dt/(eps0 eps_inf), and each pole stepped on its own through the
    scalar-API updaters (greens.advance_state and
    polarization_current_half_step, or ade_advance and
    ade_current_half_step), its current summed into a zero array in pole
    order.  TABLE1_DIGESTS pin it bit for bit."""
    n, dx, dt = cfg.n_grid, cfg.dx, cfg.dt
    e, b = np.zeros(n), np.zeros(n - 1)
    i0 = interface_node(n)
    medium_nodes = np.arange(n) >= i0
    w = cfg.absorber_cells
    taper = np.zeros(n)
    taper[n - w:] = cfg.absorber_sigma * (np.arange(w) / max(w - 1, 1)) ** 3
    sigma = np.where(medium_nodes, cfg.medium.sigma, 0.0) + taper
    eps_static = np.where(medium_nodes, cfg.medium.eps_static, 1.0)
    beta_m = 0.5 * (taper[:-1] + taper[1:]) * dt / (EPS0 * (0.5 * (eps_static[:-1] + eps_static[1:])))
    bm_lo, bm_hi = 1.0 - 0.5 * beta_m, 1.0 / (1.0 + 0.5 * beta_m)
    dt_over_eps = dt / (EPS0 * np.where(medium_nodes, cfg.medium.eps_inf, 1.0)[1:-1])
    k_mur = (C0 * dt - dx) / (C0 * dt + dx)
    # the Mur node n-1 consumes no current
    pole_nodes = slice(i0, n - 1)
    if method == "tgm":
        poles = [(p, greens.make_coefficients(p, dt), (0j, 0j)) for p in cfg.medium.poles]
    else:
        poles = [(p, None, (0.0, 0.0)) for p in cfg.medium.poles]
    step_index = 0

    def pin(t):
        if t < 2 * cfg.source.t0:
            e[0] = source_value(cfg.source, t)

    def step():
        nonlocal step_index
        pin(step_index * dt)
        j = np.zeros(n)
        for k, (pole, coeffs, state) in enumerate(poles):
            if method == "tgm":
                state = greens.advance_state(state, e[pole_nodes], coeffs)
                j[pole_nodes] += greens.polarization_current_half_step(state, coeffs)
            else:
                state = ade_advance(state, e[pole_nodes], pole, dt)
                j[pole_nodes] += ade_current_half_step(state, dt)
            poles[k] = (pole, coeffs, state)
        e0_old, e1_old = e[0], e[1]
        en_old, enn_old = e[-1], e[-2]
        b[:] = (b * bm_lo - (dt / dx) * (e[1:] - e[:-1])) * bm_hi
        rhs = -(b[1:] - b[:-1]) / (MU0 * dx) - sigma[1:-1] * e[1:-1]
        rhs -= j[1:-1]
        e[1:-1] += dt_over_eps * rhs
        e[0] = e1_old + k_mur * (e[1] - e0_old)
        e[-1] = enn_old + k_mur * (e[-2] - en_old)
        step_index += 1
        pin(step_index * dt)

    return Grid1D(e=e, b=b, dx=dx, dt=dt), step


def fields(grid, step, n_steps):
    """(E, B): the fields of `grid` after each of n_steps calls of `step`."""
    es, bs = np.empty((n_steps, len(grid.e))), np.empty((n_steps, len(grid.b)))
    for k in range(n_steps):
        step()
        es[k], bs[k] = grid.e, grid.b
    return es, bs


def simulated_fields(cfg, method, n_steps):
    """(E, B) of `cfg`'s Simulation after each of n_steps steps, B in tesla:
    the grid stores B*dx/dt."""
    sim = build_simulation(cfg, method=method)
    es, bs = fields(sim.grid, sim.step, n_steps)
    return es, bs * (sim.grid.dt / sim.grid.dx)


class TestPoleKernels:
    """The state-space pole bank against per-pole scalar updaters."""

    @pytest.mark.parametrize("method", ["tgm", "adem"])
    @pytest.mark.parametrize("poles", [(UNDERDAMPED,), (OVERDAMPED,), (UNDAMPED,),
                                       multipole_medium().poles],
                             ids=["underdamped", "overdamped", "undamped", "multipole"])
    def test_bank_current_matches_scalar_api(self, method, poles):
        # the bank's matrix product against each pole stepped through the
        # scalar API on random E^N, its current scaled and summed in pole
        # order; the bank subtracts its current from a zeroed rhs.  The
        # scalar API runs in extended precision: in double, its own
        # (P^{N+1} - P^N)/dt loses ~1e-13 of the peak to cancellation
        n, dt = 64, small_config().dt
        scale = dt / (EPS0 * 1.5)
        drive, rhs = np.zeros(n - 2), np.zeros(n - 2)
        bank = PoleBank(pole_matrix(poles, method, dt, scale), drive, rhs)
        coeffs = [greens.make_coefficients(p, dt) for p in poles]
        states = [(0j, 0j) if method == "tgm" else (0.0, 0.0) for _ in poles]
        rng = np.random.default_rng(3)
        got, want = np.empty((200, n - 2)), np.zeros((200, n - 2), dtype=np.longdouble)
        for step in range(200):
            drive[:] = rng.standard_normal(n)[1:-1]
            rhs[:] = 0.0
            bank.advance()
            got[step] = -rhs
            e_now = drive.astype(np.longdouble)
            for k, pole in enumerate(poles):
                if method == "tgm":
                    states[k] = greens.advance_state(states[k], e_now, coeffs[k])
                    j = greens.polarization_current_half_step(states[k], coeffs[k])
                else:
                    states[k] = ade_advance(states[k], e_now, pole, dt)
                    j = ade_current_half_step(states[k], dt)
                want[step] += np.longdouble(scale) * j
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("method", ["tgm", "adem"])
    @pytest.mark.parametrize("pole", [UNDERDAMPED, OVERDAMPED, UNDAMPED],
                             ids=["underdamped", "overdamped", "undamped"])
    def test_single_pole_within_rounding(self, method, pole):
        cfg = small_config(medium=Medium(eps_inf=1.5, sigma=0.0, poles=(pole,)), steps=600)
        ref = fields(*full_array_leapfrog(cfg, method), 600)
        assert np.abs(ref[0][:, interface_node(cfg.n_grid):]).max() > 0.1
        for got, want in zip(simulated_fields(cfg, method, 600), ref):
            assert_within_rounding(got, want)

    def test_non_conjugate_coefficients_rejected(self, monkeypatch):
        make = greens.make_coefficients

        def skewed(pole, dt):
            c = make(pole, dt)
            return dataclasses.replace(c, curr_minus=c.curr_minus * (1.0 + 1e-6))

        monkeypatch.setattr(greens, "make_coefficients", skewed)
        with pytest.raises(ValidationError, match=r"LorentzPole\(delta_eps=3\.0.*curr_minus"):
            build_simulation(small_config(medium=table1_like_medium()))
        # adem does not use the recurrence coefficients
        build_simulation(small_config(medium=table1_like_medium()), method="adem")


class TestLossySuffix:
    """Simulation.step applies the loss coefficients only over each lane's
    loss runs, and stores B as B*dx/dt; the full-array reference must
    agree on every node."""

    @pytest.mark.parametrize("method", ["vacuum", "tgm", "adem"])
    @pytest.mark.parametrize("cells, peak", [(40, 5.0), (0, 5.0), (2, 5.0), (40, 0.0)])
    def test_matches_full_array_update(self, method, cells, peak):
        cfg = small_config(medium=multipole_medium(), absorber_cells=cells, absorber_sigma=peak)
        if method == "vacuum":
            cfg, method = cfg.with_medium(Medium.vacuum()), "tgm"
        got = simulated_fields(cfg, method, 600)
        ref = fields(*full_array_leapfrog(cfg, method), 600)
        for g, r in zip(got, ref):
            assert_within_rounding(g, r)
        # the pulse has reached the absorber
        assert np.abs(got[0][-1, -45:]).max() > 1e-3


# sha256 of the first 8192 samples (little-endian float64) of each
# table1 probe series of full_array_leapfrog; they were first recorded
# from the Simulation when its step still had the reference's arithmetic
TABLE1_DIGESTS = {
    ("vacuum", 750): "a8eb0e9a9f682a246b2b95c9bd0b0eaa28b21135f22c9963328e1fa9e490784e",
    ("vacuum", 1497): "23d57388b1c8c6522cc0628b89c6173c8a3d088fc5bf4459a0f2e66c4062ebb5",
    ("vacuum", 2249): "11d5e1d5460656ff328f41b25dd626d0de647b8fed12c196949a69f5eebd8590",
    ("tgm", 750): "54e8619869b3e33603a9ff5be952b1d2273dd1852dfbaade91cbc39c1f2d7740",
    ("tgm", 1497): "046a116aee2a7ff0e3b102b231c1af990223c1d5038ec16b311449161660a693",
    ("tgm", 2249): "8bf89e08239723f10569c5dbc01ece1fc703a42f1de0b8db7e2c8868d1890d5d",
    ("adem", 750): "618177d3499a50adb7a0b35e1c9aa3689ac566cb1e68376ddb3a46776df97821",
    ("adem", 1497): "f4903cfdcf66516d9bd1afeb0bb282d53e25b17dae84feb488e6221062368899",
    ("adem", 2249): "421c8f0527ae230d2a96cc69fd2a67ba4c59ab62a2d0b6cf0081db074c17b4f3",
}


# sha256 of the same 8192 samples of each table1 probe series from
# Simulation.run, re-pinned when the grid began to store B as B*dx/dt; a
# reordering of the step's passes changes them
SIMULATION_DIGESTS = {
    ("vacuum", 750): "b937af4f80264ffecc16ca5cc52af9bc8d3c224080fb1126445f625b3d8f0cde",
    ("vacuum", 1497): "1954467cc81dba177097753ae407047246e961b90a2f2b52ccd7758a113bcd31",
    ("vacuum", 2249): "d3a5c088c05654d6b94c51db0419a67b992593e038f9da61523e0ca9d3b9da38",
    ("tgm", 750): "9188dd7aac6e525295b48a7ee10b7b2059777fbdde476d51d483a909a7c329c4",
    ("tgm", 1497): "0bc1b4705130a405312f5a24fb4daba0af70f82f6a7c582b2ffc78e777c8003e",
    ("tgm", 2249): "b8f25e4d2bf6c18524b6b795671da94aa05e00151c90394635fff5cface129b5",
    ("adem", 750): "d6f306870812ad2b86c500f9d6cd158c489a245b2c7ded448096a97cbacfa317",
    ("adem", 1497): "7637ffd75627a30887f4d6e2665ab2c90a0aaf0f842b3700a0491fc915342f2a",
    ("adem", 2249): "9b72b0cd5e59ca797ade82b3a70d512d43a3bad8c0d76d3f8010b9b4acb19b29",
}


@pytest.mark.parametrize("label", ["vacuum", "tgm", "adem"])
def test_table1_probe_series_pinned_and_within_rounding(label):
    # the reference and the Simulation are each pinned bit for bit, and
    # they agree to rounding
    cfg = dataclasses.replace(load_table1(), n_steps=8192)
    if label == "vacuum":
        cfg, method = cfg.with_medium(Medium.vacuum()), "tgm"
    else:
        method = label
    nodes = probe_nodes_from_fractions(cfg.probes, cfg.n_grid)
    grid, step = full_array_leapfrog(cfg, method)
    ref = np.empty((cfg.n_steps, len(nodes)))
    for row in ref:
        step()
        row[:] = grid.e[nodes]
    for series, want in zip(build_simulation(cfg, method=method).run(cfg.n_steps, nodes), ref.T):
        digest = hashlib.sha256(want.astype("<f8").tobytes()).hexdigest()
        assert digest == TABLE1_DIGESTS[label, series.node_index]
        assert series.samples.dtype == np.float64
        digest = hashlib.sha256(series.samples.astype("<f8").tobytes()).hexdigest()
        assert digest == SIMULATION_DIGESTS[label, series.node_index]
        assert_within_rounding(series.samples, want)
