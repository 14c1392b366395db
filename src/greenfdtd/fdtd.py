"""1D staggered-grid leapfrog Maxwell solver with dispersive media.

E_y lives on the N integer nodes x_i = i*dx at integer time steps; B_z
lives on the N-1 half nodes at half time steps, stored as b = B_z*dx/dt
in V/m ("Step layout" below).  SI form of the update, with both curls
negative so vacuum reduces to the standard wave equation:

    dB/dt = -dE/dx
    dE/dt = [ -(1/mu0) dB/dx - sigma E - sum_p dP_p/dt ] / (eps0 eps_inf)

The dispersive current dP/dt is evaluated at t_N + dt/2 by the selected
updater ("tgm" recursive Green-function accumulators or "adem" two-level
ADE history) after injecting E^N, and enters the E update like a current
density; the leapfrog itself is unmodified.  Nodes with x < L/2 are
vacuum and nodes with x >= L/2 carry the configured medium.  All poles
of the medium are one state-space bank over those nodes, a
bank.PoleBank on the matrix bank.pole_matrix; the branch symmetry a
"tgm" bank relies on (greens.check_branch_symmetry) is checked per pole
when the Simulation is built, so the step itself carries no realness
check.

A Gaussian hard source pins node 0 while t < 2*t0; t0 > 0, so node 0
holds the source's t = 0 value once the Simulation is built.  Each step
writes either end node once: node 0 with the source or, after it, a
first-order Mur update, like node N-1.  Optionally the last cells of the
grid, inside the medium, carry a graded absorber: an electric
conductivity ramp paired with a magnetic-loss ramp impedance-matched to
the medium's static permittivity, so even quasi-static content is
absorbed instead of reflected (a bare conductivity taper turns into a
mirror at low frequency).  The absorber is part of the boundary
treatment and leaves the medium's own eps_inf and sigma untouched.

Step layout.  The step is the update-coefficient form of Taflove &
Hagness (Computational Electrodynamics, ch. 3 and 9), with B stored
normalised as b = B*dx/dt, after the normalised fields of Sullivan
(Electromagnetic Simulation Using the FDTD Method, ch. 1).  Every
per-node constant is multiplied out into a coefficient array when the
Simulation is built, so a step computes, in place, with no division and
no reduction,

    b = cb*(ca_b*b - (e[1:] - e[:-1]))
    e[1:-1] = ca_e*e[1:-1] + ce*(b[1:] - b[:-1]) - J

where cb = bm_hi, ca_b = bm_lo, ce = (dt/dx)*dt/(eps0 eps_inf)/(-mu0 dx),
ca_e = 1 - sigma dt/(eps0 eps_inf), and J is the bank's current, stepped
from E^N before E changes and already scaled by dt/(eps0 eps_inf).  In B
(tesla) that is the full-array update

    B = (B*bm_lo - (dt/dx)*(e[1:] - e[:-1])) * bm_hi
    e[1:-1] += dt/(eps0 eps_inf) * (-(B[1:] - B[:-1])/(mu0 dx)
                                    - sigma e[1:-1] - dP/dt)

with bm_lo = 1 - beta_m/2 and bm_hi = 1/(1 + beta_m/2) for the
absorber's magnetic loss beta_m: explicit sigma E^N and the same leapfrog
and Mur updates, so only the rounding moves.  Over 32768 steps the nine
table1 probe series differ from that update's by at most 6.6e-15 of their
peak, and the tests hold it under 1e-12 of the peak.  A run without poles
or loss is plain Yee.

- The B update is four passes and no temporary: b *= ca_b and b *= cb
  over each lane's B loss run, with b -= e[1:] and b += e[:-1] over every
  lane between them.
- The pole bank is 3 numpy operations whatever the pole count and
  method (bank module docstring); its current, already scaled by
  dt/(eps0 eps_inf), is subtracted from the E update's right-hand side.
- Each loss factor is one pass per lane over that lane's own loss run.
  The absorber taper and the medium's sigma sit in the last nodes of a
  lane, so its B loss run starts at its first B node whose cb or ca_b is
  not exactly 1 and runs through its seam B node unless it is the last
  lane, and its E loss run starts at its first interior row whose ca_e is
  not exactly 1 and ends at its last interior row.  cb, ca_b and ca_e are
  exactly 1 on every node outside the runs, and x*1.0 is x for every
  float.  A lane without a loss run has no line for it in the kernel.
- The steps run in a kernel bound over the views, coefficient arrays
  and ufuncs it uses, all closure names (`Simulation._bind`): a function
  compiled from the template _KERNEL, one line per lane for each
  per-lane term, that makes a block of steps in its own loop.  Each
  ufunc is called with a positional out; the end nodes are read and
  written as Python floats through a memoryview of the lane's E, and
  one line per recorded lane and probe node writes its value into a
  flat memoryview of the record, so no Python call, attribute load or
  numpy scalar sits between the passes.  Nothing is bound at build:
  Simulation.run binds one per call and calls it per block between quiet
  checks, Simulation.step one without records on its first call.  The
  bank's advance is a closure (bank module), and every array of the step
  starts on a cache line (`bank.aligned`).
- Lanes.  A Simulation steps one or more configs that differ only in
  medium and method, like the runs of the reflection experiment.  With n
  nodes per lane, lane k owns E[k*n:(k+1)*n] and B[k*n:k*n+n-1], so each
  term above but the loss runs is one contiguous numpy pass over every
  lane: cb, ca_b, ce, ca_e and sigma_node are each one array over all
  lanes, of which each lane writes its share at build.  The seam node
  B[k*n+n-1] has cb = 0 and lies in lane k's B loss run, so each step
  resets it to 0 (to NaN beside a lane that overflows, as 0*inf is NaN).
  The only E nodes that read it, lane k's node n-1 and lane k+1's node
  0, are end nodes with ce = 0, which their Mur or source update rewrites
  from values read before the passes.  So every node makes the IEEE
  operations of its lane's run alone, even beside a lane that diverges.
  Per lane remain only its pole bank (own aligned buffers and np.dot, so
  BLAS takes the same path), its loss runs and its end-node updates.  A
  step of table1's three lanes costs 0.82 of three single steps
  (BENCH_17.json).

Quiet exit.  Once the source has let go (t >= 2*t0), Simulation.run
checks each lane whenever step_index is a multiple of QUIET_CHECK_STEPS
= 256, from its own arrays, as its run alone would.  A lane is quiet
when its largest |E|, its largest |B| and the largest magnitude in each
of its bank buffers are each at most QUIET_TOL = 1e-14 times that
array's own peak over all its checks, which the lane keeps across `run`
calls; a NaN or an inf is never quiet.  A quiet lane is set to exactly
zero and records 0.0 from then on: a zero lane with the source off stays
zero under the leapfrog, both Mur updates and the bank, so the flush is
the only approximation.  Once the trailing lanes are quiet the
kernel is bound again over the others, so they cost no more passes; a
quiet lane before a live one is stepped on at zero.  Once every lane is
quiet the rest of the run is not stepped.  Each check also sets the
subnormal entries (below 2.2e-308) of a live lane's arrays to zero:
numpy keeps them, and behind table1's pulse front they slow the bank's
np.dot up to ~3x while the front crosses the medium.  The table1 probe
series and reflection output stay bit-identical.  Table1's vacuum
reference goes quiet at step 12032 of 32768; its probe series then
differ from stepping every step by at most 6.5e-16 of their peak, and
its |R| by at most 2.7e-14 for either updater (the tests hold 1e-14 and
1e-12).  Its medium runs, and every run on the 300-node media of
perfbench's sweep_multipole (seeds 1-3), keep a field above 1e-14 of
their peak to the end and step every step.

A Simulation must be exclusively owned while stepping; distinct
Simulations are independent.
"""

from __future__ import annotations

import functools
import itertools
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .bank import PoleBank, aligned, pole_matrix
from .config import GaussianSource
from .constants import C0, EPS0, MU0
from .dispersion import COUNT, Medium, check_value
from .errors import ValidationError

# Simulation.run's quiet exit: the check period in steps and the level,
# relative to each array's own peak, below which the grid counts as quiet
QUIET_CHECK_STEPS = 256
QUIET_TOL = 1e-14
_SMALLEST_NORMAL = np.finfo(float).smallest_normal


def source_value(src: GaussianSource, t: float) -> float:
    """Boundary field value at time t >= 0."""
    arg = (t - src.t0) / src.delta_t
    return float(np.exp(-0.5 * arg * arg) * np.cos(src.omega0 * (t - src.t0)))


def mur_coefficient(dx, dt):
    """Coefficient k of the first-order Mur update (vacuum speed)."""
    return (C0 * dt - dx) / (C0 * dt + dx)


def mur_update(e_boundary_old, e_neighbor_old, e_neighbor_new, k):
    """First-order Mur absorbing update for an end node, with
    k = mur_coefficient(dx, dt)."""
    return e_neighbor_old + k * (e_neighbor_new - e_boundary_old)


def _first_nonzero(values):
    """Index of the first non-zero entry of `values`; len(values) if none."""
    nz = np.flatnonzero(values)
    return int(nz[0]) if len(nz) else len(values)


@dataclass
class ProbeSeries:
    """E samples at one node, one per executed step (first sample at t=dt)."""

    node_index: int
    samples: np.ndarray
    dt: float

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(1, len(self.samples) + 1)


@dataclass
class Grid1D:
    """Staggered field arrays."""

    e: np.ndarray  # N values, V/m
    b: np.ndarray  # N-1 values, B*dx/dt in V/m (B in T)
    dx: float
    dt: float


# The steps' kernel (module docstring, "Step layout").  A line with {k} is
# written once per bound lane k, whose E is the memoryview m{k}, but for the
# _OPTIONAL lines the lane lacks; one with {p} once per lane and probe node,
# as column c of `out`, the flat record of `series` columns.
_KERNEL = """\
def bind(lanes, out, series, b, e_hi, e_lo, e_in, b_hi, b_lo, rhs, ce, add, multiply,
         subtract, source_value, mur_update, src, src_end, dt, k_mur):
    m{k}, advance{k}, bl{k}, ca_b{k}, cb{k}, el{k}, ca_e{k} = lanes[{k}]
    def kernel(step_index, stop, i):
        for step_index in range(step_index + 1, stop + 1):
            e0_{k}, e1_{k}, en_{k}, enn_{k} = m{k}[0], m{k}[1], m{k}[-1], m{k}[-2]
            multiply(bl{k}, ca_b{k}, bl{k})
            subtract(b, e_hi, b)
            add(b, e_lo, b)
            multiply(bl{k}, cb{k}, bl{k})
            subtract(b_hi, b_lo, rhs)
            multiply(rhs, ce, rhs)
            advance{k}()
            multiply(el{k}, ca_e{k}, el{k})
            add(e_in, rhs, e_in)
            t = step_index * dt
            if t < src_end:
                s = source_value(src, t)
                m{k}[0] = s
            else:
                m{k}[0] = mur_update(e0_{k}, e1_{k}, m{k}[1], k_mur)
            m{k}[-1] = mur_update(en_{k}, enn_{k}, m{k}[-2], k_mur)
            out[i + {c}] = m{k}[{p}]
            i += series
        return stop
    return kernel
"""
# the lines of a lane that it may lack: its bank's advance, its B loss run
# and its E loss run; a lane writes one only if it has the term
_OPTIONAL = ("advance{k}()", "(bl{k}", "(el{k}")


@functools.cache
def _kernel_code(terms, nodes):
    """The compiled _KERNEL for lanes that have the _OPTIONAL lines flagged
    in `terms`, one tuple per lane, and probe `nodes`."""
    lines = []
    for line in _KERNEL.splitlines():
        pairs = itertools.product(range(len(terms) if "{" in line else 1),
                                  nodes if "{p}" in line else [None])
        lines += [line.format(k=k, p=p, c=c) for c, (k, p) in enumerate(pairs)
                  if all(has or term not in line for term, has in zip(_OPTIONAL, terms[k]))]
    return compile("\n".join(lines), "<step kernel>", "exec")


class _Lane:
    """The nodes of one config in a Simulation: views `e` and `b` of its
    run of the Simulation's E and B, its pole bank and its loss runs.
    Building it writes its share of the Simulation's sigma_node (a view as
    long as `e`), of the step's cb and ca_b (as long as `b`, which also
    holds the seam B node after the lane unless it is the last) and of its
    ce and ca_e (as long as `rhs`, the run of the step's rhs under its
    interior nodes), and pins its node 0 to the source's t = 0 value.
    `b_run` and `e_run` are its B and E loss runs (module docstring), each
    a view of the field with the views of its factors."""

    def __init__(self, config, e, b, sigma, cb, ca_b, ce, ca_e, rhs):
        n, dt, dx = config.n_grid, config.dt, config.dx
        i0 = interface_node(n)
        medium = config.medium
        e[0] = source_value(config.source, 0.0)
        self.e, self.b = e, b[:n - 1]

        medium_nodes = np.arange(n) >= i0
        # magnetic absorber loss on B nodes, matched to the medium's eps_static
        w = config.absorber_cells
        taper = np.zeros(n)
        taper[n - w:] = config.absorber_sigma * (np.arange(w) / (w - 1)) ** 3
        sigma[...] = np.where(medium_nodes, medium.sigma, 0.0) + taper
        beta_m = 0.5 * (taper[:-1] + taper[1:]) * dt / (EPS0 * medium.eps_static)

        # coefficient arrays of the step (module docstring)
        dt_over_eps = dt / (EPS0 * np.where(medium_nodes, medium.eps_inf, 1.0))
        bm_lo, bm_hi = 1.0 - 0.5 * beta_m, 1.0 / (1.0 + 0.5 * beta_m)
        cb[:n - 1], ca_b[:n - 1] = bm_hi, bm_lo
        ce[...] = dt_over_eps[1:-1] * (dt / dx) / -(MU0 * dx)
        ca_e[...] = (1.0 - sigma * dt_over_eps)[1:-1]
        # the loss runs start at the lane's first factor that is not exactly 1
        kb = _first_nonzero((cb[:n - 1] != 1.0) | (ca_b[:n - 1] != 1.0))
        ke = _first_nonzero(ca_e != 1.0)
        self.b_run, self.e_run = (b[kb:], ca_b[kb:], cb[kb:]), (e[1 + ke:n - 1], ca_e[ke:])

        # at most one pole bank, on the medium's interior nodes, whose
        # rhs row is one below the node; the Mur node n-1 consumes no current
        self.bank = None
        if medium.dispersive:
            self.bank = PoleBank(pole_matrix(medium.poles, config.method, dt, dt_over_eps[i0]),
                                  e[i0:n - 1], rhs[i0 - 1:n - 2])
        # every array a step carries forward: what `run` checks and flushes,
        # their peaks over the checks so far and whether the lane has exited
        self.state = (e, self.b) + (self.bank.buffers if self.bank else ())
        self.peaks, self.exited = np.zeros(len(self.state)), False

    def quiet(self, peaks) -> bool:
        """Whether the largest magnitude of E, of B and of each bank buffer
        (`state`) is at most QUIET_TOL times its own peak.  `peaks`, one
        entry per array, is first raised in place to the current levels.
        A lane holding a NaN or an inf is never quiet: np.maximum carries
        a NaN into the peaks, and an inf peak is not finite.  The same
        pass sets every subnormal entry of those arrays to zero (module
        docstring)."""
        levels = np.empty(len(self.state))
        for i, a in enumerate(self.state):
            mag = np.abs(a)
            levels[i] = mag.max()
            a[mag < _SMALLEST_NORMAL] = 0.0
        np.maximum(peaks, levels, out=peaks)
        return bool(np.isfinite(peaks).all() and (levels <= QUIET_TOL * peaks).all())


class Simulation:
    """The half-space experiment of one or more SimConfigs, its lanes
    (module docstring, "Step layout"), each of which has already checked
    every invariant and derives dx and dt; ValidationError names the first
    field other than medium and method in which a lane differs from the
    first.

    In each lane, nodes with x < L/2 are vacuum and nodes from
    interface_node(n) on carry its medium, with the absorber taper over
    its last `absorber_cells` nodes, matched to the medium's static
    permittivity.  All fields start at zero but each lane's node 0, which
    holds the source's t = 0 value.  `grid` and `sigma_node` hold every
    lane's values end to end, `media` the vacuum half and each lane's
    medium, and `method` the lanes' methods joined by "+"; with one
    config, those of its run.
    """

    boundary = "mur"

    def __init__(self, *configs):
        if not configs:
            raise ValidationError("a Simulation needs at least one SimConfig, got none")
        config = configs[0]
        for other, f in itertools.product(configs[1:], fields(config)):
            mine, theirs = getattr(config, f.name), getattr(other, f.name)
            if f.name not in ("medium", "method") and mine != theirs:
                raise ValidationError(f"lanes may differ only in medium and method, not in "
                                      f"{f.name}: {mine!r} != {theirs!r}")
        n, lanes = config.n_grid, len(configs)
        e, b = aligned(lanes * n), aligned(lanes * n - 1)
        self._rhs = aligned(lanes * n - 2)
        # the seam B node after each lane and the rows of the end nodes keep
        # cb = ce = 0 and ca_b = ca_e = 1
        self._cb, self._ce = aligned(lanes * n - 1), aligned(lanes * n - 2)
        self._ca_b, self._ca_e = aligned(lanes * n - 1, 1.0), aligned(lanes * n - 2, 1.0)
        self.sigma_node = aligned(lanes * n)
        self._lanes = []
        for k, c in enumerate(configs):
            # a lane's B view runs through its seam, which the last lane lacks
            nodes, rows = slice(k * n, k * n + n), slice(k * n, k * n + n - 2)
            self._lanes.append(_Lane(c, e[nodes], b[nodes], self.sigma_node[nodes],
                                     self._cb[nodes], self._ca_b[nodes], self._ce[rows],
                                     self._ca_e[rows], self._rhs[rows]))
        self.grid = Grid1D(e=e, b=b, dx=config.dx, dt=config.dt)
        self.media = (Medium.vacuum(), *(c.medium for c in configs))
        self.source = config.source
        self.method = "+".join(c.method for c in configs)
        self.step_index, self._live, self._kernel = 0, lanes, None

    def _bind(self, live, nodes, out):
        """The steps' kernel over the first `live` lanes, recording E at each
        of the tuple `nodes` of every lane into the flat memoryview `out`."""
        n, lanes = len(self._lanes[0].e), self._lanes[:live]
        e, b = self.grid.e[:live * n], self.grid.b[:live * n - 1]
        names = {
            "b": b, "e_hi": e[1:], "e_lo": e[:-1], "e_in": e[1:-1], "b_hi": b[1:],
            "b_lo": b[:-1], "rhs": self._rhs[:live * n - 2], "ce": self._ce[:live * n - 2],
            "add": np.add, "multiply": np.multiply, "subtract": np.subtract,
            "source_value": source_value, "mur_update": mur_update, "src": self.source,
            "src_end": 2.0 * self.source.t0, "dt": self.grid.dt,
            "k_mur": mur_coefficient(self.grid.dx, self.grid.dt), "out": out,
            "series": len(self._lanes) * len(nodes),
            "lanes": [(memoryview(lane.e), lane.bank and lane.bank.advance, *lane.b_run,
                       *lane.e_run) for lane in lanes]}
        scope = {}
        terms = tuple((lane.bank is not None, len(lane.b_run[0]) > 0, len(lane.e_run[0]) > 0)
                      for lane in lanes)
        exec(_kernel_code(terms, nodes), scope)
        return scope["bind"](**names)

    @property
    def n_nodes(self) -> int:
        return len(self.grid.e)

    def step(self) -> None:
        """Advance the grid by one dt (one full leapfrog cycle), by the
        update of the module docstring ("Step layout"): a one-step block of
        a kernel without records, bound on first use."""
        if self._kernel is None:
            self._kernel = self._bind(self._live, (), None)
        self.step_index = self._kernel(self.step_index, self.step_index + 1, 0)

    def run(self, n_steps: int, probe_nodes) -> list:
        """Execute n_steps, recording E at each probe node of every lane
        after every step; ValidationError names a step count or probe node
        outside its domain.  Probe nodes count from a lane's node 0.  The
        series come lane by lane, each lane's in the order of
        `probe_nodes`, and each is a view of its column of the call's one
        (n_steps, series) record, one row per step, which the kernel, bound
        with the probe nodes, writes as it makes each block of steps
        between quiet checks.

        Quiet exit (module docstring, `_Lane.quiet`): at every multiple of
        QUIET_CHECK_STEPS once t >= 2*t0, a quiet lane is set to exactly
        zero and records 0.0 from then on.  Each lane keeps its peaks and
        its exit across calls, so a run split into calls checks and exits
        at the steps of one call.  Once the trailing lanes are quiet the
        kernel is bound again over the others, and once every lane is,
        step_index moves to the end of the run.

        Deterministic: identical configuration gives bit-identical series,
        and a lane's series are bit for bit those of its config run alone.
        """
        lanes, n, probe_nodes = self._lanes, len(self._lanes[0].e), list(probe_nodes)
        check_value("n_steps", n_steps, COUNT)
        node = (numbers.Integral, lambda i: 0 <= i < n, f"an integer in [0, {n})")
        for i in probe_nodes:
            check_value("probe node", i, node)
        n_steps, nodes = int(n_steps), tuple(int(i) for i in probe_nodes)
        rec = np.zeros((n_steps, len(lanes) * len(nodes)))
        out, series = memoryview(rec.reshape(-1)), rec.shape[1]
        kernel = self._bind(self._live, nodes, out)
        begin, end = self.step_index, self.step_index + n_steps
        # each block ends where step_index is a multiple of QUIET_CHECK_STEPS
        for start in range(-(begin % QUIET_CHECK_STEPS), n_steps, QUIET_CHECK_STEPS):
            if all(lane.exited for lane in lanes):
                self.step_index = end
                break
            stop = min(start + QUIET_CHECK_STEPS, n_steps)
            self.step_index = kernel(self.step_index, begin + stop, max(start, 0) * series)
            if (self.step_index % QUIET_CHECK_STEPS
                    or self.step_index * self.grid.dt < 2.0 * self.source.t0):
                continue
            for lane in lanes:
                if not lane.exited and lane.quiet(lane.peaks):
                    for a in lane.state:
                        a[...] = 0.0
                    lane.exited = True
            live = max((k + 1 for k, lane in enumerate(lanes) if not lane.exited), default=0)
            if 0 < live < self._live:
                self._live, self._kernel = live, None
                kernel = self._bind(live, nodes, out)
        return [ProbeSeries(nodes[c % len(nodes)], rec[:, c], self.grid.dt)
                for c in range(series)]


def probe_nodes_from_fractions(fractions, n_nodes: int) -> list:
    """Grid node indices for probe positions given as fractions of L."""
    return [int(round(f * (n_nodes - 1))) for f in fractions]


def interface_node(n_nodes: int) -> int:
    """First node with x >= L/2 (the medium starts here)."""
    return int(np.ceil((n_nodes - 1) / 2))


def build_simulation(*configs, method=None) -> Simulation:
    """Simulation of `configs`, one lane each, with their method replaced
    by `method` when given (SimConfig checks the name)."""
    if method is not None:
        configs = [replace(config, method=method) for config in configs]
    return Simulation(*configs)
