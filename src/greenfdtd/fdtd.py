"""1D staggered-grid leapfrog Maxwell solver with dispersive media.

E_y lives on the N integer nodes x_i = i*dx at integer time steps; B_z
lives on the N-1 half nodes at half time steps (stored as magnetic
induction, tesla).  SI form of the update, with both curls negative so
vacuum reduces to the standard wave equation:

    dB/dt = -dE/dx
    dE/dt = [ -(1/mu0) dB/dx - sigma E - sum_p dP_p/dt ] / (eps0 eps_inf)

The dispersive current dP/dt is evaluated at t_N + dt/2 by the selected
updater ("tgm" recursive Green-function accumulators or "adem" two-level
ADE history) after injecting E^N, and enters the E update like a current
density; the leapfrog itself is unmodified.  Nodes with x < L/2 are
vacuum and nodes with x >= L/2 carry the configured medium.  Either
updater is a fixed-order linear recursion in E^N (Young & Nelson, IEEE
AP Magazine 43(1), 2001), so all poles of the medium are one state-space
bank over those nodes: two real states per pole and one matrix M
(`pole_matrix`) that maps (states, E^N) to (new states, summed
current).  A "tgm" bank keeps the real and imaginary parts of one
accumulator per underdamped pole and two real accumulators per
overdamped pole; the branch symmetry this relies on
(greens.check_branch_symmetry) is checked per pole when the Simulation
is built, so the step itself carries no realness check.

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
Hagness (Computational Electrodynamics, ch. 3 and 9): every per-node
constant is multiplied out into a coefficient array when the Simulation
is built, and the step makes one in-place numpy pass per term, with no
division and no reduction (see Simulation.step for the order):

- cb = (dt/dx)*bm_hi and ca_b = bm_lo*bm_hi for B, ce =
  dt/(eps0 eps_inf)/(-mu0 dx) and ca_e = 1 - sigma dt/(eps0 eps_inf)
  for E.  The scheme is that of the full-array update in Simulation.step
  (explicit sigma E^N, the same leapfrog and Mur updates); only the
  rounding moves.  Over 32768 steps the nine table1 probe series differ
  from that update's by at most 5.7e-15 of their peak, and the tests hold
  it under 1e-12 of the peak.
- The pole bank is 3 numpy operations whatever the pole count and
  method: E^N is copied into the last row of the (m+1, cells) input
  buffer, one np.dot(M, input) writes the m new states and the current,
  already scaled by dt/(eps0 eps_inf), into the other buffer, and the
  current row is subtracted from the E update's right-hand side.  The
  buffers then swap roles.  On grids of up to a few thousand nodes
  np.matmul, einsum (no BLAS) and a (cells, m+1) layout measured no
  faster, and OpenBLAS runs the product on one thread.
- The ca factors cover only the lossy suffixes.  The absorber taper and
  the medium's sigma sit in the last nodes of the grid, so ca_b is
  applied from the first B node whose magnetic loss is non-zero and ca_e
  from the first interior node whose sigma is non-zero; before them both
  are exactly 1, and x*1.0 is x for every float.
- The step is a kernel bound once, at build: a closure over the views,
  coefficient arrays and ufuncs it uses, each ufunc called with a
  positional out, and the Mur and source scalars read as Python floats
  (e.item).  Simulation.step only advances step_index and calls it, and
  the bank's advance is a closure that takes its buffers' turn from an
  itertools.cycle, so no attribute load, method call or numpy scalar
  sits between the passes.  Every array it touches (fields, scratch,
  coefficients, bank matrix and buffers) starts on a 64-byte cache-line
  boundary (`_aligned`), so a step's cost does not hinge on where the
  allocator put the arrays.

Quiet exit.  Once the source has let go (t >= 2*t0), Simulation.run
checks the grid every QUIET_CHECK_STEPS = 256 steps.  It is quiet when
the largest |E|, the largest |B| and the largest magnitude in each bank
buffer are each at most QUIET_TOL = 1e-14 times that array's own peak
over the run's checks; a NaN or an inf is never quiet.  A quiet grid is
set to exactly zero and the rest of the run is not stepped: a zero grid
with the source off stays zero under the leapfrog, both Mur updates and
the bank, so the flush is the only approximation.  Each check also sets
the subnormal entries (below 2.2e-308) of those arrays to zero: numpy
keeps them, and behind table1's pulse front they slow the bank's np.dot
up to ~3x while the front crosses the medium.  The table1 probe series
and reflection output stay bit-identical.  Table1's vacuum reference
goes quiet at step 12032 of 32768; its probe series then differ from
stepping every step by at most 4.9e-16 of their peak, and its |R| by at
most 2.3e-14 for either updater (the tests hold 1e-14 and 1e-12).  Its
medium runs, and every run on the 300-node media of perfbench's
sweep_multipole (seeds 1-3), keep a field above 1e-14 of their peak to
the end and step every step.

A Simulation must be exclusively owned while stepping; distinct
Simulations are independent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import ade as _ade
from . import greens as _greens
from .constants import C0, EPS0, MU0
from .dispersion import Medium

# Simulation.run's quiet exit: the check period in steps and the level,
# relative to each array's own peak, below which the grid counts as quiet
QUIET_CHECK_STEPS = 256
QUIET_TOL = 1e-14
_SMALLEST_NORMAL = np.finfo(float).smallest_normal


@dataclass(frozen=True)
class GaussianSource:
    """Gaussian-enveloped carrier pinned at the left boundary.

    value(t) = exp(-(t-t0)^2 / (2 delta_t^2)) * cos(omega0 (t-t0))
    """

    t0: float
    delta_t: float
    omega0: float

    def __post_init__(self):
        if not self.t0 > 0.0:
            raise ValueError(f"t0 must be positive, got {self.t0}: the hard source pins node 0 "
                             "while t < 2*t0, so it must be live at t = 0")
        if not self.delta_t > 0.0:
            raise ValueError(f"delta_t must be positive, got {self.delta_t}")


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


def _aligned(shape, fill=0.0):
    """Array of `shape` and of the dtype of `fill`, filled with `fill`
    (broadcast), whose data starts on a 64-byte (cache-line) boundary."""
    dtype = np.asarray(fill).dtype
    nbytes = math.prod(shape if isinstance(shape, tuple) else (shape,)) * dtype.itemsize
    raw = np.empty(nbytes + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    out = raw[start:start + nbytes].view(dtype).reshape(shape)
    out[...] = fill
    return out


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
    b: np.ndarray  # N-1 values, T
    dx: float
    dt: float


def pole_matrix(poles, method, dt, scale):
    """The (m+1)x(m+1) state-space matrix M of `poles` under `method`,
    [X'; j] = M [X; E^N]: X stacks the two real states of each pole, and
    j is the summed current of all poles scaled by `scale`.  M holds each
    pole's block A, injection column and current row (greens.tgm_block or
    ade.adem_block) block-diagonally."""
    block = _greens.tgm_block if method == "tgm" else _ade.adem_block
    m = 2 * len(poles)
    mat = np.zeros((m + 1, m + 1))
    for i, pole in zip(range(0, m, 2), poles):
        rows = slice(i, i + 2)
        mat[rows, rows], mat[rows, m], mat[m, rows], curr_e = block(pole, dt, scale)
        mat[m, m] += curr_e
    return mat


class _PoleBank:
    """The pole matrix `matrix` (pole_matrix, its current scaled by
    dt/(eps0 eps_inf), uniform over the medium) stepped on the node run
    `nodes` of the field `e`, one state-space recursion per node.
    `advance`, a closure bound at build, subtracts the current from the
    run of `rhs` (which covers the interior nodes 1..n-2) under `nodes`.
    The two (m+1, cells) buffers take turns as input and output, since
    np.dot may not write over its input."""

    def __init__(self, matrix, e, rhs, nodes):
        self.nodes = nodes
        self.matrix = mat = _aligned(matrix.shape, matrix)
        self.buffers = x, y = tuple(_aligned((len(matrix), nodes.stop - nodes.start))
                                    for _ in range(2))
        e_run, rhs_run = e[nodes], rhs[nodes.start - 1:nodes.stop - 1]
        turns = itertools.cycle(((x[-1], x, y, y[-1]), (y[-1], y, x, x[-1])))
        dot, subtract = np.dot, np.subtract

        def advance():
            """Step every pole from E^N and subtract the current from rhs."""
            e_row, x_now, x_next, j = next(turns)
            e_row[...] = e_run
            dot(mat, x_now, x_next)
            subtract(rhs_run, j, rhs_run)

        self.advance = advance


class Simulation:
    """The half-space experiment of one SimConfig, which has already
    checked every invariant and derives dx and dt.

    Nodes with x < L/2 are vacuum; nodes from interface_node(n) on carry
    the config medium.  The step's per-node constants are baked once into
    coefficient arrays.  All fields start at zero but node 0, which holds
    the source's t = 0 value; a step writes each end node once.  The
    absorber taper over the last `absorber_cells` nodes lies inside the
    medium and is matched to its static permittivity.
    """

    boundary = "mur"

    def __init__(self, config):
        n, dt, dx = config.n_grid, config.dt, config.dx
        i0 = interface_node(n)
        medium = config.medium
        e, b = _aligned(n), _aligned(n - 1)
        e[0] = source_value(config.source, 0.0)
        self.grid = Grid1D(e=e, b=b, dx=dx, dt=dt)
        self.media = (Medium.vacuum(), medium)
        self.source = config.source
        self.method = config.method
        self.step_index = 0

        medium_nodes = np.arange(n) >= i0
        self.eps_inf_node = np.where(medium_nodes, medium.eps_inf, 1.0)
        self.sigma_node = np.where(medium_nodes, medium.sigma, 0.0)
        # magnetic absorber loss on B nodes, matched to the medium's eps_static
        w = config.absorber_cells
        taper = np.zeros(n)
        taper[n - w:] = config.absorber_sigma * (np.arange(w) / (w - 1)) ** 3
        self.sigma_node += taper
        beta_m = 0.5 * (taper[:-1] + taper[1:]) * dt / (EPS0 * medium.eps_static)

        # coefficient arrays of the step (module docstring); ca_b and ca_e
        # cover only the lossy suffixes
        kb = _first_nonzero(beta_m)
        ks = _first_nonzero(self.sigma_node[1:-1])  # interior index
        dt_over_eps = dt / (EPS0 * self.eps_inf_node)
        self._de, self._rhs = de, rhs = _aligned(n - 1), _aligned(n - 2)
        bm_lo, bm_hi = 1.0 - 0.5 * beta_m, 1.0 / (1.0 + 0.5 * beta_m)
        self._cb = cb = _aligned(n - 1, dt / dx * bm_hi)
        self._ca_b = ca_b = _aligned(n - 1 - kb, (bm_lo * bm_hi)[kb:])
        self._ce = ce = _aligned(n - 2, dt_over_eps[1:-1] / -(MU0 * dx))
        self._ca_e = ca_e = _aligned(n - 2 - ks, (1.0 - self.sigma_node * dt_over_eps)[1 + ks:-1])

        # at most one pole bank, on the medium's interior nodes; the Mur
        # node n-1 consumes no current
        self._bank = None
        if medium.dispersive:
            self._bank = _PoleBank(pole_matrix(medium.poles, self.method, dt, dt_over_eps[i0]),
                                   e, rhs, slice(i0, n - 1))
        # every array a step carries forward: what `run` checks and flushes
        self._state = (e, b) + (self._bank.buffers if self._bank else ())

        # the step's kernel, bound once (module docstring, "Step layout")
        e_hi, e_lo, e_in, b_hi, b_lo = e[1:], e[:-1], e[1:-1], b[1:], b[:-1]
        b_lossy, e_lossy = b[kb:], e[1 + ks:-1]
        advance = self._bank.advance if self._bank else None
        item, add, multiply, subtract = e.item, np.add, np.multiply, np.subtract
        src, src_end, k_mur = config.source, 2.0 * config.source.t0, mur_coefficient(dx, dt)

        def kernel(step_index):
            e0_old, e1_old, en_old, enn_old = item(0), item(1), item(-1), item(-2)
            subtract(e_hi, e_lo, de)
            multiply(de, cb, de)
            multiply(b_lossy, ca_b, b_lossy)
            subtract(b, de, b)
            subtract(b_hi, b_lo, rhs)
            multiply(rhs, ce, rhs)
            if advance is not None:
                advance()
            multiply(e_lossy, ca_e, e_lossy)
            add(e_in, rhs, e_in)
            t = step_index * dt
            e[0] = (source_value(src, t) if t < src_end
                    else mur_update(e0_old, e1_old, item(1), k_mur))
            e[-1] = mur_update(en_old, enn_old, item(-2), k_mur)

        self._kernel = kernel

    @property
    def time(self) -> float:
        return self.step_index * self.grid.dt

    @property
    def n_nodes(self) -> int:
        return len(self.grid.e)

    def step(self) -> None:
        """Advance the grid by one dt (one full leapfrog cycle).

        The kernel bound at build computes, in place, with the
        coefficient arrays of the module docstring:
            b = ca_b*b - cb*(e[1:] - e[:-1])
            e[1:-1] = ca_e*e[1:-1] + ce*(b[1:] - b[:-1]) - J
        where J, the bank's summed current, is stepped from E^N in one
        matrix product before E changes, and the ca factors act only on
        their lossy suffixes.  That is the full-array update
            b = (b*bm_lo - (dt/dx)*(e[1:] - e[:-1])) * bm_hi
            e[1:-1] += dt/(eps0 eps_inf) * (-(b[1:] - b[:-1])/(mu0 dx)
                                            - sigma e[1:-1] - J)
        with its constants multiplied out, equal to it up to rounding; a
        run without poles or loss is plain Yee.
        """
        self.step_index += 1
        self._kernel(self.step_index)

    def _quiet(self, peaks) -> bool:
        """Whether the largest magnitude of E, of B and of each bank buffer
        (`_state`) is at most QUIET_TOL times its own peak.  `peaks`, one
        entry per array, is first raised in place to the current levels.
        A grid holding a NaN or an inf is never quiet: np.maximum carries
        a NaN into the peaks, and an inf peak is not finite.  The same
        pass sets every subnormal entry of those arrays to zero (module
        docstring)."""
        levels = np.empty(len(self._state))
        for i, a in enumerate(self._state):
            mag = np.abs(a)
            levels[i] = mag.max()
            a[mag < _SMALLEST_NORMAL] = 0.0
        np.maximum(peaks, levels, out=peaks)
        return bool(np.isfinite(peaks).all() and (levels <= QUIET_TOL * peaks).all())

    def run(self, n_steps: int, probe_nodes) -> list:
        """Execute n_steps, one call of `step` each, recording E at each
        probe node after every step.

        Quiet exit (module docstring): every QUIET_CHECK_STEPS = 256 steps
        once t >= 2*t0, a grid that `_quiet` finds within QUIET_TOL = 1e-14
        of its peaks is set to exactly zero, step_index moves to the end
        of the run and the rest of the record stays 0.0.  Table1's vacuum
        reference exits at step 12032 of 32768, within 4.9e-16 of the peak
        of stepping on.

        Deterministic: identical configuration gives bit-identical series.
        """
        nodes = np.array([int(i) for i in probe_nodes], dtype=np.intp)
        for i in nodes:
            if not 0 <= i < self.n_nodes:
                raise ValueError(f"probe node {i} outside grid of {self.n_nodes} nodes")
        rec = np.zeros((n_steps, len(nodes)))
        e, step = self.grid.e, self.step
        peaks = np.zeros(len(self._state))
        end = self.step_index + n_steps
        for start in range(0, n_steps, QUIET_CHECK_STEPS):
            for r in range(start, min(start + QUIET_CHECK_STEPS, n_steps)):
                step()
                rec[r] = e[nodes]
            if self.time >= 2.0 * self.source.t0 and self._quiet(peaks):
                for a in self._state:
                    a[...] = 0.0
                self.step_index = end
                break
        return [ProbeSeries(int(i), rec[:, c].copy(), self.grid.dt) for c, i in enumerate(nodes)]


def probe_nodes_from_fractions(fractions, n_nodes: int) -> list:
    """Grid node indices for probe positions given as fractions of L."""
    return [int(round(f * (n_nodes - 1))) for f in fractions]


def interface_node(n_nodes: int) -> int:
    """First node with x >= L/2 (the medium starts here)."""
    return int(np.ceil((n_nodes - 1) / 2))


def build_simulation(config, *, method=None) -> Simulation:
    """Simulation of `config`, with its method replaced by `method` when
    given (SimConfig checks the name)."""
    if method is not None:
        config = replace(config, method=method)
    return Simulation(config)
