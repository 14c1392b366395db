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
vacuum and nodes with x >= L/2 carry the configured medium, whose poles
are stacked into one bank over those nodes.  A "tgm" bank keeps one
complex accumulator per underdamped pole and two real-valued ones per
overdamped pole; the branch symmetry this relies on
(greens.check_branch_symmetry) is checked per pole when the Simulation
is built, so the step itself carries no realness check.

A Gaussian hard source pins node 0 while t < 2*t0; both end nodes then
follow first-order Mur absorbing updates.  Optionally the last cells of
the grid carry a graded absorber: an electric conductivity ramp paired
with a magnetic-loss ramp impedance-matched to the local static
permittivity, so even quasi-static content is absorbed instead of
reflected (a bare conductivity taper turns into a mirror at low
frequency).  The absorber is part of the boundary treatment and leaves
the medium's own eps_inf and sigma untouched.

Step layout.  A step is a fixed sequence of in-place numpy operations
(see Simulation.step for their order), and everything it can settle
once is settled when the Simulation is built:

- Every slice the step reads or writes (e[1:], e[:-1], b[1:], b[:-1],
  e[1:-1], the bank's run of E and its run of the E right-hand side, the
  lossy suffixes below) is a view bound at build, and so are the Mur
  coefficient and the scalar factors dt/dx and -(mu0 dx).
- Loss work covers only the lossy suffix.  The absorber taper and the
  medium's sigma sit in the last nodes of the grid, so the B loss factors
  are applied from the first B node whose magnetic loss is non-zero, and
  sigma*E is formed from the first interior node whose sigma is non-zero.
  Before those nodes the full-array update would compute b*1.0, which is
  b for every float, and rhs - 0.0*e.  The latter differs from rhs only
  in the sign of a zero rhs where e < 0; that zero stays a zero through
  the rest of the update and is added to e != 0, giving e either way.
  An interior E never holds -0.0 (it starts at +0.0 and changes only by
  e += rhs, and a sum is -0.0 only when both terms are), so for finite
  fields every value is bit-identical to the full-array update.  For
  non-finite fields the two can differ between inf and nan, but not in
  which entries are finite.
- Every array the step touches (fields, scratch, bank state and
  coefficients) starts on a 64-byte cache-line boundary (`_aligned`), so
  a step's cost does not hinge on where the allocator put the arrays.
  The pole coefficients are stored at the bank's full (rows, cells)
  shape: on grids of up to a few thousand nodes a broadcast (rows, 1)
  column makes each pass slower than a full-shape operand does, though
  on grids ten times larger the full shape's extra memory traffic costs
  more than it saves.

A Simulation must be exclusively owned while stepping; distinct
Simulations are independent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import ade as _ade
from . import greens as _greens
from .constants import C0, EPS0, MU0
from .dispersion import Medium


@dataclass(frozen=True)
class GaussianSource:
    """Gaussian-enveloped carrier pinned at the left boundary.

    value(t) = exp(-(t-t0)^2 / (2 delta_t^2)) * cos(omega0 (t-t0))
    """

    t0: float
    delta_t: float
    omega0: float

    def __post_init__(self):
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
    nbytes = int(np.prod(shape)) * dtype.itemsize
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


class _TgmBank:
    """`tgm` accumulators of all poles of a medium on the node run `nodes`
    of the field `e`, one complex row per accumulator: F <- F*prop +
    inject*E^N, then the half-step current j = sum over rows of Re(curr*F).

    An underdamped pole has one row, F+ with curr = 2 curr+, since real
    drive keeps F- == conj(F+); an overdamped pole has two, F+ and F-,
    whose coefficients and values are real.  greens.check_branch_symmetry
    vouches for both when the bank is built.
    """

    def __init__(self, e, nodes, poles, dt):
        rows = []
        for pole in poles:
            c = _greens.make_coefficients(pole, dt)
            _greens.check_branch_symmetry(pole, c)
            if pole.overdamped:
                rows += [(c.prop_plus, c.inject_plus, c.curr_plus),
                         (c.prop_minus, c.inject_minus, c.curr_minus)]
            else:
                rows.append((c.prop_plus, c.inject_plus, 2.0 * c.curr_plus))
        shape = (len(rows), nodes.stop - nodes.start)
        self.nodes = nodes
        self._e = e[nodes]
        self._prop, self._inject, self._curr = (
            _aligned(shape, np.array(col)[:, None]) for col in zip(*rows))
        self._f = _aligned(shape, 0j)
        self._t = _aligned(shape, 0j)
        self._t_real = self._t.real
        self.j = _aligned(shape[1])

    def advance(self):
        # operand order as in greens.advance_state and
        # polarization_current_half_step: complex products round
        # differently when their operands are swapped
        f, t = self._f, self._t
        f *= self._prop
        np.multiply(self._inject, self._e, out=t)
        f += t
        np.multiply(self._curr, f, out=t)
        np.add.reduce(self._t_real, axis=0, out=self.j)


class _AdeBank:
    """`adem` two-level histories of all poles of a medium on the node run
    `nodes` of the field `e`, one row per pole, stepped as in
    ade.ade_advance; the half-step current j is the sum over poles of
    (P^{N+1} - P^N)/dt."""

    def __init__(self, e, nodes, poles, dt):
        shape = (len(poles), nodes.stop - nodes.start)
        self.nodes = nodes
        self._e = e[nodes]
        self._dt = dt
        self._a, self._b, self._k, self._d = (
            _aligned(shape, np.array(col)[:, None])
            for col in zip(*(_ade.ade_coefficients(p, dt) for p in poles)))
        self._p_now, self._p_prev, self._p_next = (_aligned(shape) for _ in range(3))
        self.j = _aligned(shape[1])

    def advance(self):
        # P^{N-1} is spent after its product, so its array is the scratch
        p_now, p_prev, p_next = self._p_now, self._p_prev, self._p_next
        np.multiply(self._a, p_now, out=p_next)
        p_prev *= self._b
        p_next -= p_prev
        np.multiply(self._k, self._e, out=p_prev)
        p_next += p_prev
        p_next /= self._d
        np.subtract(p_next, p_now, out=p_prev)
        p_prev /= self._dt
        np.add.reduce(p_prev, axis=0, out=self.j)
        self._p_prev, self._p_now, self._p_next = p_now, p_next, p_prev


class Simulation:
    """The half-space experiment of one SimConfig, which has already
    checked every invariant and derives dx and dt.

    Nodes with x < L/2 are vacuum; nodes from interface_node(n) on carry
    the config medium.  Pole coefficients are baked once; all fields start
    at zero.  An absorber taper over the last `absorber_cells` nodes is
    added when configured, matched per node to the local static
    permittivity.
    """

    boundary = "mur"

    def __init__(self, config):
        n, dt, dx = config.n_grid, config.dt, config.dx
        i0 = interface_node(n)
        medium = config.medium
        e, b = _aligned(n), _aligned(n - 1)
        self.grid = Grid1D(e=e, b=b, dx=dx, dt=dt)
        self.media = (Medium.vacuum(), medium)
        self.source = config.source
        self.method = config.method
        self.step_index = 0

        self.eps_inf_node = np.ones(n)
        self.eps_inf_node[i0:] = medium.eps_inf
        self.sigma_node = np.zeros(n)
        self.sigma_node[i0:] = medium.sigma
        # magnetic absorber loss on B nodes, matched to the local static
        # permittivity
        w = config.absorber_cells
        taper = np.zeros(n)
        u = np.arange(w) / max(w - 1, 1)
        taper[n - w:] = config.absorber_sigma * u**3
        self.sigma_node += taper
        eps_static = np.ones(n)
        eps_static[i0:] = medium.eps_static
        sig_b = 0.5 * (taper[:-1] + taper[1:])
        eps_b = 0.5 * (eps_static[:-1] + eps_static[1:])
        beta_m = sig_b * dt / (EPS0 * eps_b)

        # bound views and constants of the step, in its order
        self._e_hi, self._e_lo, self._e_in = e[1:], e[:-1], e[1:-1]
        self._b_hi, self._b_lo = b[1:], b[:-1]
        self._de = _aligned(n - 1)
        self._rhs = _aligned(n - 2)
        self._dt_dx = dt / dx
        self._neg_mu0_dx = -(MU0 * dx)
        self._dt_over_eps = _aligned(n - 2, dt / (EPS0 * self.eps_inf_node[1:-1]))
        self._k_mur = mur_coefficient(dx, dt)
        # lossy suffixes: before them the B factors are exactly 1 and
        # sigma is 0 (see the module docstring)
        kb = _first_nonzero(beta_m)
        self._b_lossy = b[kb:]
        self._bm_lo = _aligned(n - 1 - kb, 1.0 - 0.5 * beta_m[kb:])
        self._bm_hi = _aligned(n - 1 - kb, 1.0 / (1.0 + 0.5 * beta_m[kb:]))
        ks = _first_nonzero(self.sigma_node[1:-1])  # interior index
        self._sigma = _aligned(n - 2 - ks, self.sigma_node[1 + ks:-1])
        self._e_lossy = e[1 + ks:-1]
        self._sigma_e = self._de[:n - 2 - ks]  # de is spent once b is updated
        self._rhs_lossy = self._rhs[ks:]

        # at most one stacked bank, on the medium's interior nodes; the
        # Mur node n-1 consumes no current
        self._bank = None
        if medium.dispersive:
            bank = _TgmBank if self.method == "tgm" else _AdeBank
            self._bank = bank(e, slice(i0, n - 1), medium.poles, dt)
            self._rhs_bank = self._rhs[i0 - 1:n - 2]

    @property
    def time(self) -> float:
        return self.step_index * self.grid.dt

    @property
    def n_nodes(self) -> int:
        return len(self.grid.e)

    def _pin_source(self, t) -> None:
        # hard source: overwrite node 0 while the envelope is alive
        if t < 2.0 * self.source.t0:
            self.grid.e[0] = source_value(self.source, t)

    def step(self) -> None:
        """Advance the grid by one dt (one full leapfrog cycle).

        In place, in the operation order of the full-array update
            b = (b*bm_lo - (dt/dx)*(e[1:] - e[:-1])) * bm_hi
            e[1:-1] += dt/(eps0 eps_inf) * (-(b[1:] - b[:-1])/(mu0 dx)
                                            - sigma e[1:-1] - J)
        with J from the bank, advanced first from E^N.  The bm factors
        and sigma*e are applied only on their lossy suffixes, which keeps
        every finite value bit-identical to the full-array update (module
        docstring), so a run without poles or loss is plain Yee.
        """
        e, b, de, rhs, bank = self.grid.e, self.grid.b, self._de, self._rhs, self._bank
        self._pin_source(self.time)
        if bank is not None:
            bank.advance()
        e0_old, e1_old = e[0], e[1]
        en_old, enn_old = e[-1], e[-2]
        np.subtract(self._e_hi, self._e_lo, out=de)
        de *= self._dt_dx
        self._b_lossy *= self._bm_lo
        b -= de
        self._b_lossy *= self._bm_hi
        np.subtract(self._b_hi, self._b_lo, out=rhs)
        rhs /= self._neg_mu0_dx  # (-x)/c == x/(-c) exactly
        np.multiply(self._sigma, self._e_lossy, out=self._sigma_e)
        self._rhs_lossy -= self._sigma_e
        if bank is not None:
            self._rhs_bank -= bank.j
        rhs *= self._dt_over_eps
        self._e_in += rhs
        e[0] = mur_update(e0_old, e1_old, e[1], self._k_mur)
        e[-1] = mur_update(en_old, enn_old, e[-2], self._k_mur)
        self.step_index += 1
        self._pin_source(self.time)

    def run(self, n_steps: int, probe_nodes) -> list:
        """Execute n_steps, recording E at each probe node after every step.

        Deterministic: identical configuration gives bit-identical series.
        """
        nodes = np.array([int(i) for i in probe_nodes], dtype=np.intp)
        for i in nodes:
            if not 0 <= i < self.n_nodes:
                raise ValueError(f"probe node {i} outside grid of {self.n_nodes} nodes")
        rec = np.empty((n_steps, len(nodes)))
        e = self.grid.e
        for row in rec:
            self.step()
            row[:] = e[nodes]
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
