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

Step layout.  The step is the update-coefficient form of Taflove &
Hagness (Computational Electrodynamics, ch. 3 and 9): every per-node
constant is multiplied out into a coefficient array when the Simulation
is built, and the step makes one in-place numpy pass per term, with no
division and no reduction (see Simulation.step for the order):

- cb = (dt/dx)*bm_hi and ca_b = bm_lo*bm_hi for B, ce =
  dt/(eps0 eps_inf)/(-mu0 dx) and ca_e = 1 - sigma dt/(eps0 eps_inf)
  for E.  The scheme is that of the full-array update in Simulation.step
  (explicit sigma E^N, the same leapfrog and Mur updates); only the
  rounding moves.  Over 32768 steps the table1 probe series differ from
  that update's by at most 4.4e-13 of their peak (`adem`; 3.8e-15 for
  vacuum and `tgm`), and the tests hold it under 1e-12 of the peak.
- The pole banks emit one current row per accumulator, already scaled
  by dt/(eps0 eps_inf), and the step subtracts the rows in turn.  A
  `tgm` row holds F/inject, so its update is one multiply-add.
- The ca factors cover only the lossy suffixes.  The absorber taper and
  the medium's sigma sit in the last nodes of the grid, so ca_b is
  applied from the first B node whose magnetic loss is non-zero and ca_e
  from the first interior node whose sigma is non-zero; before them both
  are exactly 1, and x*1.0 is x for every float.
- Every slice the step reads or writes is a view bound at build, and
  every array it touches (fields, scratch, coefficients, bank state)
  starts on a 64-byte cache-line boundary (`_aligned`), so a step's cost
  does not hinge on where the allocator put the arrays.  The pole
  coefficients are stored at the bank's full (rows, cells) shape: on
  grids of up to a few thousand nodes a broadcast (rows, 1) column makes
  each pass slower than a full-shape operand does, though on grids ten
  times larger the full shape's extra memory traffic costs more than it
  saves.

A Simulation must be exclusively owned while stepping; distinct
Simulations are independent.
"""

from __future__ import annotations

import math
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


class _TgmBank:
    """`tgm` accumulators of all poles of a medium on the node run `nodes`
    of the field `e`, one complex row per accumulator.  A row holds
    G = F/inject, so the recurrence F <- F*prop + inject*E^N is the one
    multiply-add G <- G*prop + E^N, and its half-step current row
    j = Re(curr*F) = Re(w*G), with the weight w = curr*inject*scale,
    comes out already scaled by `scale` = dt/(eps0 eps_inf) per node.

    An underdamped pole has one row, F+ with curr = 2 curr+, since real
    drive keeps F- == conj(F+); an overdamped pole has two, F+ and F-,
    whose coefficients and values are real.  greens.check_branch_symmetry
    vouches for both when the bank is built.
    """

    def __init__(self, e, nodes, poles, dt, scale):
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
        prop, inject, curr = (np.array(col)[:, None] for col in zip(*rows))
        self._prop = _aligned(shape, prop)
        self._w = _aligned(shape, curr * inject * scale)
        self._g = _aligned(shape, 0j)
        self._g_real = self._g.real  # E^N is real
        self._t = _aligned(shape, 0j)
        self.j = self._t.real

    def advance(self):
        g = self._g
        g *= self._prop
        np.add(self._g_real, self._e, out=self._g_real)
        np.multiply(self._w, g, out=self._t)


class _AdeBank:
    """`adem` two-level histories of all poles of a medium on the node run
    `nodes` of the field `e`, one row per pole, stepped as in
    ade.ade_advance with 1/d folded into (a, b, k); the half-step current
    row j of each pole is (P^{N+1} - P^N)/dt, already scaled by
    `scale` = dt/(eps0 eps_inf) per node."""

    def __init__(self, e, nodes, poles, dt, scale):
        shape = (len(poles), nodes.stop - nodes.start)
        self.nodes = nodes
        self._e = e[nodes]
        coeffs = np.array([_ade.ade_coefficients(p, dt) for p in poles])
        self._a, self._b, self._k = (
            _aligned(shape, (coeffs[:, i] / coeffs[:, 3])[:, None]) for i in range(3))
        self._scale = _aligned(shape[1], scale / dt)
        self._p_now, self._p_prev, self._p_next = (_aligned(shape) for _ in range(3))
        self.j = _aligned(shape)

    def advance(self):
        # P^{N-1} is spent after its product, so its array is the scratch
        p_now, p_prev, p_next = self._p_now, self._p_prev, self._p_next
        np.multiply(self._a, p_now, out=p_next)
        p_prev *= self._b
        p_next -= p_prev
        np.multiply(self._k, self._e, out=p_prev)
        p_next += p_prev
        j = self.j
        np.subtract(p_next, p_now, out=j)
        j *= self._scale
        self._p_prev, self._p_now, self._p_next = p_now, p_next, p_prev


class Simulation:
    """The half-space experiment of one SimConfig, which has already
    checked every invariant and derives dx and dt.

    Nodes with x < L/2 are vacuum; nodes from interface_node(n) on carry
    the config medium.  The step's per-node constants are baked once into
    coefficient arrays; all fields start at zero.  An absorber taper over
    the last `absorber_cells` nodes is added when configured, matched per
    node to the local static permittivity.
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

        medium_nodes = np.arange(n) >= i0
        self.eps_inf_node = np.where(medium_nodes, medium.eps_inf, 1.0)
        self.sigma_node = np.where(medium_nodes, medium.sigma, 0.0)
        # magnetic absorber loss on B nodes, matched to the local static
        # permittivity
        w = config.absorber_cells
        taper = np.zeros(n)
        u = np.arange(w) / max(w - 1, 1)
        taper[n - w:] = config.absorber_sigma * u**3
        self.sigma_node += taper
        eps_static = np.where(medium_nodes, medium.eps_static, 1.0)
        sig_b, eps_b = (0.5 * (x[:-1] + x[1:]) for x in (taper, eps_static))
        beta_m = sig_b * dt / (EPS0 * eps_b)

        # coefficient arrays and bound views of the step (module
        # docstring); ca_b and ca_e cover only the lossy suffixes
        kb = _first_nonzero(beta_m)
        ks = _first_nonzero(self.sigma_node[1:-1])  # interior index
        dt_over_eps = dt / (EPS0 * self.eps_inf_node)
        self._e_hi, self._e_lo, self._e_in = e[1:], e[:-1], e[1:-1]
        self._b_hi, self._b_lo = b[1:], b[:-1]
        self._de = _aligned(n - 1)
        self._rhs = _aligned(n - 2)
        bm_lo, bm_hi = 1.0 - 0.5 * beta_m, 1.0 / (1.0 + 0.5 * beta_m)
        self._cb = _aligned(n - 1, dt / dx * bm_hi)
        self._b_lossy = b[kb:]
        self._ca_b = _aligned(n - 1 - kb, (bm_lo * bm_hi)[kb:])
        self._ce = _aligned(n - 2, dt_over_eps[1:-1] / -(MU0 * dx))
        self._e_lossy = e[1 + ks:-1]
        self._ca_e = _aligned(n - 2 - ks, (1.0 - self.sigma_node * dt_over_eps)[1 + ks:-1])
        self._k_mur = mur_coefficient(dx, dt)

        # at most one stacked bank, on the medium's interior nodes; the
        # Mur node n-1 consumes no current
        self._bank, self._bank_rows = None, ()
        if medium.dispersive:
            bank = _TgmBank if self.method == "tgm" else _AdeBank
            nodes = slice(i0, n - 1)
            self._bank = bank(e, nodes, medium.poles, dt, dt_over_eps[nodes])
            rhs_bank = self._rhs[i0 - 1:n - 2]
            self._bank_rows = tuple((rhs_bank, row) for row in self._bank.j)

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

        In place, with the coefficient arrays of the module docstring:
            b = ca_b*b - cb*(e[1:] - e[:-1])
            e[1:-1] = ca_e*e[1:-1] + ce*(b[1:] - b[:-1]) - (J rows)
        where the J rows come from the bank, advanced first from E^N, and
        the ca factors act only on their lossy suffixes.  That is the
        full-array update
            b = (b*bm_lo - (dt/dx)*(e[1:] - e[:-1])) * bm_hi
            e[1:-1] += dt/(eps0 eps_inf) * (-(b[1:] - b[:-1])/(mu0 dx)
                                            - sigma e[1:-1] - J)
        with its constants multiplied out, equal to it up to rounding; a
        run without poles or loss is plain Yee.
        """
        e, b, de, rhs, bank = self.grid.e, self.grid.b, self._de, self._rhs, self._bank
        self._pin_source(self.time)
        if bank is not None:
            bank.advance()
        e0_old, e1_old, en_old, enn_old = e[0], e[1], e[-1], e[-2]
        np.subtract(self._e_hi, self._e_lo, out=de)
        de *= self._cb
        self._b_lossy *= self._ca_b
        b -= de
        np.subtract(self._b_hi, self._b_lo, out=rhs)
        rhs *= self._ce
        self._e_lossy *= self._ca_e
        for rhs_bank, row in self._bank_rows:
            rhs_bank -= row
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
