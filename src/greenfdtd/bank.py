"""The state-space pole bank that the grid and `verify` both step.

Either updater is a fixed-order linear recursion in E^N (Young & Nelson,
IEEE AP Magazine 43(1), 2001), so all poles of a medium are one bank:
two real states per pole and one matrix M (`pole_matrix`) that maps
(states, E^N) to (new states, summed current).  A step is 3 numpy
operations whatever the pole count and method: E^N is copied into the
last row of the (m+1, cells) input buffer, one np.dot(M, input) writes
the new states and the current into the other buffer, and the current
row is subtracted from a run of the E update's right-hand side; the
buffers then swap roles.  On grids of up to a few thousand nodes
np.matmul, einsum and a (cells, m+1) layout measured no faster.  Every
array of the bank and of the grid's step starts on a 64-byte cache-line
boundary (`aligned`).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import ade, greens


def aligned(shape, fill=0.0):
    """Array of `shape` and of the dtype of `fill`, filled with `fill`
    (broadcast), whose data starts on a 64-byte (cache-line) boundary."""
    dtype = np.asarray(fill).dtype
    nbytes = math.prod(shape if isinstance(shape, tuple) else (shape,)) * dtype.itemsize
    raw = np.empty(nbytes + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    out = raw[start:start + nbytes].view(dtype).reshape(shape)
    out[...] = fill
    return out


def pole_matrix(poles, method, dt, scale):
    """The (m+1)x(m+1) state-space matrix M of `poles` under `method`,
    [X'; j] = M [X; E^N]: X stacks the two real states of each pole, and
    j is the summed current of all poles scaled by `scale`.  M holds each
    pole's block A, injection column and current row (greens.tgm_block or
    ade.adem_block) block-diagonally."""
    block = greens.tgm_block if method == "tgm" else ade.adem_block
    m = 2 * len(poles)
    mat = np.zeros((m + 1, m + 1))
    for i, pole in zip(range(0, m, 2), poles):
        rows = slice(i, i + 2)
        mat[rows, rows], mat[rows, m], mat[m, rows], curr_e = block(pole, dt, scale)
        mat[m, m] += curr_e
    return mat


class PoleBank:
    """The pole matrix `matrix` (pole_matrix; the grid scales its current
    by dt/(eps0 eps_inf), uniform over the medium) stepped on two runs of
    equal length, one state-space recursion per cell.  `advance`, a
    closure bound at build, reads E^N from `e_run`, subtracts the current
    from `rhs_run`, a run of the E update's right-hand side, and returns
    the buffer it wrote: the new states over the current row (the grid's
    kernel ignores it; verify reads its checks' states there).  The two
    (m+1, cells) buffers take turns, as np.dot may not write its input."""

    def __init__(self, matrix, e_run, rhs_run):
        self.matrix = mat = aligned(matrix.shape, matrix)
        self.buffers = x, y = tuple(aligned((len(matrix), len(e_run))) for _ in range(2))
        turns = itertools.cycle(((x[-1], x, y, y[-1]), (y[-1], y, x, x[-1])))
        dot, subtract = np.dot, np.subtract

        def advance():
            """Step every pole from E^N and subtract the current from rhs."""
            e_row, x_now, x_next, j = next(turns)
            e_row[...] = e_run
            dot(mat, x_now, x_next)
            subtract(rhs_run, j, rhs_run)
            return x_next

        self.advance = advance
