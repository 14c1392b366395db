"""Sweep the right-edge absorber taper and report |R| accuracy.

The transmitted wave re-enters the probe window after bouncing off the
grid's right edge unless it is absorbed there; a bare Mur update cannot
do that across the band in a dispersive half-space (its reflection at a
mismatched phase velocity is O((n - 1)/(n + 1)), and a conductivity-only
taper turns into a mirror at low frequency).  This sweep reproduces the
numbers behind the bundled taper choice: 660 cells, sigma_max = 10 S/m,
cubic grading, magnetic loss matched to the medium's static permittivity.
"""

import dataclasses
import sys
import time

import numpy as np

from greenfdtd.analysis import reflection_experiment
from greenfdtd.config import load_table1


def band_errors(cfg):
    f, ra, mags = reflection_experiment(cfg, ("tgm",))
    err = np.abs(mags["tgm"] - ra)
    return err.max(), float(np.sqrt(np.mean(err**2))), f[err.argmax()]


def main():
    base = load_table1()
    print(f"grid {base.n_grid} nodes, {base.n_steps} steps, "
          f"band threshold {base.band_threshold}")
    print(f"{'cells':>6} {'sigma':>6} | {'max err':>9} {'rms err':>9} {'worst at':>10}")
    for cells, sigma in [(0, 0.0), (330, 10.0), (660, 5.0), (660, 10.0),
                         (660, 20.0), (990, 10.0)]:
        cfg = dataclasses.replace(base, absorber_cells=cells, absorber_sigma=sigma)
        t0 = time.perf_counter()
        mx, rms, f_worst = band_errors(cfg)
        print(f"{cells:>6} {sigma:>6.1f} | {mx:>9.5f} {rms:>9.6f} "
              f"{f_worst / 1e9:>8.1f}GHz   [{time.perf_counter() - t0:.1f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
