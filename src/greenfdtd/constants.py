"""Physical constants, MKSA.

EPS0 is derived from MU0 and C0 rather than hard-coded so that
mu0*eps0*c^2 == 1 holds exactly in floating point.
"""

import math

C0 = 2.99792458e8           # speed of light in vacuum, m/s
MU0 = 4.0e-7 * math.pi      # vacuum permeability, H/m
EPS0 = 1.0 / (MU0 * C0 * C0)  # vacuum permittivity, F/m
