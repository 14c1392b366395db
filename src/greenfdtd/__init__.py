"""1D FDTD solver for Lorentz-dispersive media.

Two interchangeable polarization updaters drive the same leapfrog:
"tgm", a one-step complex recurrence built from the closed-form Green
response of the sampled field's rectangle decomposition, and "adem",
the conventional auxiliary-differential-equation scheme.  Analytic
oracles (Fresnel reflection, direct convolution, RK4) back every fast
path, and the CLI reproduces the vacuum / Lorentz half-space reflection
benchmark.  The API lives in the modules (see README, "Library layout").
"""

__version__ = "0.1.0"
