import numpy as np

from tspdual.dual import ShiftedSystem, dual_feasible


def sample_splus(r, rng, scale=2.0):
    """Random strictly dual-feasible point (lam, mu): diagonally dominant
    mu plus a Gaussian perturbation, resampled until feasible."""
    base = 1.0 + np.abs(r.A_r).sum(axis=1)
    while True:
        lam = rng.normal(scale=scale, size=r.n_multipliers)
        mu = base + rng.normal(scale=scale, size=r.dim)
        ok, _ = dual_feasible(ShiftedSystem(r), lam, mu)
        if ok:
            return lam, mu
