import itertools

import numpy as np

from tspdual.dual import dual_feasible


def sample_splus(r, rng, scale=2.0):
    """Random strictly dual-feasible point (lam, mu): diagonally dominant
    mu plus a Gaussian perturbation, resampled until feasible."""
    base = 1.0 + np.abs(r.A_r).sum(axis=1)
    while True:
        lam = rng.normal(scale=scale, size=r.n_multipliers)
        mu = base + rng.normal(scale=scale, size=r.dim)
        ok, _ = dual_feasible(r, lam, mu)
        if ok:
            return lam, mu


def assert_metric(d):
    """d_ij <= fl(d_ik + d_kj) for every i, j, k, entry by entry."""
    n = d.n
    for i, j, k in itertools.product(range(n), repeat=3):
        detour = d.entries[i, k] + d.entries[k, j]
        assert d.entries[i, j] <= detour, (i, j, k)
