"""The Monte Carlo estimator written out point by point, one target at a time."""

import numpy as np

from marginseq.regions import MC_BLOCK, guard_extent, mc_left_cut, planes_of
from seeded_rng import philox


def _box(scenario, priors):
    """(guard, p_sliver) of the sampling box: cut on the left by the priors' deepest guard."""
    guard = max(float(guard_extent(scenario, bd.plus.a, bd.plus.b, bd.plus.c)) for bd in priors)
    d, y = scenario.delta, scenario.y_lim
    return guard, d * 2.0 * y / ((guard - d) * 2.0 * y + d * 2.0 * y)


def _count(priors, target, x, yv):
    mask = np.any([bd.signed_value(x, yv) >= 0.0 for bd in priors], axis=0)
    return int(mask.sum()), int((mask & (target.signed_value(x, yv) >= 0.0)).sum())


def per_target_counts(scenario, priors, target, cfg, n_blocks=None):
    """(accepted, hits) of one target over blocks [0, n_blocks), the whole budget by default.

    Block j's stream, keyed (seed, j), first draws how many of the left
    band's points fall at or right of mc_left_cut, then the sliver's fixed
    share and those points as uniform pairs; every drawn point is tested.
    """
    if n_blocks is None:
        n_blocks = -(-cfg.n_samples // MC_BLOCK)
    guard, p_sliver = _box(scenario, priors)
    d, y = scenario.delta, scenario.y_lim
    cut = mc_left_cut(scenario, planes_of(priors), guard)
    q = max(0.0, (-d - cut) / (guard - d))
    accepted = hits = 0
    for j in range(n_blocks):
        m = min(MC_BLOCK, cfg.n_samples - j * MC_BLOCK)
        rng = philox(cfg.seed, j)
        m_sliver = int(round(m * p_sliver))
        k = int(rng.binomial(m - m_sliver, q))
        u = rng.random((m_sliver + k, 2))
        x = np.concatenate([u[:m_sliver, 0] * d, cut + u[m_sliver:, 0] * (-d - cut)])
        yv = -y + u[:, 1] * (2.0 * y)
        counts = _count(priors, target, x, yv)
        accepted += counts[0]
        hits += counts[1]
    return accepted, hits


def full_box_counts(scenario, priors, target, cfg):
    """(accepted, hits) of one target from points drawn over the whole box, every one tested.

    The sampler before the cut bounded the draws: block j draws m uniform
    pairs from the stream keyed (seed, j), the first round(m*p_sliver) in
    the sliver and the rest over [-guard, -delta].
    """
    guard, p_sliver = _box(scenario, priors)
    d, y = scenario.delta, scenario.y_lim
    accepted = hits = 0
    for j in range(-(-cfg.n_samples // MC_BLOCK)):
        m = min(MC_BLOCK, cfg.n_samples - j * MC_BLOCK)
        u = philox(cfg.seed, j).random((m, 2))
        m_sliver = int(round(m * p_sliver))
        x = np.concatenate([u[:m_sliver, 0] * d, -guard + u[m_sliver:, 0] * (guard - d)])
        yv = -y + u[:, 1] * (2.0 * y)
        counts = _count(priors, target, x, yv)
        accepted += counts[0]
        hits += counts[1]
    return accepted, hits
