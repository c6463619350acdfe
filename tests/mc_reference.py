"""The Monte Carlo estimator written out point by point, one target at a time."""

import numpy as np

from marginseq.regions import MC_BLOCK, guard_extent
from seeded_rng import philox


def per_target_counts(scenario, priors, target, cfg, n_blocks=None):
    """(accepted, hits) of one target over blocks [0, n_blocks), the whole budget by default.

    Points are sampled over the box cut on the left by the priors' deepest
    guard, whatever the target; block j draws from the stream keyed (seed, j).
    """
    if n_blocks is None:
        n_blocks = -(-cfg.n_samples // MC_BLOCK)
    guard = max(float(guard_extent(scenario, bd.plus.a, bd.plus.b, bd.plus.c)) for bd in priors)
    d, y = scenario.delta, scenario.y_lim
    p_sliver = d * 2.0 * y / ((guard - d) * 2.0 * y + d * 2.0 * y)
    accepted = hits = 0
    for j in range(n_blocks):
        m = min(MC_BLOCK, cfg.n_samples - j * MC_BLOCK)
        u = philox(cfg.seed, j).random((m, 2))
        m_sliver = int(round(m * p_sliver))
        x = np.concatenate([u[:m_sliver, 0] * d, -guard + u[m_sliver:, 0] * (guard - d)])
        yv = -y + u[:, 1] * (2.0 * y)
        mask = np.any([bd.signed_value(x, yv) >= 0.0 for bd in priors], axis=0)
        accepted += int(mask.sum())
        hits += int((mask & (target.signed_value(x, yv) >= 0.0)).sum())
    return accepted, hits
