"""The old guard check: each separator's region clipped from its own left band."""

import numpy as np

from marginseq.geometry import PolygonBatch, clip_convex_batch


def reference_valid(scenario, planes):
    """Per "+" half-plane (a, b, c) row, whether no vertex of its left piece reaches the guard.

    Each row's left band is cut under that row's own guard, which must be
    finite, and clipped by the row's "+" side in one batch; a vertex at or
    left of -guard + 1e-9*guard marks the row invalid.
    """
    a, b, c = np.asarray(planes, dtype=float).reshape(-1, 3).T
    d, y = scenario.delta, scenario.y_lim
    guard = np.maximum(2.0 * scenario.c, (np.abs(c) + np.abs(b) * y) / np.abs(a) + scenario.c)
    assert np.isfinite(guard).all()
    inner = np.full_like(guard, -d)
    band = PolygonBatch(np.stack([-guard, inner, inner, -guard], axis=1),
                        np.tile([-y, -y, y, y], (len(guard), 1)), np.full(len(guard), 4))
    piece = clip_convex_batch(band, a, b, c)
    kept = np.arange(piece.x.shape[1]) < piece.n[:, None]
    edge = (-guard + 1e-9 * np.maximum(1.0, guard))[:, None]
    return ~(kept & (piece.x <= edge)).any(axis=1)
