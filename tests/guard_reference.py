"""The old guard check: each separator's region clipped from its own left band."""

import numpy as np


def _left_piece(corners, a, b, c):
    """Points of the clip of corners by a*x + b*y <= c, emitted as Sutherland-Hodgman emits them.

    Nothing is merged or dropped, unlike ``clip_convex``, whose clean-up
    would turn the slivers of near-horizontal lines into empty polygons; a
    clip of fewer than three points is empty.
    """
    values = [a * x + b * y - c for x, y in corners]
    out = []
    for i, ((sx, sy), fs) in enumerate(zip(corners, values)):
        (ex, ey), fe = corners[(i + 1) % 4], values[(i + 1) % 4]
        if fs <= 0.0:
            out.append((sx, sy))
        if (fs < 0.0 < fe) or (fe < 0.0 < fs):
            t = fs / (fs - fe)
            out.append((sx + t * (ex - sx), sy + t * (ey - sy)))
    return out if len(out) >= 3 else []


def reference_valid(scenario, planes):
    """Per "+" half-plane (a, b, c) row, whether no vertex of its left piece reaches the guard.

    Each row's left band is cut under that row's own guard, which must be
    finite, and clipped by the row's "+" side; a vertex at or left of
    -guard + 1e-9*guard marks the row invalid.
    """
    a, b, c = np.asarray(planes, dtype=float).reshape(-1, 3).T
    d, y = scenario.delta, scenario.y_lim
    guard = np.maximum(2.0 * scenario.c, (np.abs(c) + np.abs(b) * y) / np.abs(a) + scenario.c)
    assert np.isfinite(guard).all()
    verdicts = []
    for ai, bi, ci, g in zip(a.tolist(), b.tolist(), c.tolist(), guard.tolist()):
        piece = _left_piece([(-g, -y), (-d, -y), (-d, y), (-g, y)], ai, bi, ci)
        edge = -g + 1e-9 * max(1.0, g)
        verdicts.append(all(x > edge for x, _ in piece))
    return np.array(verdicts)
