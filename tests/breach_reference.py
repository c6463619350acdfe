"""The exact scorer written out with the scalar clip, one target at a time."""

import math

from marginseq.geometry import halfplane_intersection, polygon_area


def reference_score(breach, target):
    """What ``breach.scores`` gives target's row, NaN when the breach has no area.

    Per band, area(piece n plus) - area(inside n plus), summed in band order.
    """
    if breach.area == 0.0:
        return math.nan
    plus = [target.source_boundary.plus]
    numer = 0.0
    for piece, inside in zip(breach.pieces, breach.inside):
        numer += (polygon_area(halfplane_intersection(plus, piece))
                  - polygon_area(halfplane_intersection(plus, inside)))
    return min(1.0, max(0.0, numer / breach.area))
