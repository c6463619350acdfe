"""The exact scorer written out with the scalar clip, one target at a time,
and the breach built from the breached versions' attackable regions."""

import math
from types import SimpleNamespace

from marginseq.geometry import halfplane_intersection, polygon_area
from marginseq.regions import band_rectangles, guard_extent


def reference_breach(regions):
    """pieces, inside and area of the union of regions, built one region at a time.

    The bands are cut under the deepest of the regions' own guards, each
    taken from a scalar :func:`guard_extent` call, and inside is each band
    cut by every region's "-" side.
    """
    scenario = regions[0].scenario
    assert all(r.scenario == scenario for r in regions)
    guards = [float(guard_extent(scenario, line.a, line.b, line.c))
              for line in (r.source_boundary.plus for r in regions)]
    bands = band_rectangles(scenario, max(guards))
    outside = [r.source_boundary.minus for r in regions]
    inside = tuple(halfplane_intersection(outside, b) for b in bands)
    area = sum(polygon_area(b) - polygon_area(i) for b, i in zip(bands, inside))
    return SimpleNamespace(pieces=bands, inside=inside, area=area)


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
