"""The exact scorer written out with the scalar clip, one target at a time,
the breach built from the breached versions' separators one at a time, and
the plan audit that scores one prefix at a time."""

import math
from types import SimpleNamespace

from marginseq.geometry import ConvexPolygon, halfplane_intersection, polygon_area
from marginseq.regions import Breach, band_rectangles, guard_extent
from marginseq.versioning import PlanVerification


def _bands(scenario, separators):
    """The bands cut under the deepest of the separators' own guards, each
    taken from a scalar :func:`guard_extent` call."""
    guards = [float(guard_extent(scenario, line.a, line.b, line.c))
              for line in (bd.plus for bd in separators)]
    return band_rectangles(scenario, max(guards))


def reference_breach(scenario, separators):
    """pieces, inside and area of the union of the separators' regions.

    inside is each band cut by every separator's "-" side.
    """
    bands = _bands(scenario, separators)
    outside = [bd.minus for bd in separators]
    inside = tuple(halfplane_intersection(outside, b) for b in bands)
    area = sum(polygon_area(b) - polygon_area(i) for b, i in zip(bands, inside))
    return SimpleNamespace(pieces=bands, inside=inside, area=area)


def reference_within(scenario, source):
    """pieces, inside and area of source's own region: each band cut by its
    "+" side, nothing inside."""
    pieces = tuple(halfplane_intersection([source.plus], b) for b in _bands(scenario, [source]))
    inside = (ConvexPolygon.empty(),) * len(pieces)
    return SimpleNamespace(pieces=pieces, inside=inside, area=sum(polygon_area(p) for p in pieces))


def reference_score(breach, target):
    """What ``breach.scores`` gives target separator's row, NaN when the breach has no area.

    Per band, area(piece n plus) - area(inside n plus), summed in band order.
    """
    if breach.area == 0.0:
        return math.nan
    plus = [target.plus]
    numer = 0.0
    for piece, inside in zip(breach.pieces, breach.inside):
        numer += (polygon_area(halfplane_intersection(plus, piece))
                  - polygon_area(halfplane_intersection(plus, inside)))
    return min(1.0, max(0.0, numer / breach.area))


def reference_verify_plan(plan):
    """What ``verify_plan`` gives, one one-row score per prefix over an extended breach."""
    versions = [bd for bd, _ in plan.versions]
    if len(versions) > 1:
        at_pair = reference_score(reference_within(plan.scenario, versions[0]), versions[1])
    else:
        at_pair = 0.0

    compound, unions = [], []
    for i in range(3, len(versions) + 1):
        breach = Breach.of(plan.scenario, versions[:2]) if i == 3 else breach.extend(versions[i - 2])
        compound.append((i, breach.score(versions[i - 1])))
        unions.append(breach.area)
    base = unions[0] if unions else 1.0
    union_dev = max((abs(u - base) / base for u in unions), default=0.0) if base > 0.0 else math.inf

    max_compound = max((v for _, v in compound), default=0.0)
    tie = max_compound - 1e-12 * max(1.0, max_compound)
    max_at = next((i for i, v in compound if v >= tie), 0)
    return PlanVerification(
        plan.alpha, at_pair, tuple(compound), max_compound, max_at, union_dev,
        all(v <= plan.alpha + 1e-12 for _, v in compound), union_dev <= 1e-9, at_pair == 0.0,
    )
