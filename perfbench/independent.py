"""Reference computations that share no code path with the program they check.

Areas here come from vertex enumeration: every pairwise intersection of the
constraint lines is tested against all constraints, and the surviving points
are ordered by angle and summed with the shoelace formula.  That route never
clips a polygon, so it is independent of ``marginseq.geometry.clip_convex``.
Lines are plain ``(a, b, c)`` triples whose "+" side is ``a*x + b*y + c >= 0``;
program boundaries enter only through their public ``signed_value`` predicate,
so the checks do not depend on how the program stores a line.

Only numpy is imported, so these helpers cost nothing before they are used.
"""

import math
from typing import NamedTuple, Sequence

import numpy as np

# Feasibility slack for an enumerated vertex, as a signed distance in scenario
# units; the scenario scale is O(100) and coordinates stay below ~1e4.
VERTEX_TOL = 1e-9

# A Monte Carlo estimate may stray this many binomial standard deviations from
# the exact ratio.  The two-sided normal tail at 6 sigma is 2e-9, so with a few
# dozen estimates checked per run a correct estimator fails with probability
# below 1e-7.
MC_Z = 6.0


class Line(NamedTuple):
    """Oriented line with unit normal; the "+" side is a*x + b*y + c >= 0."""

    a: float
    b: float
    c: float

    def value(self, x, y):
        return self.a * x + self.b * y + self.c

    def flipped(self) -> "Line":
        return Line(-self.a, -self.b, -self.c)


def _normalised(a: float, b: float, c: float) -> Line:
    n = math.hypot(a, b)
    if n == 0.0 or not math.isfinite(n):
        raise ValueError("line normal must be finite and nonzero")
    return Line(a / n, b / n, c / n)


def oriented_line(a: float, b: float, c: float, plus_point: tuple[float, float]) -> Line:
    """Line a*x + b*y + c = 0 oriented so that ``plus_point`` is on its "+" side."""
    line = _normalised(a, b, c)
    return line if line.value(*plus_point) > 0.0 else line.flipped()


def sloped_line(k: float, intercept: float, plus_point: tuple[float, float]) -> Line:
    """y = k*x + intercept, "+" on the side of ``plus_point``."""
    return oriented_line(-k, 1.0, -intercept, plus_point)


def vertical_line(x0: float, plus_point: tuple[float, float]) -> Line:
    return oriented_line(1.0, 0.0, -x0, plus_point)


def line_of(boundary) -> Line:
    """The program boundary as a Line, read through its signed_value predicate."""
    c0 = float(boundary.signed_value(0.0, 0.0))
    a = float(boundary.signed_value(1.0, 0.0)) - c0
    b = float(boundary.signed_value(0.0, 1.0)) - c0
    return _normalised(a, b, c0)


def polygon_area(lines: Sequence[Line]) -> float:
    """Area of the bounded convex set where every line's value is >= 0."""
    L = np.asarray(lines, dtype=float)
    i, j = np.triu_indices(len(L), k=1)
    a1, b1, c1 = L[i, 0], L[i, 1], L[i, 2]
    a2, b2, c2 = L[j, 0], L[j, 1], L[j, 2]
    det = a1 * b2 - a2 * b1
    ok = np.abs(det) > 1e-15
    det = np.where(ok, det, 1.0)
    x = (b1 * c2 - b2 * c1) / det
    y = (c1 * a2 - c2 * a1) / det
    pts = np.stack([x[ok], y[ok]], axis=1)
    if len(pts) == 0:
        return 0.0
    values = pts @ L[:, :2].T + L[:, 2]
    pts = pts[(values >= -VERTEX_TOL).all(axis=1)]
    if len(pts) < 3:
        return 0.0
    centre = pts.mean(axis=0)
    order = np.argsort(np.arctan2(pts[:, 1] - centre[1], pts[:, 0] - centre[0]))
    px, py = pts[order, 0], pts[order, 1]
    return float(abs(np.dot(px, np.roll(py, -1)) - np.dot(py, np.roll(px, -1))) / 2.0)


def box(x0: float, x1: float, y0: float, y1: float) -> list[Line]:
    return [Line(1.0, 0.0, -x0), Line(-1.0, 0.0, x1), Line(0.0, 1.0, -y0), Line(0.0, -1.0, y1)]


def guard_depth(scenario, lines: Sequence[Line]) -> float:
    """A left edge beyond every crossing of the lines with the strip.

    Left of all crossings each line keeps one sign, the side of the "-"
    training disk, so the attackable regions never reach this edge and the
    areas computed below do not depend on where exactly it lies.
    """
    far = 2.0 * scenario.c
    for ln in lines:
        if abs(ln.a) > 1e-12:
            for y in (-scenario.y_lim, scenario.y_lim):
                far = max(far, abs((ln.b * y + ln.c) / ln.a))
    return far + 1.0


def minus_bands(scenario, guard: float) -> list[list[Line]]:
    """The "-" domain {x <= -delta} u {0 <= x <= delta}, cut to |y| <= y_lim."""
    d, y = scenario.delta, scenario.y_lim
    return [box(-guard, -d, -y, y), box(0.0, d, -y, y)]


def attackable_area(scenario, line: Line) -> float:
    """Area of the "-" domain that ``line`` puts on its "+" side."""
    guard = guard_depth(scenario, [line])
    return sum(polygon_area(band + [line]) for band in minus_bands(scenario, guard))


def compound_score(scenario, priors: Sequence[Line], target: Line) -> float:
    """S(target n union of priors) / S(union of priors) over the "-" domain.

    Union area is band area minus the area outside every prior; the overlap is
    the target's area minus its part outside every prior.  Each term is one
    convex set, so all of it is vertex enumeration.
    """
    guard = guard_depth(scenario, [*priors, target])
    outside = [p.flipped() for p in priors]
    union = overlap = 0.0
    for band in minus_bands(scenario, guard):
        union += polygon_area(band) - polygon_area(band + outside)
        overlap += polygon_area(band + [target]) - polygon_area(band + [target] + outside)
    return overlap / union


def closed_form_ar_area(scenario, k: float, b: float) -> float:
    """Triangle-plus-trapezoid area of the attackable region of y = k*x - b.

    (y - k*delta - b)^2 / 2k + delta*(y - b + k*delta/2), for k > 0 and
    0 < b <= y_lim - k*delta.
    """
    d, y = scenario.delta, scenario.y_lim
    return (y - k * d - b) ** 2 / (2.0 * k) + d * (y - b + k * d / 2.0)


def plan_lines(scenario, n_versions: int, k: float, b_max: float) -> list[Line]:
    """The alternating construction written out from its definition.

    Versions 1 and 2 are y = +-k*(x - delta); version 2j+1 is shifted down by
    j*step and version 2j+2 up by j*step, with step = b_max / (ceil(N/2) - 1).
    """
    d = scenario.delta
    tiers = -(-n_versions // 2) - 1
    step = b_max / tiers if tiers >= 1 else 0.0
    plus = (scenario.c, 0.0)
    out = []
    for i in range(1, n_versions + 1):
        shift = step * ((i - 1) // 2)
        if i % 2 == 1:
            out.append(sloped_line(k, -k * d - shift, plus))
        else:
            out.append(sloped_line(-k, k * d + shift, plus))
    return out


def classification_agreement(predicate_a, predicate_b, xs, ys) -> float:
    """Share of points on which two "+"-side predicates agree."""
    agree = sum(1 for x, y in zip(xs, ys) if predicate_a(x, y) == predicate_b(x, y))
    return agree / len(xs)


def mc_consistent(estimate: float, accepted: int, exact: float, z: float = MC_Z) -> bool:
    """Whether a sampled ratio is within z binomial sigmas of the exact one.

    An exact ratio of 0 or 1 admits no sampling error at all.
    """
    if not 0.0 <= estimate <= 1.0 or accepted < 1:
        return False
    if exact <= 1e-12:
        return estimate == 0.0
    if exact >= 1.0 - 1e-12:
        return estimate == 1.0
    sigma = math.sqrt(exact * (1.0 - exact) / accepted)
    return abs(estimate - exact) <= z * sigma
