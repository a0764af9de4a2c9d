"""Scalar landscapes over (eta, beta) or a single angle, and their critical points.

Every function in the registry takes broadcast arrays.  :func:`sample`
evaluates one on the ``ij`` mesh of one :class:`AxisSpec` per axis, a
block of the mesh at a time (:func:`~ybekit.tensor.by_blocks`), so every
registered function runs in a bounded working set: a surface over (eta,
beta), a curve over theta, or a section, which is a surface with a
1-point axis at the fixed coordinate.  A point gives the same bits as a
float, a 0-d array or an element of any array, so a value prints the same
in ``landscape``, ``extrema`` and ``state``.

Registering a landscape is a chart, a measure and a domain: one
:data:`FUNCTIONS` entry, whose axes the ``ybekit landscape`` and
``extrema`` commands take as ``--NAME`` flags.  The chart's map takes the
axis arrays to real coordinates of a state, which the measure reads
(:mod:`ybekit.entanglement`); where a three-body chart places the state's
(a, b, c) among them, each critical point has a class.  Function tags:

==========  ===========  ===================================  ==========================
tag         axes         map                                  measure
==========  ===========  ===================================  ==========================
l1_S3       eta, beta    state coordinates (a, b, c)          l1, weights (1, sqrt2, 1)
l1_Sprime   eta, beta    fusion row (Re m00, Re m01, Im m00)  l1, weights (1, 1, 2)
vn_Sprime   eta, beta    state coordinates (a, b, c)          qubit-1 and -3 cut entropy
l1_wigner   theta        (cos theta, sin theta)               l1, weights (1, 1)
vn_xi       theta        (cos theta, sin theta)               qubit-1 cut entropy
==========  ===========  ===================================  ==========================

Critical points are enumerated, not searched for.  The surfaces are built
from absolute values, so most of their extrema sit on kinks where a
derivative test fails.  Each measure declares its critical points on the
unit sphere of its coordinates, and each chart declares its inverse: the
axis points in a box that map to a point of the sphere.
:func:`find_critical_points` pulls the one back through the other.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# the kinds of critical points are the measures', and are read here too
from .entanglement import (LOCAL_MAX, LOCAL_MIN, OUTER_CUT, RIDGE, SADDLE, Measure,
                           cut_entropy, entanglement_report, weighted_l1)
from .tensor import by_blocks
from .threebody import TWO_PI, fusion_row, state_coordinates

LOCATION_RESOLUTION = 1e-7  # the finest spacing of floats at a box end that extrema takes
MAX_PREIMAGES = 10_000  # the most critical points a box may hold, counted from its widths


def _check_range(name: str, start: float, stop: float) -> None:
    if not math.isfinite(stop - start):  # as it is for an inf or nan bound
        raise ValueError(f"axis {name} needs finite bounds and a finite width "
                         f"stop - start, got [{start}, {stop}]")


@dataclass(frozen=True)
class AxisSpec:
    """Inclusive sampling grid start..stop with n points.

    A 1-point axis (n = 1, start = stop) is the fixed coordinate of a
    section.
    """

    name: str
    start: float
    stop: float
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"axis {self.name} needs at least 1 sample, got {self.n}")
        _check_range(self.name, self.start, self.stop)
        if self.n == 1:
            if self.stop != self.start:
                raise ValueError(f"axis {self.name}: a 1-point axis needs start == stop")
        elif self.stop <= self.start:
            raise ValueError(f"axis {self.name} has empty range [{self.start}, {self.stop}]")

    def points(self) -> np.ndarray:
        """The n points, built on the first call; every call returns that
        one read-only array."""
        return self._points

    @functools.cached_property
    def _points(self) -> np.ndarray:
        points = np.linspace(self.start, self.stop, self.n)
        # linspace adds start to 0.0, which turns a start of -0.0 into 0.0
        points[0] = self.start
        points.flags.writeable = False
        return points


@dataclass(frozen=True)
class CriticalPoint:
    """A critical point: its location on the axes, the landscape's value
    there, its kind (``local-max``, ``local-min``, ``saddle`` or ``ridge``),
    whether the measure is smooth there, and its state's SLOCC class."""

    location: tuple[float, ...]
    value: float
    kind: str
    smooth: bool
    slocc_class: str | None


# ---------------------------------------------------------------------------
# charts: coordinate maps and their inverses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Chart:
    """A coordinate map from the axis arrays to real coordinates x, and its
    inverse.  ``scale`` takes x onto the unit sphere, y_i = scale_i x_i.
    ``state``, if not None, places the state's (a, b, c) in y: ``y[:, state]``
    is the unit state vector.  ``invert(rows, box)`` takes rows of unit
    vectors in that order (y's own where ``state`` is None) and a box, one
    (start, stop) per axis, and returns the axis points in the box that map
    to them: the row of each and one coordinate array per axis."""

    map: Callable
    invert: Callable[[np.ndarray, Sequence[tuple[float, float]]], tuple]
    scale: tuple[float, ...]
    state: tuple[int, ...] | None = None


def _shifts(base: np.ndarray, start: float, stop: float) -> tuple[np.ndarray, np.ndarray]:
    """Every angle base_i + 2 pi k in [start, stop]: the i of each and the
    angle, which is +0.0 where base_i is -0.0 and k is 0."""
    first = np.ceil((start - base) / TWO_PI)
    count = np.maximum(np.floor((stop - base) / TWO_PI) - first + 1.0, 0.0).astype(np.intp)
    index = np.repeat(np.arange(base.size), count)
    k = first[index] + (np.arange(index.size) - np.repeat(np.cumsum(count) - count, count))
    angle = base[index] + TWO_PI * k
    inside = (start <= angle) & (angle <= stop)  # an end a shift rounds past
    return index[inside], angle[inside]


def _circle_preimages(y, box):
    """theta with (cos theta, sin theta) = y: the angle of y plus 2 pi k."""
    index, theta = _shifts(np.arctan2(y[:, 1], y[:, 0]), *box[0])
    return index, (theta,)


def _spherical_preimages(y, box):
    """(eta, beta) with (cos eta, cos beta sin eta, sin beta sin eta) = y.

    eta is +-arccos(y0) + 2 pi k, and beta the angle of (y1, y2) / sin eta
    plus 2 pi m, where sin eta has the sign of the branch.  On the edges
    beta = +-pi/2 of the default box, y1 = 0, and each branch gives a point.
    The poles y = (+-1, 0, 0) are left out: each is a whole line sin eta = 0.
    """
    a, b, c = y.T
    rows = np.flatnonzero((b != 0.0) | (c != 0.0))
    eta = np.arccos(a[rows])
    i, etas = _shifts(np.concatenate([eta, -eta]), *box[0])
    beta = np.concatenate([np.arctan2(c[rows], b[rows]), np.arctan2(-c[rows], -b[rows])])
    j, betas = _shifts(beta[i], *box[1])
    return np.tile(rows, 2)[i[j]], (etas[j], betas)


def _rotation(theta):
    # cos(theta)|00> - sin(theta)|11>, the two-qubit R-matrix's output, and half
    # the moduli of the spin-1/2 rotation; yielded one at a time, so that a
    # long curve holds one of them
    yield np.cos(theta)
    yield np.sin(theta)


SPHERE = Chart(state_coordinates, _spherical_preimages, (1.0, 1.0, 1.0), (0, 1, 2))
# (Re m00, Re m01, sqrt2 Im m00) is (a, c, b) of the state
FUSION = Chart(fusion_row, _spherical_preimages, (1.0, 1.0, math.sqrt(2.0)), (0, 2, 1))
CIRCLE = Chart(_rotation, _circle_preimages, (1.0, 1.0))


# ---------------------------------------------------------------------------
# function registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LandscapeFunction:
    """A landscape ``fn`` of one broadcast array per axis named in
    ``axes``, evaluated by calling the entry.  ``default_domain`` holds one
    (start, stop) per axis.  An entry with a ``chart`` and a ``measure``,
    of which ``fn`` is the composition, has critical points that
    ``extrema`` can enumerate."""

    tag: str
    axes: tuple[str, ...]
    fn: Callable[..., float]
    default_domain: tuple[tuple[float, float], ...]
    chart: Chart | None = None
    measure: Measure | None = None

    def __call__(self, *coords):
        return self.fn(*coords)

    @property
    def arity(self) -> int:
        return len(self.axes)


def _landscape(tag: str, chart: Chart, measure: Measure, **kind) -> LandscapeFunction:
    """The landscape ``measure(chart.map(*axes))``."""
    return LandscapeFunction(tag, fn=lambda *axes: measure(chart.map(*axes)), chart=chart,
                             measure=measure, **kind)


_THREE_BODY = dict(axes=("eta", "beta"),
                   default_domain=((0.0, 2.0 * math.pi), (-math.pi / 2, math.pi / 2)))
_THETA = dict(axes=("theta",), default_domain=((0.0, math.pi / 2),))

FUNCTIONS: dict[str, LandscapeFunction] = {spec.tag: spec for spec in [
    _landscape("l1_S3", SPHERE, weighted_l1(1.0, math.sqrt(2.0), 1.0), **_THREE_BODY),
    _landscape("l1_Sprime", FUSION, weighted_l1(1.0, 1.0, 2.0), **_THREE_BODY),
    _landscape("vn_Sprime", SPHERE, OUTER_CUT, **_THREE_BODY),
    _landscape("l1_wigner", CIRCLE, weighted_l1(1.0, 1.0), **_THETA),
    _landscape("vn_xi", CIRCLE, cut_entropy(1.0, 0.0), **_THETA),
]}


def get_function(tag: str) -> LandscapeFunction:
    try:
        return FUNCTIONS[tag]
    except KeyError:
        raise ValueError(f"unknown function tag {tag!r}; known: {sorted(FUNCTIONS)}") from None


def sample(tag: str, axes: Sequence[AxisSpec]) -> np.ndarray:
    """Values of a landscape on the ``ij`` mesh of ``axes``, one axis per
    axis of the function in its order: ``values[i, j]`` is the measure of
    the mapped point (eta_i, beta_j) for a surface, shape ``(n,)`` for a
    curve.  A section is a surface with a 1-point axis.  The landscape is
    called on the sparse mesh a block at a time (:func:`by_blocks`), with
    the bits of one call over the dense mesh."""
    spec = get_function(tag)
    names = tuple(axis.name for axis in axes)
    if names != spec.axes:
        raise ValueError(f"{tag} has axes {spec.axes}, got {names}")
    values = by_blocks(spec, *np.meshgrid(*(axis.points() for axis in axes),
                                          indexing="ij", sparse=True))
    if not np.all(np.isfinite(values)):
        raise ValueError("landscape contains non-finite values")
    return values


# ---------------------------------------------------------------------------
# critical points
# ---------------------------------------------------------------------------

def find_critical_points(tag: str, domain: Sequence[tuple[float, float]]) -> list[CriticalPoint]:
    """Every critical point of a landscape in the closed box ``domain``, one
    (start, stop) per axis of the function in its order: one point per
    preimage, sorted by location, with the value the landscape gives there
    and the class that ``entanglement_report`` gives its declared point,
    whose support, exact zeros off it, fixes it; None on a curve.

    The measure's critical points on the unit sphere are pulled back
    through the chart, over every 2 pi shift that fits in the box; pole
    lines are left out.  Before anything is enumerated, a box raises
    ValueError where the float spacing at an end exceeds
    ``LOCATION_RESOLUTION``, or where the preimages could number more
    than ``MAX_PREIMAGES``: at most two per point of the sphere for each
    2 pi cell of the box.
    """
    spec = get_function(tag)
    if spec.chart is None or spec.measure is None:
        raise ValueError(f"{tag} declares no critical set")
    if len(domain) != spec.arity:
        raise ValueError(f"{tag} has axes {spec.axes}, got {len(domain)} ranges")
    cells = 2
    for name, (start, stop) in zip(spec.axes, domain):
        _check_range(name, start, stop)
        if stop <= start:
            raise ValueError(f"axis {name} has empty range [{start}, {stop}]")
        if max(np.spacing(abs(start)), np.spacing(abs(stop))) > LOCATION_RESOLUTION:
            raise ValueError(f"axis {name}: the float spacing at [{start}, {stop}] exceeds "
                             f"{LOCATION_RESOLUTION:g}, the resolution of a location")
        cells *= math.floor((stop - start) / TWO_PI) + 1
    points, kinds, smooth = spec.measure.critical(spec.chart.scale)
    if len(points) * cells > MAX_PREIMAGES:
        raise ValueError(f"the box could hold {len(points) * cells} critical points, "
                         f"above {MAX_PREIMAGES}")
    state = spec.chart.state
    rows = points if state is None else points[:, state]
    index, coords = spec.chart.invert(rows, domain)
    order = np.lexsort(coords[::-1])
    index, coords = index[order], [c[order] for c in coords]
    values = spec(*coords)
    if not np.all(np.isfinite(values)):
        raise ValueError("critical values are not finite")
    classes = ([None] * index.size if state is None else
               entanglement_report(rows.T).slocc_class[index].tolist())
    return [CriticalPoint(*row) for row in zip(
        zip(*(c.tolist() for c in coords)), np.ravel(values).tolist(), kinds[index].tolist(),
        smooth[index].tolist(), classes)]
