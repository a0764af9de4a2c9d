"""Scalar landscapes over (eta, beta) or a single angle, and their extrema.

Every function in the registry takes broadcast arrays.  :func:`sample`
evaluates one on the ``ij`` mesh of one :class:`AxisSpec` per axis, a
block of the mesh at a time (:func:`~ybekit.tensor.by_blocks`), so every
registered function runs in a bounded working set: a surface over (eta,
beta), a curve over theta, or a section, which is a surface with a
1-point axis at the fixed coordinate.  The critical-point finder scans
what :func:`sample` gives on the same axes and moves all candidates in
lockstep, one call per refinement step at both trial points of every
candidate still searching.  A point gives the same bits as a float, a 0-d
array or an element of any array, so a value prints the same in
``landscape``, ``extrema`` and ``state``.

The surfaces of interest are built from absolute values of trigonometric
functions, so some extrema sit on V-shaped kinks where derivative-based
classification fails.  Critical points are therefore located by a strict
coarse-grid neighborhood scan followed by per-axis bracket shrinking, and
classified by comparing refined neighbor values; a kink flag marks
non-smooth axes.

Registering a landscape is a map, a measure and a domain: one
:data:`FUNCTIONS` entry, whose axes the ``ybekit landscape`` and
``extrema`` commands take as ``--NAME`` flags.  The map takes the axis
arrays to real coordinates of a state, which the measure reads
(:mod:`ybekit.entanglement`); a three-body entry also maps its axes to the
states that ``extrema`` labels.  Function tags:

==========  ===========  ===================================  ==========================
tag         axes         map                                  measure
==========  ===========  ===================================  ==========================
l1_S3       eta, beta    state coordinates (a, b, c)          l1, weights (1, sqrt2, 1)
l1_Sprime   eta, beta    fusion row (Re m00, Re m01, Im m00)  l1, weights (1, 1, 2)
vn_Sprime   eta, beta    state coordinates (a, b, c)          qubit-1 cut entropy
l1_wigner   theta        (cos theta, sin theta)               l1, weights (1, 1)
vn_xi       theta        (cos theta, sin theta)               qubit-1 cut entropy
==========  ===========  ===================================  ==========================
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .entanglement import cut_entropy, weighted_l1
from .tensor import by_blocks
from .threebody import ScatterParams, fusion_row, state_coordinates, state_from_params

PLATEAU_TOL = 1e-12
LOCATION_RESOLUTION = 1e-7  # dedupe floor, see _dedupe_tol
FLAT_PROBE = 1e-4  # step of the two-sided flatness test in _flat_axis
KINK_PROBE = 1e-5  # step of the one-sided slopes in _kinked

LOCAL_MAX = "local-max"
LOCAL_MIN = "local-min"
SADDLE = "saddle"


@dataclass(frozen=True)
class AxisSpec:
    """Inclusive sampling grid start..stop with n points.

    A 1-point axis (n = 1, start = stop) is the fixed coordinate of a
    section; extremum scans require at least 3 points per axis.
    """

    name: str
    start: float
    stop: float
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"axis {self.name} needs at least 1 sample, got {self.n}")
        if not math.isfinite(self.stop - self.start):  # as it is for an inf or nan bound
            raise ValueError(f"axis {self.name} needs finite bounds and a finite width "
                             f"stop - start, got [{self.start}, {self.stop}]")
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

    @property
    def step(self) -> float:
        if self.n < 2:
            raise ValueError(f"axis {self.name} has no step with {self.n} samples")
        return (self.stop - self.start) / (self.n - 1)


@dataclass(frozen=True)
class CriticalPoint:
    """A located extremum or saddle with kink-aware classification.

    ``axis_kinds`` records the per-axis behavior ("max" or "min") and
    ``kinks`` flags axes where the one-sided slopes reveal a V shape;
    ``smooth`` is False when any axis is kinked.
    """

    location: tuple[float, ...]
    value: float
    kind: str
    axis_kinds: tuple[str, ...]
    kinks: tuple[bool, ...]

    @property
    def smooth(self) -> bool:
        return not any(self.kinks)


# ---------------------------------------------------------------------------
# function registry
# ---------------------------------------------------------------------------

def _rotation(theta):
    # cos(theta)|00> - sin(theta)|11>, the two-qubit R-matrix's output, and half
    # the moduli of the spin-1/2 rotation; yielded one at a time, so that a
    # long curve holds one of them
    yield np.cos(theta)
    yield np.sin(theta)


@dataclass(frozen=True)
class LandscapeFunction:
    """A landscape ``fn`` of one broadcast array per axis named in
    ``axes``, evaluated by calling the entry.  ``params``, if not None, maps
    them to the (..., 8) states that ``extrema`` labels.  ``default_domain``
    holds one (start, stop) per axis."""

    tag: str
    axes: tuple[str, ...]
    fn: Callable[..., float]
    default_domain: tuple[tuple[float, float], ...]
    params: Callable[..., np.ndarray] | None = None

    def __call__(self, *coords):
        return self.fn(*coords)

    @property
    def arity(self) -> int:
        return len(self.axes)


def _landscape(tag: str, coordinates: Callable, measure: Callable, **kind) -> LandscapeFunction:
    """The landscape ``measure(coordinates(*axes))``."""
    return LandscapeFunction(tag, fn=lambda *axes: measure(coordinates(*axes)), **kind)


_THREE_BODY = dict(axes=("eta", "beta"),
                   params=lambda eta, beta: state_from_params(ScatterParams(eta, beta)),
                   default_domain=((0.0, 2.0 * math.pi), (-math.pi / 2, math.pi / 2)))
_THETA = dict(axes=("theta",), default_domain=((0.0, math.pi / 2),))

FUNCTIONS: dict[str, LandscapeFunction] = {spec.tag: spec for spec in [
    _landscape("l1_S3", state_coordinates, weighted_l1(1.0, math.sqrt(2.0), 1.0), **_THREE_BODY),
    _landscape("l1_Sprime", fusion_row, weighted_l1(1.0, 1.0, 2.0), **_THREE_BODY),
    # qubit 1 is 0 on |000> and half of b's pair, 1 on the other half and |101>
    _landscape("vn_Sprime", state_coordinates, cut_entropy(1.0, 0.5, 0.0), **_THREE_BODY),
    _landscape("l1_wigner", _rotation, weighted_l1(1.0, 1.0), **_THETA),
    _landscape("vn_xi", _rotation, cut_entropy(1.0, 0.0), **_THETA),
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

def _axis_kind(center, lo, hi) -> np.ndarray:
    """Per-axis behavior with a tie tolerance, elementwise over broadcast
    arrays: ``int8`` 1 for a max, -1 for a min, 0 for neither.

    An extremum of a symmetric curve can land exactly between two grid
    nodes, leaving two equal-to-rounding samples at the top; such a point
    must still count, so one strict neighbor comparison plus one
    tolerance-level tie qualifies.
    """
    above_low = np.minimum(lo, hi) + PLATEAU_TOL
    below_high = np.maximum(lo, hi) - PLATEAU_TOL
    is_max = (center > above_low) & (center >= below_high)
    is_min = (center < below_high) & (center <= above_low)
    return is_max.astype(np.int8) - is_min


def _shrink_bracket(fn1d: Callable[[np.ndarray, np.ndarray], np.ndarray],
                    lo: np.ndarray, hi: np.ndarray, want_max: np.ndarray,
                    tol: float) -> np.ndarray:
    """Trisection search for the extrema of unimodal 1-D sections, one per
    bracket [lo, hi], all brackets in lockstep.

    ``fn1d(u, k)`` evaluates the sections numbered ``k`` at the points
    ``u``; each step calls it once, at ``a`` and ``b`` of every bracket
    still wider than ``tol`` together.  Rounding of ``hi - lo`` can give two
    brackets of one nominal width different step counts, so each bracket
    stops on its own, after the float steps a search of its own would take.
    A bracket also stops once a step leaves both its ends as they were:
    below the float spacing at its ends it would repeat that step forever.
    Works on V-shaped (non-differentiable) extrema as well as smooth ones.

    While no bracket stops, the set still searching is unchanged: its ends
    and signs stay gathered in compact arrays, updated in place, and its
    ``k`` (the indices of ``a`` then of ``b``) is one object, so ``fn1d``
    can gather its fixed coordinates once per searching set.  The ends are
    written back, and the next set gathered, only when a bracket stops.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    sign = np.where(want_max, 1.0, -1.0)
    k = np.flatnonzero(hi - lo > tol)
    while k.size:
        n = k.size
        lo_k, hi_k, sign_k, both = lo[k], hi[k], sign[k], np.concatenate([k, k])
        u = np.empty(2 * n)  # a then b, the trial points of every step of this set
        a, b = u[:n], u[n:]
        going = np.ones(n, dtype=bool)
        while going.all():
            third = (hi_k - lo_k) / 3.0
            np.add(lo_k, third, out=a)
            np.subtract(hi_k, third, out=b)
            f = fn1d(u, both)
            up = sign_k * f[:n] < sign_k * f[n:]
            going = np.where(up, a != lo_k, b != hi_k)  # the step moved an end
            np.copyto(lo_k, a, where=up)
            np.copyto(hi_k, b, where=~up)
            going &= hi_k - lo_k > tol
        lo[k], hi[k] = lo_k, hi_k
        k = k[going]
    with np.errstate(over="ignore"):  # where the ends' sum overflows, sum their halves
        mid = 0.5 * (lo + hi)
    return np.where(np.isfinite(mid), mid, 0.5 * lo + 0.5 * hi)


def _flat_axis(f_plus: np.ndarray, f_minus: np.ndarray, f0: np.ndarray) -> np.ndarray:
    """True where the section moves by less than the plateau tolerance at
    ``FLAT_PROBE`` on both sides of a point: ``f_plus`` and ``f_minus``
    hold its values there, ``f0`` at the point."""
    return (np.abs(f_plus - f0) < PLATEAU_TOL) & (np.abs(f_minus - f0) < PLATEAU_TOL)


def _kinked(f_plus: np.ndarray, f_minus: np.ndarray, f0: np.ndarray) -> np.ndarray:
    """Kink test at refined extrema from the values ``KINK_PROBE`` after
    and before each point, ``f_plus`` and ``f_minus``, and at it, ``f0``.

    At a smooth extremum both one-sided slopes vanish linearly with the
    step ``KINK_PROBE``, so their gap shrinks with the probe; at a V kink
    the gap stays order one.  The floor max(KINK_PROBE, |s- + s+|) keeps
    float noise from flagging smooth points.
    """
    s_minus = (f0 - f_minus) / KINK_PROBE
    s_plus = (f_plus - f0) / KINK_PROBE
    return np.abs(s_plus - s_minus) > 10.0 * np.maximum(KINK_PROBE, np.abs(s_plus + s_minus))


def _dedupe_tol(refine_tol: float) -> float:
    """Distance within which two refined points of one kind are one point.

    A smooth extremum is flat to rounding over about sqrt(eps) times the
    axis scale, so its location is resolved to ~1e-8 however small
    ``refine_tol`` is; below that floor, candidates that converged onto one
    extremum would be kept as several.
    """
    return max(10.0 * refine_tol, LOCATION_RESOLUTION)


def _classify(axis_kinds: tuple[str, ...]) -> str:
    if all(k == "max" for k in axis_kinds):
        return LOCAL_MAX
    if all(k == "min" for k in axis_kinds):
        return LOCAL_MIN
    return SADDLE


def find_critical_points(tag: str, axes: Sequence[AxisSpec],
                         refine_tol: float = 1e-8) -> list[CriticalPoint]:
    """Locate and classify interior critical points of a landscape.

    ``axes`` holds one :class:`AxisSpec` of at least 3 points per axis of
    the function, in its order, as :func:`sample` takes them.  Coarse
    candidates are strict comparisons against every grid neighbor
    (:func:`_scan`).  All candidates are then refined together, one axis at
    a time, by bracket shrinking down to ``refine_tol``
    (:func:`_shrink_bracket`), and probed for flat axes and kinks with one
    kernel call per axis over every point.  Each point takes the same
    float steps as it would refined on its own; a non-finite refined
    location or value raises, as a non-finite grid value does.
    """
    spec = get_function(tag)
    if not refine_tol > 0.0:
        raise ValueError(f"refinement tolerance must be positive, got {refine_tol!r}")
    for axis in axes:
        if axis.n < 3:
            raise ValueError(f"axis {axis.name} needs at least 3 points to scan, got {axis.n}")
        for x in (axis.start, axis.stop):  # else every candidate reads as flat
            if x + KINK_PROBE == x or x - KINK_PROBE == x:
                raise ValueError(f"axis {axis.name}: the finder's probe step {KINK_PROBE:g} "
                                 f"vanishes in the float spacing at {x!r}")
    found = _scan(sample(tag, axes))
    coords, kinds = [axis.points()[i] for axis, i in zip(axes, found)], found[len(axes):]

    def along(a: int):
        """The landscape along axis ``a`` through the points ``coords``
        (optionally only through the points numbered ``k``).  The fixed
        coordinates are gathered on the first call with a ``k`` and reused
        while later calls pass that same object."""
        last_k = fixed = None

        def fn1d(u, k=slice(None)):
            nonlocal last_k, fixed
            if k is not last_k:
                last_k, fixed = k, [c[k] for c in coords]
            return spec(*(u if b == a else c for b, c in enumerate(fixed)))
        return fn1d

    # Alternate full-width per-axis searches, re-centering each round; the
    # cross-coupling of the surfaces here is weak so three rounds converge,
    # and a curve, with no other axis to re-center on, needs one.
    for _ in range(3 if len(axes) > 1 else 1):
        for a, axis in enumerate(axes):
            coords[a] = _shrink_bracket(along(a), coords[a] - axis.step, coords[a] + axis.step,
                                        kinds[a] == "max", refine_tol)
    value = spec(*coords)
    if not np.all(np.isfinite([*coords, value])):
        raise ValueError("refined critical points have non-finite locations or values")
    # A coarse candidate can converge onto a line where one coordinate no
    # longer moves the value (constant rows at sin(eta) = 0).  Such points
    # are degenerate, not extrema; drop them.  One call per axis takes the
    # flatness and kink probes, in rows, at every point.
    steps = np.array([FLAT_PROBE, -FLAT_PROBE, KINK_PROBE, -KINK_PROBE])[:, None]
    probes = [along(a)(x + steps) for a, x in enumerate(coords)]
    keep = ~np.logical_or.reduce([_flat_axis(f[0], f[1], value) for f in probes])
    coords, value, kinds = [x[keep] for x in coords], value[keep], [k[keep] for k in kinds]
    kinks = zip(*(_kinked(f[2][keep], f[3][keep], value).tolist() for f in probes))
    axis_kinds = zip(*(k.tolist() for k in kinds))
    results = [CriticalPoint(location, v, _classify(ks), ks, flags)
               for location, v, ks, flags in zip(zip(*coords), value, axis_kinds, kinks)]
    return _dedupe(results, _dedupe_tol(refine_tol))


def _scan(vals: np.ndarray) -> tuple:
    """Coarse candidates of a sampled landscape in row-major order: their
    grid indices, one array per axis, then their "max" or "min" kinds along
    each axis.

    A node must be a max or a min along every axis; the tie tolerance of
    :func:`_axis_kind` already drops nodes on a plateau.  One pass over the
    whole interior, on shifted views of the grid a block at a time
    (:func:`by_blocks`), keeps only the nodes that meet a necessary
    condition of an extremum along axis 0: within the tie tolerance of the
    larger of their two axis-0 neighbors or above it, or of the smaller or
    below it, the halves of :func:`_axis_kind` that a max and a min need.
    Every axis, and the diagonal neighbors, those one step off on two axes
    or more, are then tested only at those nodes.  A max (min) along every
    axis must also beat (undercut) its diagonal neighbors; a curve has
    none.
    """
    def maybe_extreme(center, lo, hi):
        return ((center >= np.maximum(lo, hi) - PLATEAU_TOL)
                | (center <= np.minimum(lo, hi) + PLATEAU_TOL))

    core = vals[(slice(None), *(slice(1, -1) for _ in vals.shape[1:]))]
    passed = by_blocks(maybe_extreme, core[1:-1], core[:-2], core[2:])
    nodes = [i + 1 for i in np.unravel_index(np.flatnonzero(passed), passed.shape)]

    def at(offset) -> np.ndarray:
        return vals[tuple(i + d for i, d in zip(nodes, offset))]

    center = at((0,) * vals.ndim)
    kinds = [_axis_kind(center, at(-unit), at(unit)) for unit in np.eye(vals.ndim, dtype=int)]
    diag = [at(offset) for offset in itertools.product((-1, 0, 1), repeat=vals.ndim)
            if np.count_nonzero(offset) >= 2]
    above_diag = np.all([center > d - PLATEAU_TOL for d in diag], axis=0)
    below_diag = np.all([center < d + PLATEAU_TOL for d in diag], axis=0)
    mixed = np.any([kind != kinds[0] for kind in kinds], axis=0)
    keep = np.all(kinds, axis=0) & (mixed | np.where(kinds[0] > 0, above_diag, below_diag))
    return (*(i[keep] for i in nodes), *(np.where(kind[keep] > 0, "max", "min") for kind in kinds))


def _dedupe(points: list[CriticalPoint], tol: float) -> list[CriticalPoint]:
    """Points in sorted order, less each one that lies within ``tol`` on
    every axis of an earlier kept point of its kind.

    Sorting puts the kept points in order of their first coordinate, so
    only the last few kept, those within ``tol`` of the point on that axis,
    can match it.
    """
    kept: list[CriticalPoint] = []
    for p in sorted(points, key=lambda q: q.location):
        near = itertools.takewhile(lambda k: p.location[0] - k.location[0] <= tol,
                                   reversed(kept))
        if not any(k.kind == p.kind
                   and all(abs(a - b) <= tol for a, b in zip(k.location, p.location))
                   for k in near):
            kept.append(p)
    return kept
