"""Scalar landscapes over (eta, beta) or a single angle, and their extrema.

Every function in the registry takes broadcast arrays, so a grid, a
section or a curve is one call, and so is each step of the critical-point
refinement, which moves all candidates in lockstep.  An array call gives
the bits of the same call made one float at a time.

The surfaces of interest are built from absolute values of trigonometric
functions, so some extrema sit on V-shaped kinks where derivative-based
classification fails.  Critical points are therefore located by a strict
coarse-grid neighborhood scan followed by per-axis bracket shrinking, and
classified by comparing refined neighbor values; a kink flag marks
non-smooth axes.

Function tags:

====================  =====  =================================================
tag                   arity  value
====================  =====  =================================================
l1_S3                 2      l1-norm of the 8x8 three-body matrix / its state
l1_Sprime             2      l1-norm of the 2x2 fusion-space matrix
vn_Sprime             2      entropy (bits) of the fusion-space amplitudes
l1_wigner             1      |cos| + |sin| of the spin-1/2 rotation matrix
vn_xi                 1      entanglement entropy of the two-qubit output
====================  =====  =================================================
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .entanglement import (
    binary_entropy,
    fusion_entropy,
    fusion_l1,
    three_body_l1,
    wigner_l1,
)
from .rmatrix import wigner_d_half
from .threebody import ScatterParams

PLATEAU_TOL = 1e-12

LOCAL_MAX = "local-max"
LOCAL_MIN = "local-min"
SADDLE = "saddle"


@dataclass(frozen=True)
class AxisSpec:
    """Inclusive sampling grid start..stop with n points.

    A single-point axis (n = 1, start = stop) is allowed for sections;
    grids and extremum scans require at least 3 points per axis.
    """

    name: str
    start: float
    stop: float
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"axis {self.name} needs at least 1 sample, got {self.n}")
        if not math.isfinite(self.start) or not math.isfinite(self.stop):
            raise ValueError(f"axis {self.name} has non-finite bounds")
        if self.n == 1:
            if self.stop != self.start:
                raise ValueError(f"axis {self.name}: a 1-point axis needs start == stop")
        elif self.stop <= self.start:
            raise ValueError(f"axis {self.name} has empty range [{self.start}, {self.stop}]")

    def points(self) -> np.ndarray:
        if self.n == 1:
            return np.array([self.start])
        return np.linspace(self.start, self.stop, self.n)

    @property
    def step(self) -> float:
        if self.n < 2:
            raise ValueError(f"axis {self.name} has no step with {self.n} samples")
        return (self.stop - self.start) / (self.n - 1)


@dataclass(frozen=True)
class LandscapeGrid:
    """Sampled surface: values[i, j] = fn(eta_i, beta_j)."""

    fn: str
    eta_axis: AxisSpec
    beta_axis: AxisSpec
    values: np.ndarray

    def __post_init__(self):
        expect = (self.eta_axis.n, self.beta_axis.n)
        if self.values.shape != expect:
            raise ValueError(f"value grid shape {self.values.shape} != axes {expect}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("landscape contains non-finite values")


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

def _l1_s3(eta: float, beta: float) -> float:
    return three_body_l1(ScatterParams(eta, beta))


def _l1_sprime(eta: float, beta: float) -> float:
    return fusion_l1(ScatterParams(eta, beta))


def _vn_sprime(eta: float, beta: float) -> float:
    return fusion_entropy(ScatterParams(eta, beta))


def _l1_wigner(theta: float) -> float:
    return wigner_l1(wigner_d_half(theta, 0.0))


def _vn_xi(theta: float) -> float:
    # type2_r_4x4(theta) |00> = cos(theta) |00> - sin(theta) |11>
    return binary_entropy(np.cos(theta) ** 2)


@dataclass(frozen=True)
class LandscapeFunction:
    tag: str
    arity: int
    fn: Callable[..., float]
    default_domain: tuple[tuple[float, float], ...]


FUNCTIONS: dict[str, LandscapeFunction] = {
    "l1_S3": LandscapeFunction(
        "l1_S3", 2, _l1_s3, ((0.0, 2.0 * math.pi), (-math.pi / 2, math.pi / 2))
    ),
    "l1_Sprime": LandscapeFunction(
        "l1_Sprime", 2, _l1_sprime, ((0.0, 2.0 * math.pi), (-math.pi / 2, math.pi / 2))
    ),
    "vn_Sprime": LandscapeFunction(
        "vn_Sprime", 2, _vn_sprime, ((0.0, 2.0 * math.pi), (-math.pi / 2, math.pi / 2))
    ),
    "l1_wigner": LandscapeFunction("l1_wigner", 1, _l1_wigner, ((0.0, math.pi / 2),)),
    "vn_xi": LandscapeFunction("vn_xi", 1, _vn_xi, ((0.0, math.pi / 2),)),
}


def get_function(tag: str) -> LandscapeFunction:
    try:
        return FUNCTIONS[tag]
    except KeyError:
        raise ValueError(f"unknown function tag {tag!r}; known: {sorted(FUNCTIONS)}") from None


def sample_surface(tag: str, eta_axis: AxisSpec, beta_axis: AxisSpec) -> LandscapeGrid:
    """Deterministic grid of a two-parameter function, evaluated in one
    call over the (eta, beta) mesh."""
    spec = get_function(tag)
    if spec.arity != 2:
        raise ValueError(f"{tag} is a 1-parameter function; use sample_curve")
    for axis in (eta_axis, beta_axis):
        if axis.n < 3:
            raise ValueError(f"axis {axis.name} needs at least 3 samples for a grid, got {axis.n}")
    etas, betas = np.meshgrid(eta_axis.points(), beta_axis.points(), indexing="ij")
    return LandscapeGrid(tag, eta_axis, beta_axis, spec.fn(etas, betas))


def sample_curve(tag: str, axis: AxisSpec) -> np.ndarray:
    """Samples of a one-parameter function; shape (n, 2) columns (x, value)."""
    spec = get_function(tag)
    if spec.arity != 1:
        raise ValueError(f"{tag} is a 2-parameter function; use sample_surface or section")
    xs = axis.points()
    return np.column_stack([xs, spec.fn(xs)])


def section(tag: str, fixed_axis: str, fixed_value: float, axis: AxisSpec) -> np.ndarray:
    """1-D slice of a two-parameter function; shape (n, 2) columns (x, value).

    ``fixed_axis`` names the frozen coordinate ("eta" or "beta"); ``axis``
    provides the varying coordinate.
    """
    spec = get_function(tag)
    if spec.arity != 2:
        raise ValueError(f"{tag} has no 2-D sections")
    if fixed_axis not in ("eta", "beta"):
        raise ValueError(f"fixed axis must be 'eta' or 'beta', got {fixed_axis!r}")
    xs = axis.points()
    vals = spec.fn(xs, fixed_value) if fixed_axis == "beta" else spec.fn(fixed_value, xs)
    return np.column_stack([xs, vals])


# ---------------------------------------------------------------------------
# critical points
# ---------------------------------------------------------------------------

def _axis_kind(center, lo, hi) -> np.ndarray:
    """Per-axis behavior with a tie tolerance, elementwise over broadcast
    arrays: "max", "min", or "" for neither.

    An extremum of a symmetric curve can land exactly between two grid
    nodes, leaving two equal-to-rounding samples at the top; such a point
    must still count, so one strict neighbor comparison plus one
    tolerance-level tie qualifies.
    """
    low, high = np.minimum(lo, hi), np.maximum(lo, hi)
    is_max = (center > low + PLATEAU_TOL) & (center >= high - PLATEAU_TOL)
    is_min = (center < high - PLATEAU_TOL) & (center <= low + PLATEAU_TOL)
    return np.where(is_max, "max", np.where(is_min, "min", ""))


def _shrink_bracket(fn1d: Callable[[np.ndarray, np.ndarray], np.ndarray],
                    lo: np.ndarray, hi: np.ndarray, want_max: np.ndarray,
                    tol: float) -> np.ndarray:
    """Trisection search for the extrema of unimodal 1-D sections, one per
    bracket [lo, hi], all brackets in lockstep.

    ``fn1d(u, k)`` evaluates the sections numbered ``k`` at the points
    ``u``; each step calls it once at ``a`` and once at ``b`` for every
    bracket still wider than ``tol``.  Rounding of ``hi - lo`` can give two
    brackets of one nominal width different step counts, so each bracket
    stops on its own, after the float steps a search of its own would take.
    A bracket also stops once a step leaves both its ends as they were:
    below the float spacing at its ends it would repeat that step forever.
    Works on V-shaped (non-differentiable) extrema as well as smooth ones.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    sign = np.where(want_max, 1.0, -1.0)
    k = np.flatnonzero(hi - lo > tol)
    while k.size:
        lo_k, hi_k = lo[k], hi[k]
        third = (hi_k - lo_k) / 3.0
        a = lo_k + third
        b = hi_k - third
        up = sign[k] * fn1d(a, k) < sign[k] * fn1d(b, k)
        moved = np.where(up, a != lo_k, b != hi_k)
        lo[k[up]] = a[up]
        hi[k[~up]] = b[~up]
        k = k[moved & (hi[k] - lo[k] > tol)]
    return 0.5 * (lo + hi)


def _flat_axis(fn1d: Callable[[np.ndarray], np.ndarray], x: np.ndarray, f0: np.ndarray,
               probe: float = 1e-4) -> np.ndarray:
    """True where the section moves by less than the plateau tolerance at
    ``probe`` on both sides of ``x``; ``f0`` holds the values at ``x``."""
    return ((np.abs(fn1d(x + probe) - f0) < PLATEAU_TOL)
            & (np.abs(fn1d(x - probe) - f0) < PLATEAU_TOL))


def _kinked(fn1d: Callable[[np.ndarray], np.ndarray], x: np.ndarray, f0: np.ndarray,
            h: float) -> np.ndarray:
    """Kink test at refined extrema; ``f0`` holds the values at ``x``.

    At a smooth extremum both one-sided slopes vanish linearly with h, so
    their gap shrinks with the probe; at a V kink the gap stays order one.
    The floor max(h, |s- + s+|) keeps float noise from flagging smooth
    points.
    """
    s_minus = (f0 - fn1d(x - h)) / h
    s_plus = (fn1d(x + h) - f0) / h
    return np.abs(s_plus - s_minus) > 10.0 * np.maximum(h, np.abs(s_plus + s_minus))


def _check_refine_tol(refine_tol: float) -> None:
    if not refine_tol > 0.0:
        raise ValueError(f"refinement tolerance must be positive, got {refine_tol!r}")


def _classify(axis_kinds: tuple[str, ...]) -> str:
    if all(k == "max" for k in axis_kinds):
        return LOCAL_MAX
    if all(k == "min" for k in axis_kinds):
        return LOCAL_MIN
    return SADDLE


def find_critical_points_2d(tag: str,
                            eta_domain: tuple[float, float] | None = None,
                            beta_domain: tuple[float, float] | None = None,
                            coarse_n: int = 400,
                            refine_tol: float = 1e-8,
                            kink_probe: float = 1e-5) -> list[CriticalPoint]:
    """Locate and classify interior critical points of a 2-D landscape.

    Coarse candidates are strict grid comparisons against all 8 neighbors
    (per-axis max/min patterns admit saddles); plateau points whose whole
    neighborhood agrees within 1e-12 are dropped.  All candidates are then
    refined together, one axis at a time, by bracket shrinking down to
    ``refine_tol`` (:func:`_shrink_bracket`), and probed for flat axes and
    kinks with one kernel call per probe over every point.  Each point
    takes the same float steps as it would refined on its own.
    """
    spec = get_function(tag)
    if spec.arity != 2:
        raise ValueError(f"{tag} is one-dimensional; use find_critical_points_1d")
    if coarse_n < 3:
        raise ValueError(f"coarse grid needs at least 3 points per axis, got {coarse_n}")
    _check_refine_tol(refine_tol)
    if eta_domain is None:
        eta_domain = spec.default_domain[0]
    if beta_domain is None:
        beta_domain = spec.default_domain[1]
    eta_axis = AxisSpec("eta", eta_domain[0], eta_domain[1], coarse_n)
    beta_axis = AxisSpec("beta", beta_domain[0], beta_domain[1], coarse_n)
    i, j, kind_eta, kind_beta = _scan_2d(sample_surface(tag, eta_axis, beta_axis).values)
    fn = spec.fn
    x, y = eta_axis.points()[i], beta_axis.points()[j]
    hx, hy = eta_axis.step, beta_axis.step
    # Alternate full-width per-axis searches, re-centering each round; the
    # cross-coupling of the surfaces here is weak so three rounds converge.
    for _ in range(3):
        x = _shrink_bracket(lambda u, k: fn(u, y[k]), x - hx, x + hx, kind_eta == "max",
                            refine_tol)
        y = _shrink_bracket(lambda v, k: fn(x[k], v), y - hy, y + hy, kind_beta == "max",
                            refine_tol)
    value = fn(x, y)
    # A coarse candidate can converge onto a line where one coordinate no
    # longer moves the value (constant rows at sin(eta) = 0).  Such points
    # are degenerate, not extrema; drop them.
    keep = ~(_flat_axis(lambda u: fn(u, y), x, value) | _flat_axis(lambda v: fn(x, v), y, value))
    x, y, value = x[keep], y[keep], value[keep]
    kinks = zip(_kinked(lambda u: fn(u, y), x, value, kink_probe).tolist(),
                _kinked(lambda v: fn(x, v), y, value, kink_probe).tolist())
    axis_kinds = zip(kind_eta[keep].tolist(), kind_beta[keep].tolist())
    results = [
        CriticalPoint(location=(xe, yb), value=v, kind=_classify(kinds), axis_kinds=kinds,
                      kinks=flags)
        for xe, yb, v, kinds, flags in zip(x, y, value, axis_kinds, kinks)
    ]
    return _dedupe(results, refine_tol * 10.0)


def _scan_2d(vals: np.ndarray) -> tuple:
    """Coarse candidates of a sampled surface in row-major order, as their
    grid indices i, j and their kinds along eta and beta.

    The neighbors of the interior nodes are shifted views of the grid.  A
    node must be a max or a min along both axes; the tie tolerance of
    :func:`_axis_kind` already drops nodes on a plateau.  A max (min) along
    both axes must also beat (undercut) the four diagonals, folded in one
    at a time so that no stack of grid-sized arrays is held.
    """
    def shifted(di: int, dj: int) -> np.ndarray:
        return vals[1 + di : vals.shape[0] - 1 + di, 1 + dj : vals.shape[1] - 1 + dj]

    center = shifted(0, 0)
    kind_eta = _axis_kind(center, shifted(-1, 0), shifted(1, 0))
    kind_beta = _axis_kind(center, shifted(0, -1), shifted(0, 1))
    above_diag = np.ones(center.shape, dtype=bool)
    below_diag = np.ones(center.shape, dtype=bool)
    for di in (-1, 1):
        for dj in (-1, 1):
            neighbor = shifted(di, dj)
            above_diag &= center > neighbor - PLATEAU_TOL
            below_diag &= center < neighbor + PLATEAU_TOL
    keep = (kind_eta != "") & (kind_beta != "")
    keep &= (kind_eta != kind_beta) | np.where(kind_eta == "max", above_diag, below_diag)
    i, j = np.nonzero(keep)
    return i + 1, j + 1, kind_eta[i, j], kind_beta[i, j]


def _scan_1d(vals: np.ndarray) -> tuple:
    """Coarse candidates of a sampled curve: their indices and kinds.  The
    tie tolerance of :func:`_axis_kind` already drops plateau nodes."""
    kinds = _axis_kind(vals[1:-1], vals[:-2], vals[2:])
    (i,) = np.nonzero(kinds != "")
    return i + 1, kinds[i]


def find_critical_points_1d(tag: str,
                            domain: tuple[float, float] | None = None,
                            coarse_n: int = 400,
                            refine_tol: float = 1e-8,
                            kink_probe: float = 1e-5) -> list[CriticalPoint]:
    """Locate and classify interior critical points of a 1-D curve, all
    candidates refined together as in :func:`find_critical_points_2d`."""
    spec = get_function(tag)
    if spec.arity != 1:
        raise ValueError(f"{tag} is two-dimensional; use find_critical_points_2d")
    if coarse_n < 3:
        raise ValueError(f"coarse grid needs at least 3 points, got {coarse_n}")
    _check_refine_tol(refine_tol)
    if domain is None:
        domain = spec.default_domain[0]
    axis = AxisSpec("theta", domain[0], domain[1], coarse_n)
    xs = axis.points()
    fn = spec.fn
    i, kinds = _scan_1d(fn(xs))
    x = _shrink_bracket(lambda u, k: fn(u), xs[i] - axis.step, xs[i] + axis.step,
                        kinds == "max", refine_tol)
    value = fn(x)
    results = [
        CriticalPoint(location=(xv,), value=v, kind=LOCAL_MAX if kind == "max" else LOCAL_MIN,
                      axis_kinds=(kind,), kinks=(kink,))
        for xv, v, kind, kink in zip(x, value, kinds.tolist(),
                                     _kinked(fn, x, value, kink_probe).tolist())
    ]
    return _dedupe(results, refine_tol * 10.0)


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
