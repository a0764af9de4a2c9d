"""Amplitude l1-norms, von Neumann entropies, 3-tangle and SLOCC classes.

The l1-norm of a state is the sum of amplitude moduli in the computational
basis (contrast the l2 probability normalization).  The landscapes
(:mod:`ybekit.landscape`) read real coordinates of a state through the
measures :func:`weighted_l1` and :func:`cut_entropy`, each of which also
declares its critical points on the unit sphere of its coordinates.

Entropies are in bits throughout, with 0*log(0) = 0.
:func:`entanglement_report` reads the coordinates of a scattering state
through the same measures.  The dense routes, a partial trace with an
eigensolver and the general hyperdeterminant of eight amplitudes, are the
tests' oracles (``tests/reference.py``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

CLASS_TOL = 1e-6

PRODUCT = "product"
BISEPARABLE = "biseparable"
W_CLASS = "W-class"
GHZ_CLASS = "GHZ-class"

# the kinds of a measure's critical points
LOCAL_MAX = "local-max"
LOCAL_MIN = "local-min"
SADDLE = "saddle"
RIDGE = "ridge"


def _weighted_sum(weights, terms):
    # sum_i w_i t_i left to right over the nonzero weights, multiplying by no 1
    scaled = (t if w == 1.0 else w * t for w, t in zip(weights, terms) if w != 0.0)
    return sum(scaled, next(scaled))


@dataclass(frozen=True)
class Measure:
    """A measure of an iterable of real coordinates, called as a function,
    and its critical points on the unit sphere of those coordinates.

    ``critical(scale)`` takes the coordinates x to unit vectors y,
    y_i = scale_i x_i, and returns the critical points there as rows of y,
    with the kind of each (``LOCAL_MAX``, ``LOCAL_MIN``, ``SADDLE`` or
    ``RIDGE``) and whether the measure is smooth at it."""

    read: Callable[[Iterable], float | np.ndarray]
    critical: Callable[[Sequence[float]], tuple[np.ndarray, np.ndarray, np.ndarray]]

    def __call__(self, coords):
        return self.read(coords)


def weighted_l1(*weights: float) -> Measure:
    """The measure sum_i w_i |x_i| of an iterable of real coordinates x_i,
    each standing for amplitudes whose moduli sum to w_i |x_i|.

    Its critical points follow from the face lemma.  On the unit sphere
    the measure is sum_i v_i |y_i|, v = w / scale.  On the open face where
    the coordinates in a support S are nonzero with signs s it is linear,
    with one critical point, y = s v_S / |v_S|, of value |v_S|: a smooth
    maximum within the face.  Moving a coordinate off the face raises the
    measure to first order, with a kink.  So the point is a local max when
    S holds every coordinate, a local min when S holds one, and a saddle
    otherwise."""
    def faces(scale):
        v = np.divide(weights, scale)
        if not np.all(v > 0.0):
            raise ValueError(f"the face lemma needs positive weights, got {weights}")
        signs = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=v.size)))
        signs = signs[np.any(signs != 0.0, axis=1)]
        scaled = signs * v  # +0.0 off the support
        support = np.count_nonzero(signs, axis=1)
        kinds = np.where(support == v.size, LOCAL_MAX, np.where(support == 1, LOCAL_MIN, SADDLE))
        return scaled / np.sqrt(np.sum(scaled * scaled, axis=1))[:, None], kinds, support == v.size

    return Measure(lambda coords: _weighted_sum(weights, map(np.abs, coords)), faces)


def cut_entropy(*shares: float) -> Measure:
    """The measure H(min(p, q)) of an iterable of real coordinates x_i of a
    state whose one-qubit cut is diagonal in them: p = sum_i s_i x_i^2 on
    the qubit's 0 side and q = sum_i (1 - s_i) x_i^2 on its 1 side, each
    summed on its own, so the smaller keeps its digits.

    Its critical points on the unit sphere, declared for shares (1, 0) and
    (1, 1/2, 0) in any order, are the eigenvectors +-e_i of the diagonal
    form p: a share of 0 or 1 is a local min of value 0, and a share of
    1/2 a ridge, where the maximum set p = 1/2 crosses itself.  With two
    coordinates, the four points of p = 1/2 are the maxima.  The measure
    is counted smooth at all of them."""
    def entropy(coords):
        squares = [np.square(x) for x in coords]
        return binary_entropy(np.minimum(_weighted_sum(shares, squares),
                                         _weighted_sum([1.0 - s for s in shares], squares)))

    def eigenvectors(scale):
        if sorted(shares) not in ([0.0, 1.0], [0.0, 0.5, 1.0]) or any(x != 1.0 for x in scale):
            raise ValueError(f"no critical set declared for shares {shares} on scale {scale}")
        n = len(shares)
        points = np.concatenate([np.eye(n), 0.0 - np.eye(n)])  # 0.0 - keeps the zeros +0.0
        kinds = np.where(np.tile(shares, 2) == 0.5, RIDGE, LOCAL_MIN)
        if n == 2:
            diagonals = np.array(list(itertools.product((-1.0, 1.0), repeat=2))) * math.sqrt(0.5)
            points, kinds = np.concatenate([points, diagonals]), np.append(kinds, [LOCAL_MAX] * 4)
        return points, kinds, np.ones(len(points), dtype=bool)

    return Measure(entropy, eigenvectors)


def binary_entropy(p: float | np.ndarray) -> float | np.ndarray:
    """H(p) in bits with the 0*log(0) = 0 convention, as
    -p log2(p) - (1 - p) log1p(-p) / ln 2: accurate to a few ulps for the
    smaller of the two probabilities, where 1 - p would round away its
    digits."""
    p = np.asarray(p, dtype=float)[()]  # a float stays a numpy scalar
    outside = (p < -1e-12) | (p > 1.0 + 1e-12)
    if np.count_nonzero(outside):
        raise ValueError(f"probability out of range: {np.extract(outside, p)[0]}")
    p = np.minimum(np.maximum(p, 0.0), 1.0)
    # log2(1) and log1p(0) stand in at p = 0 and p = 1; 0.0 - ... keeps H = +0.0
    return (0.0 - p * np.log2(p + (p == 0.0))
            - (1.0 - p) * np.log1p(-p + (p == 1.0)) / math.log(2.0))


# the class of a state indexed by its number of entangled cuts, then GHZ
_CLASSES = np.array([PRODUCT, BISEPARABLE, BISEPARABLE, W_CLASS, GHZ_CLASS])
# Each one-qubit cut of a|000> - b(|011> + |110>)/sqrt2 - c|101> is diagonal,
# with these 0-side shares of (a, b, c): qubits 1 and 3 are 0 on |000> and
# on half of b's pair, qubit 2 on |000> and |101>.
_CUTS = (cut_entropy(1.0, 0.5, 0.0), cut_entropy(1.0, 0.0, 1.0), cut_entropy(1.0, 0.5, 0.0))


@dataclass(frozen=True)
class EntanglementReport:
    """The measures of one three-qubit state, or of each state of a stack:
    every field, and every cut's entropy, has the shape of the stack."""

    vn_entropies: dict[int, float | np.ndarray] = field(compare=False)
    three_tangle: float | np.ndarray
    slocc_class: str | np.ndarray


def entanglement_report(coords: Iterable, tol: float = CLASS_TOL) -> EntanglementReport:
    """All measures of the state a|000> - b(|011> + |110>)/sqrt2 - c|101>
    from its coordinates (a, b, c), as
    :func:`~ybekit.threebody.state_coordinates` gives them, of one state or
    of broadcast arrays: the entropy of each single-qubit cut (keyed 0, 1,
    2), the 3-tangle 8|a b^2 c| and the SLOCC class.

    GHZ-class when the 3-tangle exceeds ``tol``; otherwise W-class when all
    three cuts carry entropy above ``tol``; otherwise biseparable or product
    by the number of zero-entropy cuts.
    """
    a, b, c = coords
    entropies = [cut((a, b, c)) for cut in _CUTS]
    tau = 8.0 * np.abs(a * b * b * c)
    index = np.where(tau > tol, 4, np.count_nonzero(np.greater(entropies, tol), axis=0))
    return EntanglementReport(vn_entropies=dict(enumerate(entropies)), three_tangle=tau,
                              slocc_class=_CLASSES[index])
