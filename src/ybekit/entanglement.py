"""Amplitude l1-norms, von Neumann entropies, 3-tangle and SLOCC classes.

The l1-norm of a state is the sum of amplitude moduli in the computational
basis (contrast the l2 probability normalization).  For the 2x2
fusion-space scattering matrix the corresponding norm sums absolute real
and imaginary parts of the first-row entries; that real/imaginary split is
exactly what makes the matrix norm agree with the state norm of the 8x8
form for every parameter choice.  :func:`fusion_l1` and
:func:`fusion_entropy` are closed forms of that first row, evaluated on the
parameter arrays alone: the norm with the bits of the dense matrix, the
entropy from the two probabilities in closed form, which keeps the smaller
one's digits; the dense :func:`~ybekit.threebody.fusion_form` serves the
basis reduction and the tests.  Each kernel is one elementwise expression
over broadcast arrays; the landscape sampler bounds its working set by
calling it a block of the mesh at a time (:func:`~ybekit.tensor.by_blocks`).

Entropies are in bits throughout, with 0*log(0) = 0.  The dense route, a
partial trace and an eigensolver, is the tests' oracle
(``tests/reference.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .threebody import ScatterParams

CLASS_TOL = 1e-6
NORM_TOL = 1e-10

PRODUCT = "product"
BISEPARABLE = "biseparable"
W_CLASS = "W-class"
GHZ_CLASS = "GHZ-class"


def three_body_l1(params: ScatterParams) -> float | np.ndarray:
    """l1-norm of the three-body matrix and of its output state:

    |cos(eta)| + sqrt(2)|cos(beta) sin(eta)| + |sin(beta) sin(eta)|.
    """
    ce, se = np.cos(params.eta), np.sin(params.eta)
    cb, sb = np.cos(params.beta), np.sin(params.beta)
    return np.abs(ce) + math.sqrt(2.0) * np.abs(cb * se) + np.abs(sb * se)


def fusion_l1(params: ScatterParams) -> float | np.ndarray:
    """l1-norm of the 2x2 fusion-space matrix: |Re| + |Im| summed over its
    first row, in closed form.

    The row is (cos(eta) + i c sin(eta), (sin(beta) + i c) sin(eta)) with
    c = cos(beta)/sqrt2, so the norm is |cos(eta)| + |sin(beta) sin(eta)|
    + 2|c sin(eta)| = :func:`three_body_l1`, as 2|c| = sqrt2 |cos(beta)|.
    Each product in :func:`~ybekit.threebody.fusion_form` that feeds these
    parts has one exactly zero term, so the sum, taken in the order of its
    real then imaginary parts, has the bits of the matrix route.
    """
    ce, se = np.cos(params.eta), np.sin(params.eta)
    c, sb = np.cos(params.beta) / math.sqrt(2.0), np.sin(params.beta)
    return (np.abs(ce) + np.abs(sb * se)) + 2.0 * np.abs(c * se)


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


def fusion_entropy(params: ScatterParams) -> float | np.ndarray:
    """Entropy (bits) of the fusion-space output amplitudes.

    The first row (m00, m01) of the fusion matrix is a unit vector, with
    p = |m00|^2 = cos^2(eta) + cos^2(beta) sin^2(eta) / 2 and
    q = |m01|^2 = sin^2(eta) (1 + sin^2(beta)) / 2; both are formed in
    closed form and the smaller goes to :func:`binary_entropy`.
    """
    se2 = np.square(np.sin(params.eta))
    p = np.square(np.cos(params.eta)) + np.square(np.cos(params.beta)) * se2 / 2.0
    q = se2 * (1.0 + np.square(np.sin(params.beta))) / 2.0
    return binary_entropy(np.minimum(p, q))


# The factors of the hyperdeterminant's products as amplitude indices
# 4i + 2j + k of c[i, j, k]: d1 sums the four products of two squares, d2
# the first six 4-products and d3 the last two.
_SQUARED = np.array([[0b000, 0b001, 0b010, 0b100], [0b111, 0b110, 0b101, 0b011]])
_QUARTETS = np.array([[0b000, 0b000, 0b000, 0b011, 0b011, 0b101, 0b000, 0b111],
                      [0b111, 0b111, 0b111, 0b100, 0b100, 0b010, 0b110, 0b001],
                      [0b011, 0b101, 0b110, 0b101, 0b110, 0b110, 0b101, 0b010],
                      [0b100, 0b010, 0b001, 0b010, 0b001, 0b001, 0b011, 0b100]])


def three_tangle(psi: np.ndarray) -> float | np.ndarray:
    """Residual three-qubit entanglement via the degree-4 hyperdeterminant.

    tau = 4 |d1 - 2 d2 + 4 d3| in the standard coefficient form; 1 for the
    GHZ state, 0 for the W state and every product state.  A (..., 8)
    stack of states gives one value per state; one state is a stack of one,
    since numpy's scalar complex products round apart from its array loops.
    Each product multiplies its factors, and each sum adds its terms, left
    to right.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape[-1:] != (8,):
        raise ValueError(f"three qubits required, got states of shape {psi.shape}")
    amps = psi.reshape(-1, 8).T  # amps[4i + 2j + k, state] = c[i, j, k]
    squares = amps[_SQUARED] ** 2
    pairs = squares[0] * squares[1]
    factors = amps[_QUARTETS]
    quartets = factors[0] * factors[1] * factors[2] * factors[3]
    d1 = pairs[0] + pairs[1] + pairs[2] + pairs[3]
    d2 = quartets[0] + quartets[1] + quartets[2] + quartets[3] + quartets[4] + quartets[5]
    d3 = quartets[6] + quartets[7]
    return (4.0 * np.abs(d1 - 2.0 * d2 + 4.0 * d3)).reshape(psi.shape[:-1])[()]


# amplitude indices where qubit 1, 2 or 3 (the columns) is 0, then is 1
_ZERO = np.array([[0, 1, 2, 3], [0, 1, 4, 5], [0, 2, 4, 6]]).T
_HALVES = np.stack([_ZERO, _ZERO + [4, 2, 1]])
# the class of a state indexed by its number of entangled cuts, then GHZ
_CLASSES = np.array([PRODUCT, BISEPARABLE, BISEPARABLE, W_CLASS, GHZ_CLASS])


@dataclass(frozen=True)
class EntanglementReport:
    """The measures of one three-qubit state, or of each state of a stack:
    every field, and every cut's entropy, has the shape of the stack."""

    vn_entropies: dict[int, float | np.ndarray] = field(compare=False)
    three_tangle: float | np.ndarray
    slocc_class: str | np.ndarray


def entanglement_report(psi: np.ndarray, tol: float = CLASS_TOL) -> EntanglementReport:
    """All measures of one state or of a (..., 8) stack: the entropy of each
    single-qubit cut (keyed 0, 1, 2), 3-tangle and SLOCC class.

    GHZ-class when the 3-tangle exceeds ``tol``; otherwise W-class when all
    three cuts carry entropy above ``tol``; otherwise biseparable or product
    by the number of zero-entropy cuts.  Raises ValueError on the first
    state that is not finite with unit l2 norm (to NORM_TOL), where the
    measures read nonsense, such as negative entropies.
    """
    psi = np.asarray(psi, dtype=complex)
    norm = np.sqrt(np.sum(psi.real ** 2 + psi.imag ** 2, axis=-1))
    bad = ~(np.abs(norm - 1.0) <= NORM_TOL)  # a NaN or infinite norm fails too
    if bad.any():
        raise ValueError(f"expected a finite normalized state, got norm {np.extract(bad, norm)[0]}")
    tau = three_tangle(psi)  # which also checks the shape
    # Each qubit's 2x2 reduced matrix r, summed in one order and in real
    # arithmetic for every state, has the larger eigenvalue
    # L = (1 + sqrt((r00 - r11)^2 + 4|r01|^2)) / 2 and the smaller det(r) / L,
    # which keeps its digits near a product state, where 1 - L cancels.
    halves = psi.reshape(-1, 8).T[_HALVES]
    (x0, x1), (y0, y1) = halves.real, halves.imag
    terms = np.stack([x0 * x0 + y0 * y0, x1 * x1 + y1 * y1, x0 * x1 + y0 * y1, y0 * x1 - x0 * y1])
    r00, r11, re, im = terms[:, 0] + terms[:, 1] + terms[:, 2] + terms[:, 3]
    off = re * re + im * im  # |r01|^2
    larger = (1.0 + np.sqrt((r00 - r11) ** 2 + 4.0 * off)) / 2.0
    entropies = binary_entropy((r00 * r11 - off) / larger).reshape(3, *psi.shape[:-1])
    index = np.where(tau > tol, 4, np.count_nonzero(entropies > tol, axis=0))
    return EntanglementReport(vn_entropies=dict(enumerate(entropies)), three_tangle=tau,
                              slocc_class=_CLASSES[index])
