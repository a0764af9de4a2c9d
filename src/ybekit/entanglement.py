"""Amplitude l1-norms, von Neumann entropies, 3-tangle and SLOCC classes.

The l1-norm of a state is the sum of amplitude moduli in the computational
basis (contrast the l2 probability normalization).  For the 2x2
fusion-space scattering matrix the corresponding norm sums absolute real
and imaginary parts of the first-row entries; that real/imaginary split is
exactly what makes the matrix norm agree with the state norm of the 8x8
form for every parameter choice.

Entropies are in bits throughout, with 0*log(0) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import partial_trace
from .threebody import ScatterParams, fusion_form

CLASS_TOL = 1e-6
NORM_TOL = 1e-10

PRODUCT = "product"
BISEPARABLE = "biseparable"
W_CLASS = "W-class"
GHZ_CLASS = "GHZ-class"


def l1_norm(psi: np.ndarray) -> float:
    """Sum of amplitude moduli."""
    return float(np.sum(np.abs(np.asarray(psi, dtype=complex))))


def wigner_l1(d_matrix: np.ndarray) -> float | np.ndarray:
    """Entry-modulus norm of a spin-1/2 rotation matrix: sum(|entries|)/2.

    Evaluates to |cos(theta)| + |sin(theta)| independently of the phase
    angle.  Only the 2x2 case is supported; a stack of shape (2, 2, ...)
    gives one norm per trailing index.
    """
    d_matrix = np.asarray(d_matrix, dtype=complex)
    if d_matrix.shape[:2] != (2, 2):
        raise ValueError(f"only the spin-1/2 (2x2) case is supported, got {d_matrix.shape}")
    return np.sum(np.abs(d_matrix.reshape(4, *d_matrix.shape[2:])), axis=0) / 2.0


def three_body_l1(params: ScatterParams) -> float | np.ndarray:
    """l1-norm of the three-body matrix and of its output state:

    |cos(eta)| + sqrt(2)|cos(beta) sin(eta)| + |sin(beta) sin(eta)|.
    """
    ce, se = np.cos(params.eta), np.sin(params.eta)
    cb, sb = np.cos(params.beta), np.sin(params.beta)
    return np.abs(ce) + math.sqrt(2.0) * np.abs(cb * se) + np.abs(sb * se)


def fusion_l1(params: ScatterParams) -> float | np.ndarray:
    """l1-norm of the 2x2 fusion-space matrix.

    Sums |Re| + |Im| over the first-row entries; equals
    :func:`three_body_l1` identically.
    """
    row = fusion_form(params)[0]
    return np.sum(np.abs(row.real), axis=0) + np.sum(np.abs(row.imag), axis=0)


def binary_entropy(p: float | np.ndarray) -> float | np.ndarray:
    """H(p) in bits with the 0*log(0) = 0 convention."""
    p = np.asarray(p, dtype=float)[()]  # a float stays a numpy scalar
    outside = (p < -1e-12) | (p > 1.0 + 1e-12)
    if np.count_nonzero(outside):
        raise ValueError(f"probability out of range: {np.extract(outside, p)[0]}")
    p = np.minimum(np.maximum(p, 0.0), 1.0)
    q = 1.0 - p
    # log2(1) = 0 stands in at p = 0 and q = 0; 0.0 - ... keeps H = +0.0
    return 0.0 - p * np.log2(p + (p == 0.0)) - q * np.log2(q + (q == 0.0))


def von_neumann_entropy(psi: np.ndarray, keep: list[int]) -> float:
    """Entanglement entropy (bits) of a pure state of qubits, their number
    inferred from the state length, across a bipartition.

    ``keep`` selects the qubits of the reduced density matrix.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    n = int(round(math.log2(psi.size)))
    if 2 ** n != psi.size:
        raise ValueError(f"state length {psi.size} is not a power of two")
    rho = np.outer(psi, psi.conj())
    reduced = partial_trace(rho, [2] * n, keep)
    evals = np.linalg.eigvalsh(reduced)
    out = 0.0
    for lam in evals:
        lam = float(lam.real)
        if lam > 1e-15:
            out -= lam * math.log2(lam)
    return out


def fusion_entropy(params: ScatterParams) -> float | np.ndarray:
    """Entropy (bits) of the fusion-space output amplitudes.

    Binary entropy of |first row, first entry|^2; the first row is a unit
    vector by unitarity.
    """
    top_left = fusion_form(params)[0, 0]
    return binary_entropy(np.abs(top_left) ** 2)


def three_tangle(psi: np.ndarray) -> float:
    """Residual three-qubit entanglement via the degree-4 hyperdeterminant.

    tau = 4 |d1 - 2 d2 + 4 d3| in the standard coefficient form; 1 for the
    GHZ state, 0 for the W state and every product state.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.size != 8:
        raise ValueError(f"three qubits required, got state length {psi.size}")
    c = psi.reshape(2, 2, 2)
    d1 = (
        c[0, 0, 0] ** 2 * c[1, 1, 1] ** 2
        + c[0, 0, 1] ** 2 * c[1, 1, 0] ** 2
        + c[0, 1, 0] ** 2 * c[1, 0, 1] ** 2
        + c[1, 0, 0] ** 2 * c[0, 1, 1] ** 2
    )
    d2 = (
        c[0, 0, 0] * c[1, 1, 1] * c[0, 1, 1] * c[1, 0, 0]
        + c[0, 0, 0] * c[1, 1, 1] * c[1, 0, 1] * c[0, 1, 0]
        + c[0, 0, 0] * c[1, 1, 1] * c[1, 1, 0] * c[0, 0, 1]
        + c[0, 1, 1] * c[1, 0, 0] * c[1, 0, 1] * c[0, 1, 0]
        + c[0, 1, 1] * c[1, 0, 0] * c[1, 1, 0] * c[0, 0, 1]
        + c[1, 0, 1] * c[0, 1, 0] * c[1, 1, 0] * c[0, 0, 1]
    )
    d3 = (
        c[0, 0, 0] * c[1, 1, 0] * c[1, 0, 1] * c[0, 1, 1]
        + c[1, 1, 1] * c[0, 0, 1] * c[0, 1, 0] * c[1, 0, 0]
    )
    return float(4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3))


def _require_normalized(psi: np.ndarray) -> None:
    """Raise ValueError unless psi is finite with unit l2 norm (to NORM_TOL):
    the measures below read nonsense, such as negative entropies, otherwise."""
    norm = math.sqrt(np.vdot(psi, psi).real)
    if not abs(norm - 1.0) <= NORM_TOL:  # a NaN or infinite norm fails too
        raise ValueError(f"expected a finite normalized state, got norm {norm}")


def classify_slocc(psi: np.ndarray, tol: float = CLASS_TOL) -> str:
    """SLOCC class label of a normalized three-qubit pure state.

    GHZ-class when the 3-tangle exceeds ``tol``; otherwise W-class when all
    three single-qubit cuts carry entropy above ``tol``; otherwise
    biseparable or product by the number of zero-entropy cuts.  Raises
    ValueError on a non-finite or unnormalized state.
    """
    _require_normalized(psi)
    entropies = (von_neumann_entropy(psi, [k]) for k in range(3))  # computed off GHZ only
    return _slocc_label(three_tangle(psi), entropies, tol)


def _slocc_label(tau: float, entropies, tol: float) -> str:
    """The class of a state from its 3-tangle and its three single-qubit
    cut entropies, which are read only when ``tau`` is at most ``tol``."""
    if tau > tol:
        return GHZ_CLASS
    zero_cuts = sum(1 for s in entropies if s <= tol)
    if zero_cuts == 0:
        return W_CLASS
    if zero_cuts >= 3:
        return PRODUCT
    return BISEPARABLE


@dataclass(frozen=True)
class EntanglementReport:
    """Summary of the measures computed for one three-qubit state."""

    l1: float
    vn_entropies: dict[int, float] = field(compare=False)
    three_tangle: float
    slocc_class: str


def entanglement_report(psi: np.ndarray, tol: float = CLASS_TOL) -> EntanglementReport:
    """All measures for one state: l1, per-cut entropies, 3-tangle, class.
    Raises ValueError on a non-finite or unnormalized state."""
    _require_normalized(psi)
    entropies = {k: von_neumann_entropy(psi, [k]) for k in range(3)}
    tau = three_tangle(psi)
    return EntanglementReport(l1=l1_norm(psi), vn_entropies=entropies, three_tangle=tau,
                              slocc_class=_slocc_label(tau, entropies.values(), tol))
