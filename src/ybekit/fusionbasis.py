"""Four-strand fusion bases and two-dimensional reductions.

Both braid families leave a two-dimensional subspace of the 4-qubit chain
invariant, spanned by an orthonormal pair (e1, e2) built from entangled
two-site states:

* type-I (loop value 2): singlet pairs on sites (1,2)(3,4) and (4,1)(2,3)
* type-II (loop value sqrt(2)): phased pairs of the Ising kind

:func:`reduce_operator` extracts the 2x2 matrix of any operator that
preserves the span and reports the leakage norm otherwise.
:func:`verify_basis_reduction` cross-checks the 8x8 factorized scattering
matrix against its 2x2 closed form through this machinery.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .tensor import lift, max_diff_up_to_phase
from .threebody import (
    AngleTriple,
    DEFAULT_CONSTRAINT_TOL,
    ScatterParams,
    angles_to_params,
    fusion_form,
    product_form,
)


class LeakageError(ValueError):
    """Operator does not preserve the fusion-basis span."""

    def __init__(self, leakage: float, tol: float):
        self.leakage = leakage
        super().__init__(
            f"operator leaks out of the fusion span: norm {leakage:.3e} > tol {tol:.1e}"
        )


@dataclass(frozen=True)
class FusionBasis:
    """Orthonormal pair of 16-dim (4-qubit) vectors."""

    e1: np.ndarray
    e2: np.ndarray

    def __post_init__(self):
        for name, vec in (("e1", self.e1), ("e2", self.e2)):
            if vec.shape != (16,):
                raise ValueError(f"{name} must be a 16-dim vector, got {vec.shape}")


def two_pair_state(pair_a: tuple[int, int], state_a: np.ndarray,
                   pair_b: tuple[int, int], state_b: np.ndarray) -> np.ndarray:
    """Product of two 2-site states placed on arbitrary pairs of 4 sites.

    Site labels are 1-based and ordered: state_a's first tensor slot sits on
    pair_a[0], its second on pair_a[1] (the orientation matters for
    antisymmetric pairs such as the singlet).
    """
    sites = list(pair_a) + list(pair_b)
    if sorted(sites) != [1, 2, 3, 4]:
        raise ValueError(f"pairs {pair_a}, {pair_b} must cover sites 1..4")
    # products of numpy scalars: np.multiply.outer rounds some complex
    # products apart from them; + 0.0 turns each -0.0 into 0.0
    product = np.array([x * y for x in state_a for y in state_b], dtype=complex).reshape(2, 2, 2, 2)
    return np.moveaxis(product, range(4), [s - 1 for s in sites]).reshape(16) + 0.0


def singlet_state() -> np.ndarray:
    """(|01> - |10>)/sqrt(2)."""
    return np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)


def phased_parallel_state() -> np.ndarray:
    """(|00> - i |11>)/sqrt(2), the phased parallel pair at phase 0."""
    return np.array([1, 0, 0, -1j], dtype=complex) / np.sqrt(2)


def phased_antiparallel_state() -> np.ndarray:
    """(|01> - i |10>)/sqrt(2)."""
    return np.array([0, 1, -1j, 0], dtype=complex) / np.sqrt(2)


@functools.cache
def _shared(build) -> FusionBasis:
    """One build of a constant basis, with read-only arrays so that no
    caller can change the shared copy."""
    basis = build()
    basis.e1.setflags(write=False)
    basis.e2.setflags(write=False)
    return basis


def fusion_basis_type1() -> FusionBasis:
    """Singlet-pair basis with loop value 2; built once, read-only."""
    return _shared(_build_type1)


def fusion_basis_type2() -> FusionBasis:
    """Phased-pair basis with loop value sqrt(2), of the Bell braid at phase
    0; built once, read-only."""
    return _shared(_build_type2)


def _build_type1() -> FusionBasis:
    s = singlet_state()
    nested = two_pair_state((1, 2), s, (3, 4), s)
    crossed = two_pair_state((4, 1), s, (2, 3), s)
    return FusionBasis(nested, (2.0 * crossed - nested) / np.sqrt(3.0))


def _build_type2() -> FusionBasis:
    par = phased_parallel_state()
    anti = phased_antiparallel_state()
    e1 = (
        two_pair_state((1, 2), par, (3, 4), par)
        + two_pair_state((1, 2), anti, (3, 4), anti)
    ) / np.sqrt(2.0)
    # at phase 0 the crossed antiparallel pair drops out and e2 is
    # orthonormal to e1 as it stands
    e2 = 2.0 * two_pair_state((2, 3), par, (4, 1), par) / np.sqrt(2.0) - e1
    return FusionBasis(e1, e2)


def reduce_operator(op: np.ndarray, basis: FusionBasis, tol: float = 1e-10) -> np.ndarray:
    """2x2 matrix of an operator restricted to span{e1, e2}.

    Entry (i, j) is <e_i| Op |e_j>, so reducing the identity gives the
    identity and reduction is multiplicative over span-preserving
    operators.  A (..., 16, 16) stack reduces to a (..., 2, 2) stack.
    Raises :class:`LeakageError` when Op maps a basis vector outside the
    span by more than ``tol``, in any operator of the stack.
    """
    op = np.asarray(op, dtype=complex)
    if op.shape[-2:] != (16, 16):
        raise ValueError(f"expected a 16x16 operator, got shape {op.shape}")
    vecs = (basis.e1, basis.e2)
    reduced = np.empty(op.shape[:-2] + (2, 2), dtype=complex)
    leakage = np.zeros(op.shape[:-2])
    for j, v in enumerate(vecs):
        image = np.matmul(op, v)
        # <w|image> as a matmul with the conjugate row: the same bits as np.vdot
        coeffs = [np.matmul(w.conj(), image[..., None])[..., 0] for w in vecs]
        reduced[..., 0, j], reduced[..., 1, j] = coeffs
        residual = image - coeffs[0][..., None] * vecs[0] - coeffs[1][..., None] * vecs[1]
        leakage = np.fmax(leakage, np.linalg.norm(residual, axis=-1))
    if np.any(leakage > tol):
        raise LeakageError(float(np.max(leakage)), tol)
    return reduced


def embed_three_body(op8: np.ndarray) -> np.ndarray:
    """Lift an 8x8 operator on qubits 1-3 to the 4-qubit chain as Op (x) I;
    a (..., 8, 8) stack lifts to a (..., 16, 16) stack."""
    op8 = np.asarray(op8, dtype=complex)
    if op8.shape[-2:] != (8, 8):
        raise ValueError(f"expected an 8x8 operator, got shape {op8.shape}")
    return lift(op8, right=2)


def reduce_three_body(triple: AngleTriple, constraint_tol: float = DEFAULT_CONSTRAINT_TOL
                      ) -> tuple[np.ndarray, np.ndarray, ScatterParams, float | np.ndarray]:
    """The 8x8 factorized scattering matrix of ``triple``, lifted to four
    qubits and reduced on the type-II fusion basis; :func:`fusion_form` at
    the parameters of the triple; those parameters; and the residual
    between the two matrices.  Array angles give a (..., 2, 2) stack of
    each matrix and one residual per triple.  Raises
    :class:`ConstraintViolation` for a triple off the constraint line by
    more than ``constraint_tol``.

    The fusion-basis matrix elements realize the 2x2 solution family with
    reversed angle orientation, so the closed form is conjugated to match
    that orientation before the single global phase is aligned.
    """
    op16 = embed_three_body(product_form(triple, constraint_tol))
    reduced = reduce_operator(op16, fusion_basis_type2())
    params = angles_to_params(triple, constraint_tol)
    # fusion_form stacks its matrices over the trailing axes
    closed = np.moveaxis(fusion_form(params), (0, 1), (-2, -1))
    return reduced, closed, params, max_diff_up_to_phase(reduced, closed.conj())


def verify_basis_reduction(triple: AngleTriple,
                           constraint_tol: float = DEFAULT_CONSTRAINT_TOL) -> float | np.ndarray:
    """Residual between the reduced 8x8 product and the 2x2 closed form
    (:func:`reduce_three_body`).

    Array angles give one residual per triple.  The product, the reduction,
    the closed form and the phase alignment each run once for the whole
    block, and every residual has the bits of its triple's scalar call.
    """
    return reduce_three_body(triple, constraint_tol)[3]
