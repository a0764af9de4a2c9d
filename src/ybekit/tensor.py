"""Dense complex linear algebra for small multi-qubit spaces (dim <= 16).

Basis labels read left to right with the first qubit as the most
significant bit, so |011> is index 3 of an 8-dim vector; :func:`kron` and
:func:`lift` place their factors in that order.  Matrices and state vectors
are plain ``numpy`` arrays of dtype complex128.  The Pauli matrices, basis
kets and the dense oracles built on them (matrix exponentials, partial
traces) live with the tests, in ``tests/reference.py``.
"""

from __future__ import annotations

import numpy as np


# Kept for perfbench/tracing.py, which counts kron calls by name and fails without it.
def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with complex dtype."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def lift(op: np.ndarray, left: int = 1, right: int = 1) -> np.ndarray:
    """I_left (x) op (x) I_right for a (..., d, d) stack, by slice assignment.

    The entries of ``op`` are copied into zeros with their bits, where
    :func:`kron` would multiply them by 1 and by 0; the two differ only in
    the signs of zeros and where ``op`` is not finite.
    """
    op = np.asarray(op, dtype=complex)
    d = op.shape[-1]
    n = left * d * right
    out = np.zeros(op.shape[:-2] + (n, n), dtype=complex)
    blocks = out.reshape(op.shape[:-2] + (left, d, right, left, d, right))
    for i in range(left):
        for j in range(right):
            blocks[..., i, :, j, i, :, j] = op
    return out


# Kept for perfbench/tracing.py, which counts kron_all calls by name and fails without it.
def kron_all(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of any number of factors, left to right."""
    out = np.array([[1.0 + 0j]])
    for op in ops:
        out = kron(out, op)
    return out


def norm_inf(m: np.ndarray) -> float:
    """Largest entry modulus."""
    arr = np.asarray(m)
    return 0.0 if arr.size == 0 else float(np.max(np.abs(arr)))


def max_diff_up_to_phase(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Largest entry difference after aligning one global phase.

    The phase is fixed on the largest-modulus entry of ``a``; a (..., m, n)
    stack gives one difference per matrix, each with the bits of the
    2-D call.  Moduli of single entries come from ``np.hypot``, which has
    the bits of ``abs`` on one complex number where ``np.abs`` on an array
    does not.  A zero ``a`` gives ``norm_inf(b)``.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    flat_a = a.reshape(a.shape[:-2] + (-1,))
    idx = np.argmax(np.abs(flat_a), axis=-1)[..., None]
    pivot = np.take_along_axis(flat_a, idx, axis=-1)[..., 0]
    target = np.take_along_axis(b.reshape(flat_a.shape), idx, axis=-1)[..., 0]
    modulus = np.hypot(pivot.real, pivot.imag)
    phase = np.divide(target, pivot, out=np.zeros_like(target), where=modulus != 0.0)
    mag = np.hypot(phase.real, phase.imag)
    phase = np.divide(phase, mag, out=np.ones_like(phase), where=mag > 0)
    diff = np.where(modulus == 0.0, np.abs(b).max(axis=(-2, -1)),
                    np.abs(a * phase[..., None, None] - b).max(axis=(-2, -1)))
    return float(diff) if diff.ndim == 0 else diff
