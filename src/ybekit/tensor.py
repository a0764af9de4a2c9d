"""Dense linear algebra for small multi-qubit spaces (dim <= 16).

Basis labels read left to right with the first qubit as the most
significant bit, so |011> is index 3 of an 8-dim vector; :func:`kron` and
:func:`lift` place their factors in that order.  Matrices and state vectors
are plain ``numpy`` arrays that take the dtype of their entries: float64
where every entry is real, complex128 otherwise, so a product of real
matrices runs in real arithmetic.  The Pauli matrices, basis
kets and the dense oracles built on them (matrix exponentials, partial
traces) live with the tests, in ``tests/reference.py``.

Every stacked evaluation of the package, a landscape over its mesh, the
Yang-Baxter residuals and the three-body products, runs through
:func:`by_blocks` in one working-set budget, :data:`STACK_BYTES`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

# Bytes of a block: 8,192 float64 values, or an (n, d, d) complex product
# stack of 1024 2x2 or 64 8x8 matrices (a reduction block's product is 8x8,
# its 16x16 lift four times that; a real stack of 64 8x8 matrices is half
# the budget): numpy's per-call cost is spread thin, and the temporaries
# stay in cache.
STACK_BYTES = 1 << 16


def block_size(dim: int) -> int:
    """Samples per block whose (n, dim, dim) complex stack fits ``STACK_BYTES``."""
    return max(1, STACK_BYTES // (16 * dim * dim))


def by_blocks(kernel: Callable[..., np.ndarray], *factors, size: int = STACK_BYTES // 8
              ) -> np.ndarray:
    """``kernel(*factors)`` for a ``kernel`` elementwise over the broadcast
    mesh of ``factors``, evaluated a block of the mesh at a time into one
    result.  The kernel may append trailing axes to each element, as a
    (..., 2, 2) stack does.

    A block is a run of at most ``size`` elements along the first axis of
    the mesh that is longer than 1; one index of that axis that holds more
    is cut the same way along the axes after it.  So the kernel's
    temporaries cover a block, not the mesh, whatever its shape.  Each
    element has the bits of one call over the whole mesh.  A mesh of at
    most ``size`` elements is one call.
    """
    mesh = np.broadcast(*factors)
    if mesh.size <= size:
        return kernel(*factors)
    axis = next(a for a, n in enumerate(mesh.shape) if n > 1)
    step = max(1, size * mesh.shape[axis] // mesh.size)
    back = mesh.nd - axis  # the axis counted from the end, as factors broadcast
    sliced = [np.ndim(f) >= back and np.shape(f)[-back] > 1 for f in factors]
    out = None
    for start in range(0, mesh.shape[axis], step):
        rows = slice(start, start + step)
        part = by_blocks(kernel, *(f[(..., rows) + (slice(None),) * (back - 1)] if cut else f
                                   for f, cut in zip(factors, sliced)), size=size)
        if out is None:
            out = np.empty(mesh.shape + part.shape[mesh.nd:], dtype=part.dtype)
        out[(slice(None),) * axis + (rows,)] = part
    return out


def stack(rows) -> np.ndarray:
    """(..., d, d) stack from d rows of d broadcastable entries: float64 when
    every entry is real, complex128 when any is complex."""
    d = len(rows)
    entries = [e for row in rows for e in row]
    out = np.empty(np.broadcast(*entries).shape + (d * d,), dtype=np.result_type(float, *entries))
    for k, e in enumerate(entries):
        out[..., k] = e
    return out.reshape(out.shape[:-1] + (d, d))


# Kept for perfbench/tracing.py, which counts kron calls by name and fails without it.
def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with complex dtype."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def lift(op: np.ndarray, left: int = 1, right: int = 1) -> np.ndarray:
    """I_left (x) op (x) I_right for a (..., d, d) stack, by slice assignment.

    The entries of ``op`` are copied into zeros with their bits, where
    :func:`kron` would multiply them by 1 and by 0; the two differ only in
    the signs of zeros and where ``op`` is not finite.  The lift keeps the
    dtype of ``op``, so a real stack stays real.
    """
    op = np.asarray(op)
    d = op.shape[-1]
    n = left * d * right
    out = np.zeros(op.shape[:-2] + (n, n), dtype=op.dtype)
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
