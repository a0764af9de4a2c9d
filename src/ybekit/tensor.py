"""Dense complex linear algebra for small multi-qubit spaces (dim <= 16).

Conventions fixed once for the whole package:

* sigma_x = [[0,1],[1,0]], sigma_y = [[0,-i],[i,0]], sigma_z = [[1,0],[0,-1]]
* |0> = (1,0)^T, basis labels read left to right with the first qubit as
  the most significant bit, so |011> is index 3 of an 8-dim vector.

Matrices and state vectors are plain ``numpy`` arrays of dtype complex128.
"""

from __future__ import annotations

import numpy as np

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

ALGEBRA_TOL = 1e-12   # single algebraic identities at 64-bit precision


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


def kron_all(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of any number of factors, left to right."""
    out = np.array([[1.0 + 0j]])
    for op in ops:
        out = kron(out, op)
    return out


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m, dtype=complex).conj().T


def ket(bits: str) -> np.ndarray:
    """Computational basis state from a bit string, e.g. ket("011")."""
    if not bits or any(c not in "01" for c in bits):
        raise ValueError(f"bit string must be nonempty over {{0,1}}, got {bits!r}")
    vec = np.zeros(2 ** len(bits), dtype=complex)
    vec[int(bits, 2)] = 1.0
    return vec


def norm_inf(m: np.ndarray) -> float:
    """Largest entry modulus."""
    arr = np.asarray(m)
    return 0.0 if arr.size == 0 else float(np.max(np.abs(arr)))


def expm_involutive(m: np.ndarray, t: float) -> np.ndarray:
    """exp(t*M) in closed form for a generator satisfying M^2 = -I.

    Returns cos(t)*I + sin(t)*M.  Raises ValueError when ||M^2 + I||_max
    exceeds ``ALGEBRA_TOL`` since the closed form is then invalid.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"generator must be square, got shape {m.shape}")
    dev = norm_inf(m @ m + np.eye(m.shape[0]))
    if dev > ALGEBRA_TOL:
        raise ValueError(f"generator does not square to -I (deviation {dev:.3e})")
    return np.cos(t) * np.eye(m.shape[0], dtype=complex) + np.sin(t) * m


def expm_series(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring of the Taylor series.

    Independent oracle for :func:`expm_involutive`; makes no structural
    assumption about the generator.
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    scale = norm_inf(m)
    squarings = 0
    if scale > 0.5:
        squarings = int(np.ceil(np.log2(scale / 0.5)))
    x = m / (2 ** squarings)
    term = np.eye(n, dtype=complex)
    out = np.eye(n, dtype=complex)
    for k in range(1, 40):
        term = term @ x / k
        out = out + term
        if norm_inf(term) < 1e-20:
            break
    for _ in range(squarings):
        out = out @ out
    return out


def partial_trace(rho: np.ndarray, dims: list[int], keep: list[int]) -> np.ndarray:
    """Reduced density matrix on the ``keep`` subsystems.

    ``dims`` lists the subsystem dimensions in tensor order; ``keep`` holds
    the (0-based) indices of the subsystems to retain.
    """
    dims = [int(d) for d in dims]
    n = len(dims)
    total = int(np.prod(dims))
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (total, total):
        raise ValueError(f"density matrix shape {rho.shape} does not match dims {dims}")
    keep = sorted(set(int(k) for k in keep))
    if not keep or any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} subsystems")
    row = [chr(ord("a") + i) for i in range(n)]
    col = [chr(ord("a") + n + i) for i in range(n)]
    for j in range(n):
        if j not in keep:
            col[j] = row[j]
    out_idx = "".join(row[k] for k in keep) + "".join(col[k] for k in keep)
    sub = "".join(row) + "".join(col) + "->" + out_idx
    reduced = np.einsum(sub, rho.reshape(dims + dims))
    kept_dim = int(np.prod([dims[k] for k in keep]))
    return reduced.reshape(kept_dim, kept_dim)


def is_unitary(m: np.ndarray, tol: float = ALGEBRA_TOL) -> tuple[bool, float]:
    """Check ||M^dag M - I||_max <= tol; returns (verdict, deviation)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"unitarity check needs a square matrix, got shape {m.shape}")
    dev = norm_inf(dag(m) @ m - np.eye(m.shape[0]))
    return dev <= tol, dev


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
