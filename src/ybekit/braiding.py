"""Temperley-Lieb and braid-group representations with relation checking.

Two bundled families:

* type-I: permutation braid, loop value d = 2, alpha = i
* type-II: Bell entangling braid, loop value d = sqrt(2), alpha = exp(3i*pi/8)

A representation stores explicit generator matrices; relation checkers
return the max-abs residual of every defining relation so that thresholds
live in the caller, not here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import lift, norm_inf

ALPHA_TYPE1 = 1j
PHASE_TYPE1 = -1j
ALPHA_TYPE2 = np.exp(3j * np.pi / 8)
PHASE_TYPE2 = np.exp(-1j * np.pi / 8)


@dataclass(frozen=True)
class TLRep:
    """Temperley-Lieb representation: generators T_1..T_{N-1} and loop value d."""

    strand_count: int
    generators: tuple[np.ndarray, ...]
    loop_value: float

    def __post_init__(self):
        if len(self.generators) != self.strand_count - 1:
            raise ValueError(
                f"{self.strand_count} strands need {self.strand_count - 1} generators, "
                f"got {len(self.generators)}"
            )
        shapes = {g.shape for g in self.generators}
        if len(shapes) != 1 or any(s[0] != s[1] for s in shapes):
            raise ValueError(f"generators must share one square shape, got {shapes}")


@dataclass(frozen=True)
class BraidRep:
    """Braid-group representation: generators B_1..B_{N-1}, optional phase alpha."""

    strand_count: int
    generators: tuple[np.ndarray, ...]
    alpha: complex | None = None

    def __post_init__(self):
        if len(self.generators) != self.strand_count - 1:
            raise ValueError(
                f"{self.strand_count} strands need {self.strand_count - 1} generators, "
                f"got {len(self.generators)}"
            )


def lift_two_site(op: np.ndarray, position: int, n_sites: int) -> np.ndarray:
    """Embed a two-site operator at (position, position+1) of an n-site chain.

    Sites are 1-based; every other site carries the identity.
    """
    if not 1 <= position <= n_sites - 1:
        raise ValueError(f"position {position} out of range for {n_sites} sites")
    return lift(op, left=2 ** (position - 1), right=2 ** (n_sites - position - 1))


def _lifted(local: np.ndarray, n_strands: int) -> tuple[np.ndarray, ...]:
    return tuple(lift_two_site(local, i, n_strands) for i in range(1, n_strands))


def tl_rep_from_local(local: np.ndarray, n_strands: int, loop_value: float) -> TLRep:
    """Lift a 4x4 two-site TL generator to an N-strand qubit chain."""
    return TLRep(n_strands, _lifted(local, n_strands), loop_value)


def braid_rep_from_local(local: np.ndarray, n_strands: int, alpha: complex | None = None) -> BraidRep:
    """Lift a 4x4 two-site braid generator to an N-strand qubit chain."""
    return BraidRep(n_strands, _lifted(local, n_strands), alpha)


def quantum_dimension(alpha: complex) -> complex:
    """Loop value associated with a unit-modulus TL parameter: -alpha^2 - alpha^-2."""
    alpha = complex(alpha)
    return -(alpha ** 2) - alpha ** -2


def braid_from_tl(alpha: complex, rep: TLRep, overall_phase: complex = 1.0,
                  tol: float = 1e-10) -> BraidRep:
    """Braid generators B_i = overall_phase * (alpha*I + alpha^-1 * T_i).

    Requires |alpha| = 1 and -alpha^2 - alpha^-2 consistent with the
    representation's loop value; phases are never applied silently.
    """
    alpha = complex(alpha)
    if abs(abs(alpha) - 1.0) > tol:
        raise ValueError(f"alpha must lie on the unit circle, |alpha| = {abs(alpha)}")
    d = quantum_dimension(alpha)
    if abs(d - rep.loop_value) > tol:
        raise ValueError(
            f"alpha is inconsistent with loop value: -a^2-a^-2 = {d}, rep has {rep.loop_value}"
        )
    dim = rep.generators[0].shape[0]
    eye = np.eye(dim, dtype=complex)
    gens = tuple(overall_phase * (alpha * eye + t / alpha) for t in rep.generators)
    return BraidRep(rep.strand_count, gens, alpha)


def check_tl_relations(rep: TLRep) -> dict[str, float]:
    """Max-abs residual of each Temperley-Lieb relation.

    Relations: T_i^2 = d T_i, T_i T_{i+1} T_i = T_i, and far commutation
    [T_i, T_j] = 0 for |i-j| > 1.
    """
    gens = rep.generators
    d = rep.loop_value
    report: dict[str, float] = {}
    for i, t in enumerate(gens, start=1):
        report[f"T{i}^2 = d*T{i}"] = norm_inf(t @ t - d * t)
    for i in range(len(gens) - 1):
        a, b = gens[i], gens[i + 1]
        report[f"T{i+1}*T{i+2}*T{i+1} = T{i+1}"] = norm_inf(a @ b @ a - a)
        report[f"T{i+2}*T{i+1}*T{i+2} = T{i+2}"] = norm_inf(b @ a @ b - b)
    for i in range(len(gens)):
        for j in range(i + 2, len(gens)):
            report[f"[T{i+1}, T{j+1}] = 0"] = norm_inf(
                gens[i] @ gens[j] - gens[j] @ gens[i]
            )
    return report


def check_braid_relations(rep: BraidRep) -> dict[str, float]:
    """Max-abs residual of braid and far-commutation relations.

    Also reports invertibility of each generator as the deviation
    ||B_i @ inv(B_i) - I||_max.
    """
    gens = rep.generators
    report: dict[str, float] = {}
    dim = gens[0].shape[0]
    eye = np.eye(dim, dtype=complex)
    for i in range(len(gens) - 1):
        a, b = gens[i], gens[i + 1]
        report[f"B{i+1}*B{i+2}*B{i+1} = B{i+2}*B{i+1}*B{i+2}"] = norm_inf(
            a @ b @ a - b @ a @ b
        )
    for i in range(len(gens)):
        for j in range(i + 2, len(gens)):
            report[f"[B{i+1}, B{j+1}] = 0"] = norm_inf(
                gens[i] @ gens[j] - gens[j] @ gens[i]
            )
    for i, g in enumerate(gens, start=1):
        report[f"B{i} invertible"] = norm_inf(g @ np.linalg.inv(g) - eye)
    return report


# ---------------------------------------------------------------------------
# bundled two-site generators
# ---------------------------------------------------------------------------

def permutation_matrix() -> np.ndarray:
    """Two-qubit swap; the type-I braid matrix."""
    return np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )


def tl_type1_local() -> np.ndarray:
    """Type-I TL generator (loop value 2); equals twice the singlet projector."""
    return np.array(
        [[0, 0, 0, 0], [0, 1, -1, 0], [0, -1, 1, 0], [0, 0, 0, 0]], dtype=complex
    )


def tl_type2_local(varphi: float = 0.0) -> np.ndarray:
    """Type-II TL generator (loop value sqrt(2)) with free phase angle varphi."""
    e_plus = np.exp(1j * varphi)
    e_minus = np.exp(-1j * varphi)
    return np.array(
        [
            [1, 0, 0, 1j * e_plus],
            [0, 1, 1j, 0],
            [0, -1j, 1, 0],
            [-1j * e_minus, 0, 0, 1],
        ],
        dtype=complex,
    ) / np.sqrt(2)


def bell_braid(varphi: float = 0.0) -> np.ndarray:
    """Type-II (Bell) braid matrix, an entangling two-qubit gate."""
    e_plus = np.exp(1j * varphi)
    e_minus = np.exp(-1j * varphi)
    return np.array(
        [
            [1, 0, 0, e_plus],
            [0, 1, 1, 0],
            [0, -1, 1, 0],
            [-e_minus, 0, 0, 1],
        ],
        dtype=complex,
    ) / np.sqrt(2)


def braid2x2_type1() -> BraidRep:
    """Two-dimensional 4-strand type-I braid representation."""
    b_odd = np.diag([-1.0 + 0j, 1.0])
    b_mid = 0.5 * np.array([[1, -np.sqrt(3)], [-np.sqrt(3), -1]], dtype=complex)
    return BraidRep(4, (b_odd, b_mid, b_odd), ALPHA_TYPE1)


def braid2x2_type2() -> BraidRep:
    """Two-dimensional 4-strand type-II braid representation."""
    b_odd = np.exp(-1j * np.pi / 4) * np.diag([1.0 + 0j, 1j])
    b_mid = np.array([[1, -1j], [-1j, 1]], dtype=complex) / np.sqrt(2)
    return BraidRep(4, (b_odd, b_mid, b_odd), ALPHA_TYPE2)


def tl2x2_type1() -> TLRep:
    """Two-dimensional 4-strand type-I TL representation (loop value 2)."""
    t_odd = np.diag([2.0 + 0j, 0.0])
    t_mid = np.array([[0.5, np.sqrt(3) / 2], [np.sqrt(3) / 2, 1.5]], dtype=complex)
    return TLRep(4, (t_odd, t_mid, t_odd), 2.0)


def tl2x2_type2() -> TLRep:
    """Two-dimensional 4-strand type-II TL representation (loop value sqrt(2))."""
    t_odd = np.diag([np.sqrt(2) + 0j, 0.0])
    t_mid = np.full((2, 2), 1 / np.sqrt(2), dtype=complex)
    return TLRep(4, (t_odd, t_mid, t_odd), np.sqrt(2))
