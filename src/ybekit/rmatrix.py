"""Parametrized R-matrix families solving the Yang-Baxter equation.

The equation checked throughout is

    R12(p1) R23(p2) R12(p3) = R23(p3) R12(p2) R23(p1)

with the middle parameter fixed by the family's additivity rule:

* :func:`galilean`:   p2 = p1 + p3 (rational families; for angle-parametrized
  members this is tan(t2) = tan(t1) + tan(t3))
* :func:`lorentzian`: tan(t2) = (tan(t1) + tan(t3)) / (1 + tan(t1) tan(t3)),
  as t2 = arctan2(sin(t1 + t3), cos(t1 - t3)), which has no pole

Four families are bundled: the rational type-I solution and the
trigonometric type-II solution, each in its 4x4 two-qubit form and in its
2x2 fusion-space form.  Three of them are real, and their builders,
:func:`type1_r_4x4`, :func:`type1_r1_2x2`, :func:`type1_r2_2x2` and
:func:`type2_r_4x4`, return float64, so their Yang-Baxter products run in
real arithmetic; the trigonometric 2x2 pair is complex128.  The Wigner
rotation-matrix route to the same 2x2 solutions, and its phase-angle
constraints, are test oracles (``tests/reference.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .braiding import permutation_matrix
from .tensor import block_size, by_blocks, lift, stack


def _type1_scale(mu) -> np.ndarray:
    """sqrt(|1 - mu^2|); raises at the normalization pole |mu| = 1.

    The builders multiply by its reciprocal, the rounding of numpy's
    complex-by-real division that the recorded outputs were made with;
    ``/`` would round some entries apart."""
    denom = 1.0 - mu * mu
    pole = np.abs(denom) < 1e-12
    if np.any(pole):
        raise ValueError(f"normalization pole at |mu| = 1 (mu = {np.extract(pole, mu)[0]})")
    return np.sqrt(np.abs(denom))[..., None, None]


def type2_r_4x4(theta: float) -> np.ndarray:
    """Trigonometric 4x4 solution; unitary for every theta.

    At theta = pi/4 this is the Bell braid matrix.  Like every R-matrix
    builder here, array parameters give a (..., 4, 4) stack.
    """
    c, s = np.cos(theta), np.sin(theta)
    return stack([
        [c, 0, 0, s],
        [0, c, s, 0],
        [0, -s, c, 0],
        [-s, 0, 0, c],
    ])


def type1_r_4x4(mu: float) -> np.ndarray:
    """Rational 4x4 solution (I + mu*P)/sqrt(|1 - mu^2|); not unitary for mu != 0."""
    scaled_swap = np.asarray(mu)[..., None, None] * permutation_matrix()
    return (np.eye(4) + scaled_swap) * (1.0 / _type1_scale(mu))


def type1_r1_2x2(mu: float) -> np.ndarray:
    """Diagonal member of the rational 2x2 pair."""
    return stack([[1.0 - mu, 0], [0, 1.0 + mu]]) * (1.0 / _type1_scale(mu))


def type1_r2_2x2(mu: float) -> np.ndarray:
    """Mixing member of the rational 2x2 pair."""
    return stack(
        [[2 + mu, -np.sqrt(3) * mu], [-np.sqrt(3) * mu, 2 - mu]]
    ) * (1.0 / (2 * _type1_scale(mu)))


def type2_r1_2x2(theta: float) -> np.ndarray:
    """Diagonal member of the trigonometric 2x2 pair (full-angle convention)."""
    return stack([[np.exp(1j * theta), 0], [0, np.exp(-1j * theta)]])


def type2_r2_2x2(theta: float) -> np.ndarray:
    """Mixing member of the trigonometric 2x2 pair (full-angle convention)."""
    c, s = np.cos(theta), np.sin(theta)
    return stack([[c, 1j * s], [1j * s, c]])


# ---------------------------------------------------------------------------
# families and the YBE checker
# ---------------------------------------------------------------------------

def galilean(p1, p3):
    """Galilean middle parameter p1 + p3, elementwise over arrays."""
    return p1 + p3


def lorentzian(p1, p3):
    """Lorentzian middle angle, that of (cos(p1 - p3), sin(p1 + p3)), elementwise
    with no pole; also the three-body constraint line's middle angle."""
    return np.arctan2(np.sin(p1 + p3), np.cos(p1 - p3))


@dataclass(frozen=True)
class RMatrixFamily:
    """A parametrized Yang-Baxter solution with its additivity rule.

    ``rule`` is :func:`galilean` or :func:`lorentzian`.  ``evaluators`` holds
    one function for 4x4 families (both roles are the same matrix, embedded
    on neighboring qubit pairs) or two for 2x2 families (diagonal, mixing).
    """

    rule: Callable[[float, float], float]
    evaluators: tuple[Callable[[float], np.ndarray], ...]

    @property
    def dim(self) -> int:  # side of the checking space of role_matrices
        return 8 if len(self.evaluators) == 1 else 2

    def role_matrices(self, p: float) -> tuple[np.ndarray, np.ndarray]:
        """(R12, R23) at parameter p, lifted to the common checking space;
        array parameters give stacks."""
        if len(self.evaluators) == 1:
            r = self.evaluators[0](p)
            return lift(r, right=2), lift(r, left=2)
        r12, r23 = self.evaluators
        return r12(p), r23(p)


def check_ybe(family: RMatrixFamily, p1: float, p3: float) -> float:
    """Max-abs residual of the Yang-Baxter equation at (p1, middle, p3).

    Array parameters give one residual per sample, a block of
    :func:`~ybekit.tensor.block_size` samples at a time
    (:func:`~ybekit.tensor.by_blocks`): one role-matrix call on the block's
    p1, p2 and p3 (a type-I pole raises at its first sample, in that order),
    and stacked matmuls bit-equal to the per-sample products."""
    def residual(*p):
        r12, r23 = family.role_matrices(np.array(np.broadcast_arrays(*p)))
        return np.abs(r12[0] @ r23[1] @ r12[2] - r23[2] @ r12[1] @ r23[0]).max(axis=(-2, -1))

    return by_blocks(residual, p1, family.rule(p1, p3), p3, size=block_size(family.dim))[()]


def bundled_families() -> dict[str, RMatrixFamily]:
    """The four solution families shipped with the package, by name."""
    return {
        "type1_4x4": RMatrixFamily(galilean, (type1_r_4x4,)),
        "type2_4x4": RMatrixFamily(lorentzian, (type2_r_4x4,)),
        "type1_2x2": RMatrixFamily(galilean, (type1_r1_2x2, type1_r2_2x2)),
        "type2_2x2": RMatrixFamily(lorentzian, (type2_r1_2x2, type2_r2_2x2)),
    }
