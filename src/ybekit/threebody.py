"""Factorized three-body scattering matrix on three qubits.

The 8x8 matrix is built two ways and cross-checked:

* product form: R12(t1) R23(t2) R12(t3) from the trigonometric 4x4
  solution at varphi = 0, with the angle triple on the constraint line

      sin(t2) cos(t1 - t3) = cos(t2) sin(t1 + t3)

* closed form: a one-parameter rotation exp(-eta * n.L) generated by three
  anticommuting 8x8 involutions L1, L2, L3 with unit vector
  n = (cos(beta)/sqrt(2), cos(beta)/sqrt(2), sin(beta)).

The pair (eta, beta) is recovered from a constrained triple by

    cos(eta) = cos(t2) cos(t1 + t3)
    sin(eta) = sin(t2) sqrt(1 + cos^2(t1 - t3))
    cos(beta) = sqrt(2) cos(t1 - t3) / sqrt(1 + cos^2(t1 - t3))
    sin(beta) = -sin(t1 - t3) / sqrt(1 + cos^2(t1 - t3))

With the package's Pauli conventions the product form equals
exp(-eta * n.L) exactly; the generator angle therefore enters the closed
form with a minus sign so that the two routes and the coefficient form of
:func:`state_from_params` all agree without residual phase juggling.

The same scattering operator has a 2x2 form acting on a two-dimensional
fusion space, see :func:`fusion_form` and :mod:`ybekit.fusionbasis`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .rmatrix import type2_r_4x4
from .tensor import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    expm_involutive,
    kron,
    kron_all,
)

TWO_PI = 2.0 * math.pi

# beta at the GHZ/W critical points: arccot(sqrt(2)) = arctan(1/sqrt(2))
BETA_STAR = math.atan(1.0 / math.sqrt(2.0))

DEFAULT_CONSTRAINT_TOL = 1e-6


class ConstraintViolation(ValueError):
    """Angle triple does not satisfy the Yang-Baxter constraint line."""

    def __init__(self, triple, residual: float, tol: float):
        self.residual = residual
        super().__init__(
            f"angle triple {triple} violates the constraint "
            f"sin(t2)cos(t1-t3) = cos(t2)sin(t1+t3): residual {residual:.3e} > tol {tol:.1e}"
        )


@dataclass(frozen=True)
class ScatterParams:
    """The two free parameters of the three-body matrix, canonicalized to
    eta in [0, 2*pi) and beta in [-pi, pi).

    The fields may also be broadcast arrays; the landscape kernels pass
    whole grids through one instance."""

    eta: float
    beta: float

    def canonical(self) -> "ScatterParams":
        eta = self.eta % TWO_PI
        beta = (self.beta + math.pi) % TWO_PI - math.pi
        return ScatterParams(eta, beta)


@dataclass(frozen=True)
class AngleTriple:
    """Three scattering angles (t1, t2, t3) subject to the constraint line."""

    t1: float
    t2: float
    t3: float

    def constraint_residual(self) -> float:
        return abs(
            math.sin(self.t2) * math.cos(self.t1 - self.t3)
            - math.cos(self.t2) * math.sin(self.t1 + self.t3)
        )

    def check(self, tol: float = DEFAULT_CONSTRAINT_TOL) -> None:
        res = self.constraint_residual()
        if res > tol:
            raise ConstraintViolation((self.t1, self.t2, self.t3), res, tol)

    def negated(self) -> "AngleTriple":
        return AngleTriple(-self.t1, -self.t2, -self.t3)


def constrained_triple(t1: float, t3: float) -> AngleTriple:
    """Complete (t1, t3) with the middle angle solving the constraint."""
    t2 = math.atan2(math.sin(t1 + t3), math.cos(t1 - t3))
    return AngleTriple(t1, t2, t3)


def random_constrained_triple(rng: np.random.Generator, span: float = 1.3) -> AngleTriple:
    """Uniformly random outer angles in (-span, span), constrained middle."""
    t1, t3 = rng.uniform(-span, span, size=2)
    return constrained_triple(float(t1), float(t3))


def angles_to_params(triple: AngleTriple, tol: float = DEFAULT_CONSTRAINT_TOL) -> ScatterParams:
    """Map a constrained angle triple to (eta, beta).

    Quadrants are fixed by the two-argument arctangent applied to the
    (cos, sin) pairs given in the module docstring.
    """
    triple.check(tol)
    delta = triple.t1 - triple.t3
    sigma = triple.t1 + triple.t3
    scale = math.sqrt(1.0 + math.cos(delta) ** 2)
    cos_eta = math.cos(triple.t2) * math.cos(sigma)
    sin_eta = math.sin(triple.t2) * scale
    cos_beta = math.sqrt(2.0) * math.cos(delta) / scale
    sin_beta = -math.sin(delta) / scale
    return ScatterParams(
        math.atan2(sin_eta, cos_eta), math.atan2(sin_beta, cos_beta)
    ).canonical()


def lambda_operators() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three 8x8 generators: mutually anticommuting, each squares to -I."""
    l1 = -1j * kron_all(SIGMA_Y, SIGMA_X, IDENTITY_2)
    l2 = -1j * kron_all(IDENTITY_2, SIGMA_Y, SIGMA_X)
    l3 = -1j * kron_all(SIGMA_Y, SIGMA_Z, SIGMA_X)
    return l1, l2, l3


def n_dot_lambda(beta: float) -> np.ndarray:
    """Unit combination n.L with n = (cos(b)/sqrt2, cos(b)/sqrt2, sin(b))."""
    l1, l2, l3 = lambda_operators()
    c = math.cos(beta) / math.sqrt(2.0)
    return c * l1 + c * l2 + math.sin(beta) * l3


def closed_form(params: ScatterParams) -> np.ndarray:
    """The 8x8 scattering matrix as a closed-form rotation; unitary.

    Equals :func:`product_form` on every constrained triple mapping to
    ``params`` (the minus sign on the rotation angle is what makes the two
    routes coincide under this package's sign conventions).
    """
    return expm_involutive(n_dot_lambda(params.beta), -params.eta)


def product_form(triple: AngleTriple | Sequence[AngleTriple],
                 tol: float = DEFAULT_CONSTRAINT_TOL) -> np.ndarray:
    """The 8x8 scattering matrix as the factorized triple product.

    A sequence of triples gives an (n, 8, 8) stack, whose stacked matmuls
    are bit-equal to the per-triple products.  Raises
    :class:`ConstraintViolation` if any triple is off the constraint line,
    where the two bracketing orders of the product would disagree.
    """
    block = [triple] if isinstance(triple, AngleTriple) else triple
    for t in block:
        t.check(tol)
    t1, t2, t3 = np.array([(t.t1, t.t2, t.t3) for t in block]).T
    r12 = lambda t: kron(type2_r_4x4(t, 0.0), IDENTITY_2)
    r23 = lambda t: kron(IDENTITY_2, type2_r_4x4(t, 0.0))
    stack = r12(t1) @ r23(t2) @ r12(t3)
    return stack[0] if block is not triple else stack


def state_from_params(params: ScatterParams) -> np.ndarray:
    """Normalized 3-qubit state generated by scattering from |000>.

    Amplitudes: cos(eta) on |000>, -cos(beta) sin(eta)/sqrt(2) on |011> and
    |110>, -sin(beta) sin(eta) on |101>; identical to closed_form @ |000>.
    """
    eta, beta = params.eta, params.beta
    psi = np.zeros(8, dtype=complex)
    psi[0b000] = math.cos(eta)
    pair_amp = -math.cos(beta) * math.sin(eta) / math.sqrt(2.0)
    psi[0b011] = pair_amp
    psi[0b110] = pair_amp
    psi[0b101] = -math.sin(beta) * math.sin(eta)
    return psi


def fusion_form(params: ScatterParams) -> np.ndarray:
    """The scattering matrix reduced to the two-dimensional fusion space.

    [[cos(eta) + i cos(beta) sin(eta)/sqrt2,  (i cos(beta)/sqrt2 + sin(beta)) sin(eta)],
     [(i cos(beta)/sqrt2 - sin(beta)) sin(eta),  cos(eta) - i cos(beta) sin(eta)/sqrt2]]

    Unitary for all parameters.  Array parameters give a stack of shape
    (2, 2, ...), one matrix per trailing index.
    """
    ce, se = np.cos(params.eta), np.sin(params.eta)
    cb, sb = np.cos(params.beta), np.sin(params.beta)
    # cb / sqrt2 is divided in reals: numpy divides a complex by a real
    # through its reciprocal, which rounds differently from Python.  The
    # complex term comes first in each sum so that float arguments stay in
    # fast Python complex arithmetic; the sums are the same bits either way.
    diag_im = 1j * (cb / math.sqrt(2.0))
    return np.array(
        [
            [diag_im * se + ce, (diag_im + sb) * se],
            [(diag_im - sb) * se, -(diag_im * se) + ce],
        ],
        dtype=complex,
    )
