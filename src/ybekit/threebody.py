"""Factorized three-body scattering matrix on three qubits.

The 8x8 matrix is the product R12(t1) R23(t2) R12(t3) of the trigonometric
4x4 solution at varphi = 0 (:func:`product_form`), with the angle triple on
the constraint line

    sin(t2) cos(t1 - t3) = cos(t2) sin(t1 + t3)

Two parameters (eta, beta) remain, recovered from a constrained triple by

    cos(eta) = cos(t2) cos(t1 + t3)
    sin(eta) = sin(t2) sqrt(1 + cos^2(t1 - t3))
    cos(beta) = sqrt(2) cos(t1 - t3) / sqrt(1 + cos^2(t1 - t3))
    sin(beta) = -sin(t1 - t3) / sqrt(1 + cos^2(t1 - t3))

The product equals the rotation exp(-eta * n.L) exactly, generated by
three anticommuting 8x8 involutions with unit vector
n = (cos(beta)/sqrt(2), cos(beta)/sqrt(2), sin(beta)); the minus sign on
the angle is what makes the two agree under the Pauli conventions of the
tests, which build that rotation as an independent oracle
(``tests/reference.py``).  :func:`state_from_params` is its first column
in closed form.

The same scattering operator has a 2x2 form acting on a two-dimensional
fusion space, see :func:`fusion_form` and :mod:`ybekit.fusionbasis`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rmatrix import type2_r_4x4
from .tensor import lift

TWO_PI = 2.0 * math.pi

# beta at the GHZ/W critical points: arccot(sqrt(2)) = arctan(1/sqrt(2))
BETA_STAR = math.atan(1.0 / math.sqrt(2.0))

DEFAULT_CONSTRAINT_TOL = 1e-6
RANDOM_SPAN = 1.3  # outer angles of random_constrained_triple lie in (-1.3, 1.3)


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
    """The two free parameters of the three-body matrix, stored as given:
    only :meth:`canonical` wraps them to eta in [0, 2*pi) and beta in
    [-pi, pi).

    The fields may also be broadcast arrays; the landscape maps pass whole
    raw grids through one instance."""

    eta: float
    beta: float

    def canonical(self) -> "ScatterParams":
        eta = self.eta % TWO_PI
        beta = (self.beta + math.pi) % TWO_PI - math.pi
        return ScatterParams(eta, beta)


@dataclass(frozen=True)
class AngleTriple:
    """Three scattering angles (t1, t2, t3) subject to the constraint line.

    The fields may also be broadcast arrays, one triple per element: a
    block of triples goes through :func:`angles_to_params`,
    :func:`product_form` and the reduction check as one instance."""

    t1: float
    t2: float
    t3: float

    def constraint_residual(self) -> float:
        xp = _lib(self.t1, self.t2, self.t3)
        return abs(
            xp.sin(self.t2) * xp.cos(self.t1 - self.t3)
            - xp.cos(self.t2) * xp.sin(self.t1 + self.t3)
        )

    def check(self, tol: float = DEFAULT_CONSTRAINT_TOL) -> None:
        """Raise :class:`ConstraintViolation` for the first triple whose
        residual is not ``<= tol``; a NaN angle fails."""
        res = self.constraint_residual()
        passed = np.asarray(res <= tol)
        if not passed.all():
            k = passed.argmin()
            first = tuple(float(np.broadcast_to(t, np.shape(res)).flat[k])
                          for t in (self.t1, self.t2, self.t3))
            raise ConstraintViolation(first, float(np.ravel(res)[k]), tol)


def _lib(*angles):
    """``math`` for float angles, ``numpy`` for arrays.  Their sin, cos and
    sqrt agree bit for bit (tests/test_checks.py compares them on 100,000
    triples), and on one triple math costs a tenth as much."""
    return math if all(isinstance(a, float) for a in angles) else np


def _per_element(fn, *args):
    """``fn`` over the broadcast arguments one Python float at a time; a
    float for float arguments.  ``math.atan2`` and ``float ** 2`` round
    apart from ``np.arctan2`` and numpy's square on some inputs, and every
    triple of a block keeps the bits of its own scalar call."""
    if all(isinstance(a, float) for a in args):
        return fn(*args)
    shape = np.broadcast(*args).shape
    out = map(fn, *(np.broadcast_to(a, shape).ravel().tolist() for a in args))
    return np.fromiter(out, float, count=math.prod(shape)).reshape(shape)


def constrained_triple(t1: float, t3: float) -> AngleTriple:
    """Complete (t1, t3) with the middle angle solving the constraint;
    elementwise over array angles."""
    xp = _lib(t1, t3)
    t2 = _per_element(math.atan2, xp.sin(t1 + t3), xp.cos(t1 - t3))
    return AngleTriple(t1, t2, t3)


def random_constrained_triple(rng: np.random.Generator, size: int | None = None) -> AngleTriple:
    """Outer angles uniform in (-RANDOM_SPAN, RANDOM_SPAN), constrained middle.

    ``size`` draws a block of that many triples in one call; it takes the
    same numbers from ``rng`` as ``size`` calls without it."""
    if size is None:
        t1, t3 = rng.uniform(-RANDOM_SPAN, RANDOM_SPAN, size=2).tolist()
    else:
        t1, t3 = rng.uniform(-RANDOM_SPAN, RANDOM_SPAN, size=(size, 2)).T
    return constrained_triple(t1, t3)


def angles_to_params(triple: AngleTriple, tol: float = DEFAULT_CONSTRAINT_TOL) -> ScatterParams:
    """Map a constrained angle triple to (eta, beta); elementwise over array
    angles, with each triple's bits from a scalar call.

    Quadrants are fixed by the two-argument arctangent applied to the
    (cos, sin) pairs given in the module docstring.
    """
    triple.check(tol)
    xp = _lib(triple.t1, triple.t2, triple.t3)
    delta = triple.t1 - triple.t3
    sigma = triple.t1 + triple.t3
    scale = xp.sqrt(1.0 + _per_element(lambda c: c ** 2, xp.cos(delta)))
    cos_eta = xp.cos(triple.t2) * xp.cos(sigma)
    sin_eta = xp.sin(triple.t2) * scale
    cos_beta = math.sqrt(2.0) * xp.cos(delta) / scale
    sin_beta = -xp.sin(delta) / scale
    return ScatterParams(
        _per_element(math.atan2, sin_eta, cos_eta), _per_element(math.atan2, sin_beta, cos_beta)
    ).canonical()


def product_form(triple: AngleTriple, tol: float = DEFAULT_CONSTRAINT_TOL) -> np.ndarray:
    """The 8x8 scattering matrix as the factorized triple product.

    Array angles give a (..., 8, 8) stack, whose stacked matmuls are
    bit-equal to the per-triple products.  Raises
    :class:`ConstraintViolation` if any triple is off the constraint line,
    where the two bracketing orders of the product would disagree.
    """
    triple.check(tol)
    r12 = lambda t: lift(type2_r_4x4(t, 0.0), right=2)
    r23 = lambda t: lift(type2_r_4x4(t, 0.0), left=2)
    return r12(triple.t1) @ r23(triple.t2) @ r12(triple.t3)


def state_from_params(params: ScatterParams) -> np.ndarray:
    """Normalized 3-qubit state generated by scattering from |000>.

    Amplitudes: cos(eta) on |000>, -cos(beta) sin(eta)/sqrt(2) on |011> and
    |110>, -sin(beta) sin(eta) on |101>; the first column of exp(-eta * n.L).
    Array parameters give a (..., 8) stack, one state per element.
    """
    eta, beta = params.eta, params.beta
    xp = _lib(eta, beta)
    psi = np.zeros((*np.broadcast(eta, beta).shape, 8), dtype=complex)
    psi[..., 0b000] = xp.cos(eta)
    psi[..., 0b011] = psi[..., 0b110] = -xp.cos(beta) * xp.sin(eta) / math.sqrt(2.0)
    psi[..., 0b101] = -xp.sin(beta) * xp.sin(eta)
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
