"""Factorized three-body scattering matrix on three qubits.

The 8x8 matrix is the product R12(t1) R23(t2) R12(t3) of the trigonometric
4x4 solution (:func:`product_form`), with the angle triple on
the constraint line

    sin(t2) cos(t1 - t3) = cos(t2) sin(t1 + t3),

the Lorentzian rule of the type-II Yang-Baxter solution, whose middle angle
is :func:`ybekit.rmatrix.lorentzian`.  Two parameters (eta, beta) remain,
recovered from a constrained triple by

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

from .rmatrix import lorentzian, type2_r_4x4
from .tensor import lift, stack

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
    [-pi, pi), and keeps the bits of a value already in its range.

    The fields may also be broadcast arrays, as one grid of parameters."""

    eta: float
    beta: float

    def canonical(self) -> "ScatterParams":
        eta = self.eta % TWO_PI
        # (beta + pi) - pi would round away the low digits of a small beta;
        # + 0.0 makes a zero beta +0.0, the sign that wrapping gives it
        inside = (-math.pi <= self.beta) & (self.beta < math.pi)
        beta = np.where(inside, self.beta + 0.0, (self.beta + math.pi) % TWO_PI - math.pi)[()]
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
        """|sin(t2) cos(t1 - t3) - cos(t2) sin(t1 + t3)|: NaN, with no
        warning, where t1 + t3 or t1 - t3 overflows to infinity."""
        t1, t2, t3 = self.t1, self.t2, self.t3
        with np.errstate(over="ignore", invalid="ignore"):
            return abs(np.sin(t2) * np.cos(t1 - t3) - np.cos(t2) * np.sin(t1 + t3))

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


def constrained_triple(t1: float, t3: float) -> AngleTriple:
    """Complete (t1, t3) with the middle angle of the constraint line,
    :func:`~ybekit.rmatrix.lorentzian`; elementwise over array angles."""
    return AngleTriple(t1, lorentzian(t1, t3), t3)


def random_constrained_triple(rng: np.random.Generator, size: int) -> AngleTriple:
    """A block of ``size`` triples, drawn in one call: outer angles uniform
    in (-RANDOM_SPAN, RANDOM_SPAN), constrained middle."""
    t1, t3 = rng.uniform(-RANDOM_SPAN, RANDOM_SPAN, size=(size, 2)).T
    return constrained_triple(t1, t3)


def angles_to_params(triple: AngleTriple, tol: float = DEFAULT_CONSTRAINT_TOL) -> ScatterParams:
    """Map a constrained angle triple to (eta, beta); elementwise over array
    angles.

    Quadrants are fixed by the two-argument arctangent applied to the
    (cos, sin) pairs given in the module docstring.
    """
    triple.check(tol)
    delta = triple.t1 - triple.t3
    sigma = triple.t1 + triple.t3
    scale = np.sqrt(1.0 + np.square(np.cos(delta)))
    cos_eta = np.cos(triple.t2) * np.cos(sigma)
    sin_eta = np.sin(triple.t2) * scale
    cos_beta = math.sqrt(2.0) * np.cos(delta) / scale
    sin_beta = -np.sin(delta) / scale
    return ScatterParams(np.arctan2(sin_eta, cos_eta), np.arctan2(sin_beta, cos_beta)).canonical()


def product_form(triple: AngleTriple) -> np.ndarray:
    """The 8x8 scattering matrix as the factorized triple product.

    Array angles give a (..., 8, 8) stack: one :func:`type2_r_4x4` call
    for all factors, and stacked matmuls bit-equal to the per-triple
    products.  The angles are not checked: off the constraint line the two
    bracketing orders disagree, and :func:`angles_to_params` is the gate.
    """
    r = type2_r_4x4(np.array(np.broadcast_arrays(triple.t1, triple.t2, triple.t3)))
    r12 = lift(r[0::2], right=2)
    return r12[0] @ lift(r[1], left=2) @ r12[1]


def _trig(eta, beta):
    # the one evaluation of the trigonometry of (eta, beta)
    return np.cos(eta), np.sin(eta), np.cos(beta), np.sin(beta)


def state_coordinates(eta, beta):
    """The state's coordinates (a, b, c) = (cos(eta), cos(beta) sin(eta),
    sin(beta) sin(eta)) on |000>, (|011> + |110>)/sqrt2 and |101>, unsigned;
    elementwise over broadcast arrays."""
    ce, se, cb, sb = _trig(eta, beta)
    return ce, cb * se, sb * se


def state_from_params(params: ScatterParams) -> np.ndarray:
    """Normalized 3-qubit state generated by scattering from |000>, the
    first column of exp(-eta * n.L): a|000> - b(|011> + |110>)/sqrt2 - c|101>
    in the coordinates of :func:`state_coordinates`.  Array parameters give
    a (..., 8) stack, one state per element.
    """
    a, b, c = state_coordinates(params.eta, params.beta)
    psi = np.zeros((*np.shape(b), 8), dtype=complex)
    psi[..., 0b000] = a
    psi[..., 0b011] = psi[..., 0b110] = -b / math.sqrt(2.0)
    psi[..., 0b101] = -c
    return psi


def fusion_row(eta, beta):
    """The first row of :func:`fusion_form` as real coordinates (Re m00,
    Re m01, Im m00 = Im m01) = (cos(eta), sin(beta) sin(eta),
    (cos(beta)/sqrt2) sin(eta)), read from the 2x2 matrix, not the state."""
    ce, se, cb, sb = _trig(eta, beta)
    return ce, sb * se, cb / math.sqrt(2.0) * se


def fusion_form(params: ScatterParams) -> np.ndarray:
    """The scattering matrix reduced to the two-dimensional fusion space.

    [[cos(eta) + i cos(beta) sin(eta)/sqrt2,  (i cos(beta)/sqrt2 + sin(beta)) sin(eta)],
     [(i cos(beta)/sqrt2 - sin(beta)) sin(eta),  cos(eta) - i cos(beta) sin(eta)/sqrt2]]

    Unitary for all parameters.  Like every matrix builder here, array
    parameters give a (..., 2, 2) stack.
    """
    ce, se, cb, sb = _trig(params.eta, params.beta)
    c = cb / math.sqrt(2.0)
    return stack([[ce + 1j * c * se, (sb + 1j * c) * se],
                  [(1j * c - sb) * se, ce - 1j * c * se]])
