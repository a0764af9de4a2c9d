"""Exact certificates: identities the package relies on, proved in sympy
as polynomial identities instead of sampled in floats.

The Yang-Baxter equation R12(t1) R23(t2) R12(t3) = R23(t3) R12(t2) R23(t1)
of the two type-II families holds on the Lorentzian rule
:func:`ybekit.rmatrix.lorentzian`, the three-body constraint line, whose
middle angle has (cos t2, sin t2) proportional to (cos(t1 - t3),
sin(t1 + t3)).  Every type-II matrix is linear in (cos t, sin t), so each
side of the equation is linear in the middle factor, and the unnormalized
pair certifies the equation everywhere, tan poles included.  Written in
the cosines and sines (c1, s1) and (c3, s3) of the outer angles, the
difference of the two sides is a polynomial that must vanish modulo
c1^2 + s1^2 = 1 and c3^2 + s3^2 = 1.  The Galilean rule on the same
matrices is the negative control: its difference does not vanish.

The symbolic matrices are tied to the package: each equals its builder
at sampled angles, and ``lorentzian`` gives the angle of the pair.
"""

import numpy as np
import pytest
import sympy as sp

from ybekit.rmatrix import bundled_families, galilean, lorentzian

c1, s1, c3, s3 = sp.symbols("c1 s1 c3 s3", real=True)
UNIT_CIRCLES = [c1 ** 2 + s1 ** 2 - 1, c3 ** 2 + s3 ** 2 - 1]

# (cos t2, sin t2) of the middle factor, up to a positive scale
MIDDLE = {
    lorentzian: (c1 * c3 + s1 * s3, s1 * c3 + c1 * s3),  # (cos(t1 - t3), sin(t1 + t3))
    galilean: (c1 * c3 - s1 * s3, s1 * c3 + c1 * s3),  # (cos(t1 + t3), sin(t1 + t3))
}


def r_4x4(c, s):
    return sp.Matrix([[c, 0, 0, s], [0, c, s, 0], [0, -s, c, 0], [-s, 0, 0, c]])


def r1_2x2(c, s):
    return sp.diag(c + sp.I * s, c - sp.I * s)


def r2_2x2(c, s):
    return sp.Matrix([[c, sp.I * s], [sp.I * s, c]])


# family -> its (R12, R23) roles in (cos t, sin t), and the builders they stand for
ROLES = {
    "type2_4x4": ((lambda c, s: sp.kronecker_product(r_4x4(c, s), sp.eye(2)),
                   lambda c, s: sp.kronecker_product(sp.eye(2), r_4x4(c, s))), (r_4x4,)),
    "type2_2x2": ((r1_2x2, r2_2x2), (r1_2x2, r2_2x2)),
}
ANGLES = [0.0, 0.3, -1.2, np.pi / 2, 2.9, -np.pi / 2]


def ybe_remainders(name, rule):
    """Real and imaginary parts of every entry of LHS - RHS, reduced modulo
    the two unit circles."""
    r12, r23 = ROLES[name][0]
    outer1, middle, outer3 = (c1, s1), MIDDLE[rule], (c3, s3)
    diff = r12(*outer1) * r23(*middle) * r12(*outer3) - r23(*outer3) * r12(*middle) * r23(*outer1)
    parts = [part for entry in diff for part in sp.expand(entry).as_real_imag()]
    return [sp.reduced(part, UNIT_CIRCLES, c1, s1, c3, s3)[1] for part in parts]


@pytest.mark.parametrize("name", ROLES)
def test_lorentzian_rule_solves_the_type2_ybe_exactly(name):
    assert bundled_families()[name].rule is lorentzian
    assert all(r == 0 for r in ybe_remainders(name, lorentzian))


def test_galilean_rule_does_not_solve_the_type2_4x4_ybe():
    assert any(r != 0 for r in ybe_remainders("type2_4x4", galilean))


@pytest.mark.parametrize("name", ROLES)
def test_symbolic_roles_are_the_builders(name):
    symbolic = ROLES[name][1]
    for t in ANGLES:
        for sym, built in zip(symbolic, bundled_families()[name].evaluators):
            expected = np.array(sym(np.cos(t), np.sin(t)).evalf(), dtype=complex)
            assert np.max(np.abs(built(t) - expected)) <= 1e-15


def test_lorentzian_is_the_angle_of_the_middle_pair():
    t1, t3 = np.array(np.meshgrid(ANGLES, ANGLES)).reshape(2, -1)
    pair = sp.lambdify((c1, s1, c3, s3), MIDDLE[lorentzian], "numpy")
    cos_pair, sin_pair = pair(np.cos(t1), np.sin(t1), np.cos(t3), np.sin(t3))
    t2 = lorentzian(t1, t3)
    assert np.max(np.abs(np.cos(t2) * sin_pair - np.sin(t2) * cos_pair)) <= 1e-15
    assert np.all(np.cos(t2) * cos_pair + np.sin(t2) * sin_pair > 0.0)
