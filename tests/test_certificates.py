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

The two rational type-I families, R proportional to I + mu P in 4x4 form
and its 2x2 pair, solve the equation on the Galilean rule
mu2 = mu1 + mu3 as a polynomial identity in (mu1, mu3).  The roles of a
family share the normalization 1/sqrt|1 - mu^2|, so each side carries the
product of the three at mu1, mu1 + mu3 and mu3, and it cancels.

The landscapes' coordinate maps are certified the same way, in the
cosines and sines of (eta, beta): the state's coordinates are a unit
vector, the fusion row is the first row of the 2x2 fusion matrix with the
state's l1-norm, and the state's qubit-1 cut is diagonal with the
fusion matrix's |m00|^2 on it.  For any real coordinates (a, b, c), every
one-qubit cut of a|000> - b(|011> + |110>)/sqrt2 - c|101> is diagonal,
with the 0-side weights that ``entanglement_report`` reads, and the
state's hyperdeterminant gives the 3-tangle 8|a b^2 c|.

The three-body reduction is certified with a free middle angle.  The
type-II fusion basis has entries in Z[i]/sqrt8.  The lifted product
R12(t1) R23(t2) R12(t3) keeps its span, and the reduced matrix minus the
conjugated fusion form is i rho diag(1, -1).  The fusion form is read at
(cos eta, sin eta cos beta, sin eta sin beta) = (cos t2 cos(t1 + t3),
sqrt2 sin t2 cos(t1 - t3), -sin t2 sin(t1 - t3)), the map of
``angles_to_params``, and rho = sin t2 cos(t1 - t3) - cos t2 sin(t1 + t3)
is the signed constraint residual.  On the constraint line rho is 0 and
the map is a unit vector.  So the reduced matrix is the conjugated fusion
form entry by entry, with no phase between them.

The face lemma that ``extrema`` enumerates is certified for the squared
l1 weights of the registered landscapes on their unit spheres: (1, 2, 1)
for ``l1_S3``, (1, 1, 2) for ``l1_Sprime`` once the fusion row's third
coordinate is scaled by sqrt 2, and (1, 1) for ``l1_wigner``.  On each
face, the support S and signs s, the point s w_S / |w_S| is a unit vector
with that support and those signs, it meets the Lagrange condition
s_i w_i = lambda x_i on S with lambda its value, lambda^2 is the sum of
the squared weights on S (the number of nonzero amplitudes), the
Lagrangian's Hessian on the face is -lambda I with lambda > 0, and every
weight off S is positive, so each direction off the face ascends.

The symbolic matrices and maps are tied to the package: each equals its
builder at sampled angles, or at sampled mu once normalized, and
``lorentzian`` gives the angle of the pair; the face points and kinds are
the package's enumeration.
"""

import itertools


import numpy as np
import pytest
import sympy as sp

from ybekit.entanglement import binary_entropy, entanglement_report
from ybekit.fusionbasis import fusion_basis_type2, reduce_operator
from ybekit.landscape import FUNCTIONS, LOCAL_MAX, LOCAL_MIN, SADDLE
from ybekit.rmatrix import bundled_families, galilean, lorentzian
from ybekit.tensor import lift
from ybekit.threebody import (AngleTriple, ScatterParams, angles_to_params, fusion_form,
                              fusion_row, product_form, state_coordinates, state_from_params)

from reference import hyperdeterminant

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
ANGLES = [0.0, 0.3, -1.2, np.pi / 2, 2.9, -np.pi / 2]  # also sampled as mu

mu1, mu3 = sp.symbols("mu1 mu3", real=True)
SWAP = sp.Matrix([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])


def rational_4x4(mu):
    return sp.eye(4) + mu * SWAP


def rational_r1_2x2(mu):
    return sp.diag(1 - mu, 1 + mu)


def rational_r2_2x2(mu):
    return sp.Matrix([[2 + mu, -sp.sqrt(3) * mu], [-sp.sqrt(3) * mu, 2 - mu]]) / 2


# type-I family -> its (R12, R23) roles in mu with the shared normalization
# 1/sqrt|1 - mu^2| left out, and the builders they stand for
RATIONAL_ROLES = {
    "type1_4x4": ((lambda mu: sp.kronecker_product(rational_4x4(mu), sp.eye(2)),
                   lambda mu: sp.kronecker_product(sp.eye(2), rational_4x4(mu))), (rational_4x4,)),
    "type1_2x2": ((rational_r1_2x2, rational_r2_2x2), (rational_r1_2x2, rational_r2_2x2)),
}


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


@pytest.mark.parametrize("name", RATIONAL_ROLES)
def test_galilean_rule_solves_the_type1_ybe_exactly(name):
    assert bundled_families()[name].rule is galilean
    r12, r23 = RATIONAL_ROLES[name][0]
    middle = mu1 + mu3
    diff = r12(mu1) * r23(middle) * r12(mu3) - r23(mu3) * r12(middle) * r23(mu1)
    assert all(sp.expand(entry) == 0 for entry in diff)


@pytest.mark.parametrize("name", [*ROLES, *RATIONAL_ROLES])
def test_symbolic_roles_are_the_builders(name):
    """Each symbolic role is its builder at sampled angles, or at sampled mu
    once divided by the type-I normalization sqrt|1 - mu^2|."""
    trigonometric = name in ROLES
    symbolic = (ROLES if trigonometric else RATIONAL_ROLES)[name][1]
    for p in ANGLES:
        args, scale = ((np.cos(p), np.sin(p)), 1.0) if trigonometric else ((p,), np.sqrt(abs(1 - p * p)))
        for sym, built in zip(symbolic, bundled_families()[name].evaluators):
            expected = np.array(sym(*args).evalf(), dtype=complex) / scale
            assert np.max(np.abs(built(p) - expected)) <= 1e-15


def test_lorentzian_is_the_angle_of_the_middle_pair():
    t1, t3 = np.array(np.meshgrid(ANGLES, ANGLES)).reshape(2, -1)
    pair = sp.lambdify((c1, s1, c3, s3), MIDDLE[lorentzian], "numpy")
    cos_pair, sin_pair = pair(np.cos(t1), np.sin(t1), np.cos(t3), np.sin(t3))
    t2 = lorentzian(t1, t3)
    assert np.max(np.abs(np.cos(t2) * sin_pair - np.sin(t2) * cos_pair)) <= 1e-15
    assert np.all(np.cos(t2) * cos_pair + np.sin(t2) * sin_pair > 0.0)


# The landscapes' coordinate maps (ybekit.threebody) in the cosines and
# sines (ce, se) of eta and (cb, sb) of beta: the state's (a, b, c) on
# |000>, (|011> + |110>)/sqrt2 and |101>, and the fusion matrix's first row
# as (Re m00, Re m01, Im m00).
ce, se, cb, sb = sp.symbols("ce se cb sb", real=True)
TRIG_CIRCLES = [ce ** 2 + se ** 2 - 1, cb ** 2 + sb ** 2 - 1]
STATE = (ce, cb * se, sb * se)
FUSION_ROW = (ce, sb * se, cb / sp.sqrt(2) * se)
_C = cb / sp.sqrt(2)
FUSION_FORM = sp.Matrix([[ce + sp.I * _C * se, (sb + sp.I * _C) * se],
                         [(sp.I * _C - sb) * se, ce - sp.I * _C * se]])


def embedded(a, b, c):
    """The state a|000> - b(|011> + |110>)/sqrt2 - c|101>."""
    psi = sp.zeros(8, 1)
    psi[0b000], psi[0b011], psi[0b110], psi[0b101] = a, -b / sp.sqrt(2), -b / sp.sqrt(2), -c
    return psi


def test_state_coordinates_are_a_unit_vector():
    a, b, c = STATE
    assert sp.reduced(sp.expand(a ** 2 + b ** 2 + c ** 2 - 1), TRIG_CIRCLES, ce, se, cb, sb)[1] == 0


def test_fusion_row_is_fusion_forms_first_row_with_the_states_l1():
    """(Re m00, Re m01, Im m00) is the row map, Im m01 repeats Im m00, and
    the row's l1 with weights (1, 1, 2) is the state's with weights
    (1, sqrt2, 1), term by term."""
    (re00, im00), (re01, im01) = (sp.expand(m).as_real_imag() for m in FUSION_FORM[0, :])
    assert [sp.expand(x - y) for x, y in zip((re00, re01, im00, im01), FUSION_ROW + FUSION_ROW[2:])] \
        == [0, 0, 0, 0]
    (x0, x1, x2), (a, b, c) = FUSION_ROW, STATE
    assert [sp.expand(x0 - a), sp.expand(x1 - c), sp.expand(2 * x2 - sp.sqrt(2) * b)] == [0, 0, 0]
    row_l1 = sp.Abs(x0) + sp.Abs(x1) + 2 * sp.Abs(x2)
    assert sp.simplify(row_l1 - (sp.Abs(a) + sp.sqrt(2) * sp.Abs(b) + sp.Abs(c))) == 0


def test_qubit1_cut_of_the_state_is_diagonal_with_the_fusion_probability():
    """The qubit-1 reduced matrix of the embedded state is
    diag(a^2 + b^2/2, b^2/2 + c^2), the split the vn_Sprime measure reads,
    and r00 is |m00|^2 of the fusion matrix."""
    a, b, c = STATE
    halves = embedded(a, b, c).reshape(2, 4)  # rows: qubit 1 is 0, then 1
    r = (halves * halves.H).applyfunc(sp.expand)
    assert r == sp.Matrix([[sp.expand(a ** 2 + b ** 2 / 2), 0], [0, sp.expand(b ** 2 / 2 + c ** 2)]])
    m00 = FUSION_FORM[0, 0]
    assert sp.expand(m00 * sp.conjugate(m00) - r[0, 0]) == 0


# the coordinates (a, b, c) of the state, and each qubit's 0-side weight
a_, b_, c_ = sp.symbols("a b c", real=True)
ZERO_SIDE = [a_ ** 2 + b_ ** 2 / 2, a_ ** 2 + c_ ** 2, a_ ** 2 + b_ ** 2 / 2]


@pytest.mark.parametrize("qubit", range(3))
def test_each_one_qubit_cut_of_the_state_is_diagonal(qubit):
    """The reduced matrix of qubit 1, 2 or 3 pairs each amplitude where the
    qubit is 0 with the one where it is 1 and the others agree: its
    off-diagonal entry vanishes and its 0-side entry is ZERO_SIDE."""
    psi = embedded(a_, b_, c_)
    bit = 1 << (2 - qubit)
    m = sp.Matrix([[psi[x] for x in range(8) if x & bit == side] for side in (0, bit)])
    r = (m * m.H).applyfunc(sp.expand)
    assert r == sp.diag(sp.expand(ZERO_SIDE[qubit]),
                        sp.expand(a_ ** 2 + b_ ** 2 + c_ ** 2 - ZERO_SIDE[qubit]))


def test_three_tangle_of_the_state_is_8_a_b2_c():
    """4 (d1 - 2 d2 + 4 d3) = -8 a b^2 c, so 4|d1 - 2 d2 + 4 d3| = 8|a b^2 c|."""
    assert sp.expand(4 * hyperdeterminant(embedded(a_, b_, c_)) + 8 * a_ * b_ ** 2 * c_) == 0


def test_the_report_reads_the_certified_cuts_and_tangle():
    """At sampled points, each cut's entropy is H of its certified 0-side
    weight, and the 3-tangle 8|a b^2 c|, within 1e-15."""
    eta, beta = (x.ravel() for x in np.meshgrid(ANGLES, ANGLES))
    coords = tuple(state_coordinates(eta, beta))
    report = entanglement_report(coords)
    for qubit, weight in enumerate(ZERO_SIDE):
        p = sp.lambdify((a_, b_, c_), weight, "numpy")(*coords)
        want = binary_entropy(np.minimum(p, 1.0 - p))
        assert np.max(np.abs(report.vn_entropies[qubit] - want)) <= 1e-15
    tangle = sp.lambdify((a_, b_, c_), 8 * sp.Abs(a_ * b_ ** 2 * c_), "numpy")(*coords)
    assert np.max(np.abs(report.three_tangle - tangle)) <= 1e-15


def test_symbolic_maps_are_the_package_maps():
    eta, beta = (x.ravel() for x in np.meshgrid(ANGLES, ANGLES))
    params = ScatterParams(eta, beta)
    for symbolic, built in ((STATE, np.transpose(tuple(state_coordinates(eta, beta)))),
                            (FUSION_ROW, np.transpose(tuple(fusion_row(eta, beta)))),
                            (embedded(*STATE), state_from_params(params)),
                            (FUSION_FORM, fusion_form(params))):
        evaluate = sp.lambdify((ce, se, cb, sb), sp.Matrix(symbolic), "numpy")
        for k, (e, b) in enumerate(zip(eta, beta)):
            expected = evaluate(np.cos(e), np.sin(e), np.cos(b), np.sin(b))
            assert np.max(np.abs(built[k] - expected.reshape(built[k].shape))) <= 1e-15


# the three-body reduction, in the cosines and sines of a free triple
c2, s2 = sp.symbols("c2 s2", real=True)
TRIPLE = (c1, s1, c2, s2, c3, s3)
COS_SUM, COS_DIFF = c1 * c3 - s1 * s3, c1 * c3 + s1 * s3
SIN_SUM, SIN_DIFF = s1 * c3 + c1 * s3, s1 * c3 - c1 * s3
RHO = s2 * COS_DIFF - c2 * SIN_SUM
# FUSION_FORM reads sin(eta) only through sin(eta) cos(beta) and
# sin(eta) sin(beta), so setting se to 1 carries those products in cb and sb
CLOSED = FUSION_FORM.subs({ce: c2 * COS_SUM, se: 1, cb: sp.sqrt(2) * s2 * COS_DIFF,
                           sb: -s2 * SIN_DIFF}, simultaneous=True)


def exact_type2_basis():
    """e1 and e2 of fusion_basis_type2 with exact entries, Gaussian integers
    over sqrt8, each within 1e-16 of the package's."""
    vectors = []
    for v in (fusion_basis_type2().e1, fusion_basis_type2().e2):
        n = np.round(v * np.sqrt(8.0))
        assert np.max(np.abs(v - n / np.sqrt(8.0))) <= 1e-16
        vectors.append(sp.Matrix([int(x.real) + sp.I * int(x.imag) for x in n]) / sp.sqrt(8))
    return vectors


def symbolic_reduction():
    """The lifted type-II product R12(t1) R23(t2) R12(t3) on four qubits,
    and its 2x2 matrix <e_i| op |e_j> on the exact basis."""
    r12 = lambda c, s: sp.kronecker_product(r_4x4(c, s), sp.eye(4))
    r23 = lambda c, s: sp.kronecker_product(sp.eye(2), r_4x4(c, s), sp.eye(2))
    op = r12(c1, s1) * r23(c2, s2) * r12(c3, s3)
    basis = exact_type2_basis()
    return op, sp.Matrix(2, 2, lambda i, j: (basis[i].H * op * basis[j])[0]).applyfunc(sp.expand)


def test_the_reduction_is_the_conjugated_fusion_form_plus_the_constraint_residual():
    """The span is invariant, and reduced - conj(closed) = i rho diag(1, -1),
    with the middle angle free."""
    op, reduced = symbolic_reduction()
    e1, e2 = exact_type2_basis()
    for j, v in enumerate((e1, e2)):
        leak = (op * v - reduced[0, j] * e1 - reduced[1, j] * e2).applyfunc(sp.expand)
        assert leak == sp.zeros(16, 1)
    diff = reduced - CLOSED.conjugate() - sp.I * RHO * sp.diag(1, -1)
    assert all(sp.expand(entry) == 0 for entry in diff)


def test_symbolic_reduction_is_the_packages():
    """At sampled triples with a free middle angle the package's reduction
    is the symbolic one, and on the constraint line its fusion form at
    ``angles_to_params`` is the symbolic closed form, within 1e-15."""
    free = AngleTriple(*(x.ravel() for x in np.meshgrid(ANGLES, ANGLES, ANGLES)))
    t1, t3 = (x.ravel() for x in np.meshgrid(ANGLES, ANGLES))
    on_line = AngleTriple(t1, lorentzian(t1, t3), t3)
    for symbolic, triple, built in (
            (symbolic_reduction()[1], free,
             reduce_operator(lift(product_form(free), right=2), fusion_basis_type2())),
            (CLOSED, on_line, fusion_form(angles_to_params(on_line)))):
        evaluate = sp.lambdify(TRIPLE, symbolic, "numpy")
        for k, angles in enumerate(zip(triple.t1, triple.t2, triple.t3)):
            expected = evaluate(*(f(t) for t in angles for f in (np.cos, np.sin)))
            assert np.max(np.abs(built[k] - expected)) <= 1e-15


# the face lemma, for the squared weights of each l1 landscape on its sphere
SQUARED_WEIGHTS = {"l1_S3": (1, 2, 1), "l1_Sprime": (1, 1, 2), "l1_wigner": (1, 1)}


def faces(squared):
    """Each face (signs s, zero off the support) with its critical point
    and value, in exact arithmetic."""
    w = [sp.sqrt(q) for q in squared]
    for s in itertools.product((-1, 0, 1), repeat=len(w)):
        if any(s):
            norm = sp.sqrt(sum(q for q, si in zip(squared, s) if si))
            yield s, [si * wi / norm for si, wi in zip(s, w)], norm


@pytest.mark.parametrize("tag", SQUARED_WEIGHTS)
def test_face_points_meet_the_lagrange_conditions_exactly(tag):
    squared = SQUARED_WEIGHTS[tag]
    w = [sp.sqrt(q) for q in squared]
    for s, x, value in faces(squared):
        support = [i for i, si in enumerate(s) if si]
        assert sp.simplify(sum(xi ** 2 for xi in x) - 1) == 0
        assert [sp.sign(xi) for xi in x] == list(s)
        assert sp.simplify(sum(w[i] * sp.Abs(x[i]) for i in support) - value) == 0
        assert all(sp.simplify(s[i] * w[i] - value * x[i]) == 0 for i in support)
        assert sp.expand(value ** 2) == sum(squared[i] for i in support)
        assert value > 0 and all(q > 0 for q in squared)


@pytest.mark.parametrize("tag", SQUARED_WEIGHTS)
def test_the_enumeration_is_the_certified_face_set(tag):
    """The package's points on the sphere are the certified ones, within
    1e-15, with the kind the support gives: a max with every coordinate,
    a min with one, a saddle otherwise.  Counted with (-1)^(|S| - 1), the
    number of directions that descend, they sum to the Euler
    characteristic of the sphere, 1 - (-1)^n."""
    spec = FUNCTIONS[tag]
    points, kinds, smooth = spec.measure.critical(spec.chart.scale)
    squared = SQUARED_WEIGHTS[tag]
    n = len(squared)
    exact = {tuple(float(xi) for xi in x): s for s, x, _ in faces(squared)}
    assert len(points) == len(exact) == 3 ** n - 1
    euler = 0
    for point, kind, is_smooth in zip(points, kinds, smooth):
        (s,) = [s for x, s in exact.items() if np.max(np.abs(np.subtract(x, point))) <= 1e-15]
        size = sum(map(abs, s))
        assert kind == (LOCAL_MAX if size == n else LOCAL_MIN if size == 1 else SADDLE)
        assert is_smooth == (size == n)
        euler += (-1) ** (size - 1)
    assert euler == 1 - (-1) ** n
