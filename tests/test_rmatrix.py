import numpy as np
import pytest
from hypothesis import given, strategies as st

from ybekit.braiding import bell_braid, permutation_matrix
from ybekit.rmatrix import (
    bundled_families,
    check_ybe,
    type1_r1_2x2,
    type1_r2_2x2,
    type1_r_4x4,
    type2_r1_2x2,
    type2_r2_2x2,
    type2_r_4x4,
)
from ybekit.tensor import norm_inf
from ybekit.threebody import ScatterParams, fusion_form

from reference import (COMPLEX_PERMUTATION, complex_type1_r1_2x2, complex_type1_r2_2x2,
                       complex_type1_r_4x4, complex_type2_r_4x4, conjugate_by_v, is_unitary, ket,
                       phi_from_theta, phi_from_three_thetas, wigner_d_half)

open_angles = st.floats(min_value=0.05, max_value=1.5)
any_angles = st.floats(min_value=-6.0, max_value=6.0, allow_nan=False)
small_mu = st.floats(min_value=-0.45, max_value=0.45)


def test_type2_identity_at_zero():
    assert norm_inf(type2_r_4x4(0.0) - np.eye(4)) == 0.0


def test_type2_braid_point_is_bell_matrix():
    assert norm_inf(type2_r_4x4(np.pi / 4) - bell_braid()) < 1e-15


@given(any_angles)
def test_type2_action_on_00(theta):
    out = type2_r_4x4(theta) @ ket("00")
    assert np.array_equal(out, [np.cos(theta), 0.0, 0.0, -np.sin(theta)])


@given(any_angles)
def test_type2_always_unitary(theta):
    ok, dev = is_unitary(type2_r_4x4(theta))
    assert ok, dev


def test_type1_identity_at_zero():
    assert norm_inf(type1_r_4x4(0.0) - np.eye(4)) == 0.0


def test_type1_pole_at_unit_mu():
    for mu in (1.0, -1.0):
        with pytest.raises(ValueError, match="pole"):
            type1_r_4x4(mu)


@given(st.floats(min_value=0.05, max_value=0.9))
def test_type1_never_unitary_off_zero(mu):
    ok, dev = is_unitary(type1_r_4x4(mu))
    assert not ok and dev > 1e-3


def test_type1_galilean_example():
    family = bundled_families()["type1_4x4"]
    assert check_ybe(family, 0.3, 0.4) < 1e-12


def test_type2_braid_point_ybe():
    family = bundled_families()["type2_4x4"]
    assert check_ybe(family, np.pi / 4, np.pi / 4) < 1e-13


@given(open_angles, open_angles)
def test_type2_4x4_ybe_randomized(t1, t3):
    assert check_ybe(bundled_families()["type2_4x4"], t1, t3) < 1e-12


@given(open_angles, open_angles)
def test_type2_2x2_ybe_randomized(t1, t3):
    assert check_ybe(bundled_families()["type2_2x2"], t1, t3) < 1e-12


@given(small_mu, small_mu)
def test_type1_2x2_ybe_randomized(mu, nu):
    assert check_ybe(bundled_families()["type1_2x2"], mu, nu) < 1e-12


@given(small_mu, small_mu)
def test_type1_4x4_ybe_randomized(mu, nu):
    assert check_ybe(bundled_families()["type1_4x4"], mu, nu) < 1e-12


def test_families_identity_at_zero():
    for family in bundled_families().values():
        for role in family.role_matrices(0.0):
            assert norm_inf(role - np.eye(role.shape[0])) < 1e-15


def test_ambient_dimension_consistency():
    # the 2x2 and 4x4 trigonometric families hold on the same angle triples
    rng = np.random.default_rng(5)
    fam2 = bundled_families()["type2_2x2"]
    fam4 = bundled_families()["type2_4x4"]
    for _ in range(50):
        t1, t3 = rng.uniform(0.05, 1.5, size=2)
        assert check_ybe(fam2, t1, t3) < 1e-12
        assert check_ybe(fam4, t1, t3) < 1e-12


# the Lorentzian rule has no pole: at tan poles of t1 and t3 the type-II
# residual stays at rounding level (measured: at most 1.7e-16)
TAN_POLE_PAIRS = [(np.pi / 2, 0.3), (np.pi / 2, -np.pi / 2), (np.pi / 2, np.pi / 2),
                  (-np.pi / 2, 1.2), (0.3, np.pi / 2)]


@pytest.mark.parametrize("name", ["type2_4x4", "type2_2x2"])
def test_type2_ybe_holds_at_tan_poles(name):
    family = bundled_families()[name]
    for p1, p3 in TAN_POLE_PAIRS:
        assert check_ybe(family, p1, p3) <= 1e-15


# ---------------------------------------------------------------------------
# dtypes: the real families are built in real arithmetic
# ---------------------------------------------------------------------------

REAL_BUILDERS = [(type1_r_4x4, complex_type1_r_4x4), (type1_r1_2x2, complex_type1_r1_2x2),
                 (type1_r2_2x2, complex_type1_r2_2x2), (type2_r_4x4, complex_type2_r_4x4)]
PARAMETERS = {
    "float": 0.3,
    "negative float": -0.7,
    "numpy scalar": np.float64(0.45),
    "0-d array": np.array(-0.2),
    "array": np.random.default_rng(4).uniform(-3.0, 3.0, size=(5, 3)),
    "near the pole": np.array([1 - 1e-12, -(1 - 1e-12), 1 + 1e-12, -(1 + 1e-12)]),
}


@pytest.mark.parametrize("param", PARAMETERS.values(), ids=PARAMETERS.keys())
@pytest.mark.parametrize("builder, oracle", REAL_BUILDERS, ids=lambda f: f.__name__)
def test_real_builders_keep_the_bits_of_the_complex_ones(builder, oracle, param):
    out, expected = builder(param), oracle(param)
    assert out.dtype == np.float64 and expected.dtype == np.complex128
    assert out.shape == expected.shape == np.shape(param) + expected.shape[-2:]
    assert np.all(expected.imag == 0)
    assert np.array_equal(out.view(np.uint64), expected.real.view(np.uint64))


def test_real_mixing_member_at_zero_differs_only_in_the_sign_of_its_zeros():
    # -sqrt(3) * 0.0 is -0.0, which the complex division turned into +0.0;
    # no residual reads the sign of a zero
    out, expected = type1_r2_2x2(0.0), complex_type1_r2_2x2(0.0)
    assert np.array_equal(out, expected.real) and np.array_equal(out, np.eye(2))
    assert np.signbit(out).tolist() == [[False, True], [True, False]]
    assert not np.signbit(expected.real).any()


def test_permutation_matrix_is_real_and_the_complex_families_stay_complex():
    swap = permutation_matrix()
    assert swap.dtype == np.float64
    assert np.array_equal(swap.view(np.uint64), COMPLEX_PERMUTATION.real.view(np.uint64))
    theta = np.array([0.3, -1.1])
    for matrix in (type2_r1_2x2(theta), type2_r2_2x2(theta), wigner_d_half(theta, 0.7),
                   fusion_form(ScatterParams(theta, 0.4))):
        assert matrix.dtype == np.complex128


# ---------------------------------------------------------------------------
# Wigner route
# ---------------------------------------------------------------------------

def test_wigner_identity_at_zero():
    assert norm_inf(wigner_d_half(0.0, 0.7) - np.eye(2)) == 0.0


@given(any_angles)
def test_conjugate_by_v_diagonalizes_zero_phase(theta):
    got = conjugate_by_v(wigner_d_half(theta, 0.0))
    expected = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
    assert norm_inf(got - expected) < 1e-14


@given(any_angles)
def test_conjugate_by_v_at_half_pi_phase(theta):
    got = conjugate_by_v(wigner_d_half(theta, np.pi / 2))
    expected = type2_r2_2x2(theta)
    assert norm_inf(got - expected) < 1e-14


def test_conjugate_by_v_identity_and_shape():
    assert norm_inf(conjugate_by_v(np.eye(2)) - np.eye(2)) < 1e-15
    with pytest.raises(ValueError):
        conjugate_by_v(np.eye(4))


def test_wigner_route_to_type2_pair():
    # theta = pi/4, phi = pi/2 lands on the trigonometric pair at the braid point
    a = conjugate_by_v(wigner_d_half(np.pi / 4, 0.0))
    b = conjugate_by_v(wigner_d_half(np.pi / 4, np.pi / 2))
    assert norm_inf(a - type2_r1_2x2(np.pi / 4)) < 1e-14
    assert norm_inf(b - type2_r2_2x2(np.pi / 4)) < 1e-14


def test_wigner_route_to_type1_pair():
    # theta = pi/2, phi = 2 pi/3 lands on the permutation-type 2x2 pair
    a = conjugate_by_v(wigner_d_half(np.pi / 2, 0.0))
    b = conjugate_by_v(wigner_d_half(np.pi / 2, 2 * np.pi / 3))
    assert norm_inf(a - (-1j) * np.diag([-1.0, 1.0])) < 1e-14
    expected_b = (-0.5j) * np.array([[1, -np.sqrt(3)], [-np.sqrt(3), -1]])
    assert norm_inf(b - expected_b) < 1e-14


def test_wigner_braid_relation_with_phase_constraint():
    for theta in (np.pi / 4, np.pi / 2, 1.1):
        phi = phi_from_theta(theta)
        d0 = wigner_d_half(theta, 0.0)
        dp = wigner_d_half(theta, phi)
        assert norm_inf(d0 @ dp @ d0 - dp @ d0 @ dp) < 1e-13


@given(open_angles, open_angles, open_angles)
def test_wigner_ybe_with_three_angle_phase(t1, t2, t3):
    try:
        phi = phi_from_three_thetas(t1, t2, t3)
    except ValueError:
        return  # ratio outside [-1, 1]: no solution exists there
    lhs = wigner_d_half(t1, 0) @ wigner_d_half(t2, phi) @ wigner_d_half(t3, 0)
    rhs = wigner_d_half(t3, phi) @ wigner_d_half(t2, 0) @ wigner_d_half(t1, phi)
    assert norm_inf(lhs - rhs) < 1e-12


# ---------------------------------------------------------------------------
# phase-angle formulas
# ---------------------------------------------------------------------------

def test_phi_from_theta_known_values():
    assert abs(phi_from_theta(np.pi / 4) - np.pi / 2) < 1e-12
    assert abs(phi_from_theta(np.pi / 2) - 2 * np.pi / 3) < 1e-12


def test_phi_from_theta_no_solution_near_zero():
    with pytest.raises(ValueError, match="no phase solution"):
        phi_from_theta(0.1)


@given(open_angles, open_angles)
def test_phi_galilean_triples(t1, t3):
    t2 = np.arctan(np.tan(t1) + np.tan(t3))
    assert abs(phi_from_three_thetas(t1, t2, t3) - 2 * np.pi / 3) < 1e-10


@given(open_angles, open_angles)
def test_phi_lorentzian_triples(t1, t3):
    t2 = np.arctan2(np.sin(t1 + t3), np.cos(t1 - t3))
    assert abs(phi_from_three_thetas(t1, t2, t3) - np.pi / 2) < 1e-10


@given(st.floats(min_value=0.7, max_value=1.5))
def test_phi_degenerate_triple_reduces(theta):
    assert abs(phi_from_three_thetas(theta, theta, theta) - phi_from_theta(theta)) < 1e-12


def test_phi_three_thetas_rejects_zero_tangent():
    with pytest.raises(ValueError):
        phi_from_three_thetas(0.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        phi_from_three_thetas(0.5, np.pi / 2, 0.5)
