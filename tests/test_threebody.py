import numpy as np
import pytest
from hypothesis import given, strategies as st

from ybekit.fusionbasis import reduce_three_body
from ybekit.rmatrix import type2_r1_2x2, type2_r2_2x2, type2_r_4x4
from ybekit.tensor import kron, norm_inf
from ybekit.threebody import (
    AngleTriple,
    BETA_STAR,
    ConstraintViolation,
    ScatterParams,
    angles_to_params,
    constrained_triple,
    fusion_form,
    product_form,
    state_from_params,
)

from reference import (IDENTITY_2, closed_form, expm_series, is_unitary, ket, lambda_operators,
                       n_dot_lambda)

etas = st.floats(min_value=-7.0, max_value=7.0, allow_nan=False)
betas = st.floats(min_value=-3.2, max_value=3.2, allow_nan=False)
outer = st.floats(min_value=-1.3, max_value=1.3)

GHZ_PARAMS = ScatterParams(np.pi / 3, BETA_STAR)
W_PARAMS = ScatterParams(np.pi / 2, BETA_STAR)
GHZ_TRIPLE = AngleTriple(0.0, np.pi / 4, np.pi / 4)
W_TRIPLE = AngleTriple(np.pi / 8, np.arctan(np.sqrt(2.0)), 3 * np.pi / 8)


def test_beta_star_value():
    assert abs(BETA_STAR - 0.6154797086703874) < 1e-15


def test_lambda_algebra():
    l1, l2, l3 = lambda_operators()
    eye = np.eye(8)
    for a in (l1, l2, l3):
        assert norm_inf(a @ a + eye) == 0.0
    assert norm_inf(l1 @ l2 + l2 @ l1) == 0.0
    assert norm_inf(l1 @ l3 + l3 @ l1) == 0.0
    assert norm_inf(l2 @ l3 + l3 @ l2) == 0.0
    assert norm_inf(l1 @ l2 - l3) == 0.0


@given(betas)
def test_n_dot_lambda_is_involutive(beta):
    m = n_dot_lambda(beta)
    assert norm_inf(m @ m + np.eye(8)) < 1e-14


def test_angles_to_params_symmetric_triple_has_zero_beta():
    params = angles_to_params(constrained_triple(0.4, 0.4))
    assert abs(params.beta) < 1e-14


def test_angles_to_params_ghz_preimage():
    params = angles_to_params(GHZ_TRIPLE)
    assert abs(params.eta - np.pi / 3) < 1e-14
    assert abs(params.beta - BETA_STAR) < 1e-14


def test_angles_to_params_w_preimage():
    assert abs(np.sin(W_TRIPLE.t2) - np.sqrt(2.0 / 3.0)) < 1e-15
    params = angles_to_params(W_TRIPLE)
    assert abs(params.eta - np.pi / 2) < 1e-14
    assert abs(params.beta - BETA_STAR) < 1e-14


def test_angles_to_params_rejects_off_constraint():
    with pytest.raises(ConstraintViolation) as err:
        angles_to_params(AngleTriple(0.1, 0.2, 0.3))
    assert err.value.residual > 0.1


def test_params_canonicalization():
    p = ScatterParams(-0.5, 3 * np.pi).canonical()
    assert 0.0 <= p.eta < 2 * np.pi
    assert -np.pi <= p.beta < np.pi
    assert abs(p.eta - (2 * np.pi - 0.5)) < 1e-12
    assert abs(p.beta - (-np.pi)) < 1e-12


@given(outer, outer)
def test_random_triples_sit_on_constraint(t1, t3):
    triple = constrained_triple(t1, t3)
    assert triple.constraint_residual() < 1e-14


def test_closed_form_identity_at_zero_eta():
    assert norm_inf(closed_form(ScatterParams(0.0, 0.3)) - np.eye(8)) == 0.0


@given(etas, betas)
def test_closed_form_unitary(eta, beta):
    ok, dev = is_unitary(closed_form(ScatterParams(eta, beta)), 1e-12)
    assert ok, dev


@given(etas, betas)
def test_closed_form_matches_series_oracle(eta, beta):
    series = expm_series(-eta * n_dot_lambda(beta))
    assert norm_inf(closed_form(ScatterParams(eta, beta)) - series) < 1e-12


@given(etas, betas)
def test_closed_form_periodic_in_eta(eta, beta):
    a = closed_form(ScatterParams(eta, beta))
    b = closed_form(ScatterParams(eta + 2 * np.pi, beta))
    assert norm_inf(a - b) < 1e-12


@given(outer, outer)
def test_round_trip_closed_equals_product(t1, t3):
    triple = constrained_triple(t1, t3)
    closed = closed_form(angles_to_params(triple))
    product = product_form(triple)
    assert norm_inf(product - closed) < 1e-12


def test_product_rejects_off_constraint_and_orderings_disagree():
    triple = AngleTriple(0.0, np.pi / 4 + 0.01, np.pi / 4)
    with pytest.raises(ConstraintViolation):
        reduce_three_body(triple)
    r12 = lambda t: kron(type2_r_4x4(t), IDENTITY_2)
    r23 = lambda t: kron(IDENTITY_2, type2_r_4x4(t))
    lhs = r12(triple.t1) @ r23(triple.t2) @ r12(triple.t3)
    rhs = r23(triple.t3) @ r12(triple.t2) @ r23(triple.t1)
    assert norm_inf(lhs - rhs) > 1e-3


def test_state_identity_at_zero_eta():
    assert norm_inf(state_from_params(ScatterParams(0.0, 0.9)) - ket("000")) == 0.0


def test_state_ghz_point_magnitudes():
    mags = np.abs(state_from_params(GHZ_PARAMS))
    expected = np.zeros(8)
    expected[[0b000, 0b011, 0b101, 0b110]] = 0.5
    assert np.allclose(mags, expected, atol=1e-12)


def test_state_w_point_magnitudes():
    mags = np.abs(state_from_params(W_PARAMS))
    expected = np.zeros(8)
    expected[[0b011, 0b101, 0b110]] = 1 / np.sqrt(3.0)
    assert np.allclose(mags, expected, atol=1e-12)


@given(etas, betas)
def test_state_is_normalized(eta, beta):
    psi = state_from_params(ScatterParams(eta, beta))
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


def test_state_stack_keeps_the_bits_of_each_call():
    rng = np.random.default_rng(3)
    eta, beta = rng.uniform(-7.0, 7.0, (30, 1)), rng.uniform(-3.2, 3.2, 20)
    stack = state_from_params(ScatterParams(eta, beta))
    assert stack.shape == (30, 20, 8)
    for i, j in np.ndindex(30, 20):
        pair = float(eta[i, 0]), float(beta[j])
        one = state_from_params(ScatterParams(*pair))
        assert stack[i, j].tobytes() == one.tobytes()
        # a 0-d and a 1-element array give the bits of the float call
        for form in (np.array, lambda t: np.array([t])):
            assert state_from_params(ScatterParams(*map(form, pair))).tobytes() == one.tobytes()


@given(etas, betas)
def test_state_equals_closed_form_action(eta, beta):
    params = ScatterParams(eta, beta)
    assert norm_inf(state_from_params(params) - closed_form(params) @ ket("000")) < 1e-12


def test_fusion_form_identity_at_zero_eta():
    assert norm_inf(fusion_form(ScatterParams(0.0, 1.1)) - np.eye(2)) == 0.0


def test_fusion_form_ghz_entry():
    m = fusion_form(GHZ_PARAMS)
    assert abs(m[0, 0] - (0.5 + 0.5j)) < 1e-14
    assert abs(abs(m[0, 0]) ** 2 - 0.5) < 1e-14


@given(etas, betas)
def test_fusion_form_unitary_unit_det(eta, beta):
    m = fusion_form(ScatterParams(eta, beta))
    ok, dev = is_unitary(m, 1e-14)
    assert ok, dev
    assert abs(abs(np.linalg.det(m)) - 1.0) < 1e-13


@given(outer, outer)
def test_fusion_form_matches_two_dim_product(t1, t3):
    # oracle: the full-angle 2x2 pair multiplied in the same bracket order
    triple = constrained_triple(t1, t3)
    product = (
        type2_r1_2x2(triple.t1) @ type2_r2_2x2(triple.t2) @ type2_r1_2x2(triple.t3)
    )
    closed = fusion_form(angles_to_params(triple))
    assert norm_inf(product - closed) < 1e-12
