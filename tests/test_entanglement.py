import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ybekit.entanglement import (
    BISEPARABLE,
    GHZ_CLASS,
    PRODUCT,
    W_CLASS,
    binary_entropy,
    entanglement_report,
    fusion_entropy,
    fusion_l1,
    l1_norm,
    three_body_l1,
    three_tangle,
    wigner_l1,
)
from ybekit.rmatrix import type2_r_4x4, wigner_d_half
from ybekit.tensor import kron
from ybekit.threebody import BETA_STAR, ScatterParams, fusion_form, state_from_params

from reference import (classify_slocc, ket, scalar_three_tangle, three_tangle_by_coordinates,
                       von_neumann_entropy)

etas = st.floats(min_value=-7.0, max_value=7.0, allow_nan=False)
betas = st.floats(min_value=-3.2, max_value=3.2, allow_nan=False)
angles = st.floats(min_value=-6.0, max_value=6.0, allow_nan=False)

GHZ_PARAMS = ScatterParams(np.pi / 3, BETA_STAR)
W_PARAMS = ScatterParams(np.pi / 2, BETA_STAR)


def test_l1_basis_state():
    assert l1_norm(ket("000")) == 1.0


def test_l1_ghz_and_w_point_states():
    assert abs(l1_norm(state_from_params(GHZ_PARAMS)) - 2.0) < 1e-12
    assert abs(l1_norm(state_from_params(W_PARAMS)) - math.sqrt(3.0)) < 1e-12


@given(etas, betas, st.lists(st.floats(min_value=0, max_value=2 * np.pi),
                             min_size=8, max_size=8))
def test_l1_invariant_under_amplitude_phases(eta, beta, phases):
    psi = state_from_params(ScatterParams(eta, beta))
    rephased = psi * np.exp(1j * np.array(phases))
    assert abs(l1_norm(rephased) - l1_norm(psi)) < 1e-12


@given(angles, angles)
def test_wigner_l1_formula(theta, phi):
    value = wigner_l1(wigner_d_half(theta, phi))
    assert abs(value - (abs(np.cos(theta)) + abs(np.sin(theta)))) < 1e-12


def test_wigner_l1_values_and_domain():
    assert abs(wigner_l1(wigner_d_half(np.pi / 4, 0.3)) - math.sqrt(2.0)) < 1e-12
    assert wigner_l1(np.eye(2)) == 1.0
    with pytest.raises(ValueError, match="spin-1/2"):
        wigner_l1(np.eye(3))


def test_three_body_l1_known_values():
    assert abs(three_body_l1(GHZ_PARAMS) - 2.0) < 1e-14
    assert abs(three_body_l1(W_PARAMS) - math.sqrt(3.0)) < 1e-14
    assert three_body_l1(ScatterParams(0.0, 1.23)) == 1.0


@given(etas, betas)
def test_three_body_l1_equals_state_l1(eta, beta):
    params = ScatterParams(eta, beta)
    assert abs(three_body_l1(params) - l1_norm(state_from_params(params))) < 1e-13


@given(etas, betas)
def test_fusion_l1_matches_three_body_l1(eta, beta):
    params = ScatterParams(eta, beta)
    assert abs(fusion_l1(params) - three_body_l1(params)) < 1e-13


def test_fusion_l1_known_values():
    assert abs(fusion_l1(GHZ_PARAMS) - 2.0) < 1e-14
    assert fusion_l1(ScatterParams(0.0, 0.4)) == 1.0


def _fusion_oracle(params):
    """The matrix route: |Re| + |Im| over the first row of the dense fusion
    matrix, and the binary entropy of its first entry's squared modulus."""
    row = fusion_form(params)[0]
    l1 = np.sum(np.abs(row.real), axis=0) + np.sum(np.abs(row.imag), axis=0)
    return l1, binary_entropy(np.abs(row[0]) ** 2)


_MESH = np.meshgrid(np.random.default_rng(21).uniform(-7.0, 7.0, 150),
                    np.random.default_rng(22).uniform(-3.2, 3.2, 140), indexing="ij", sparse=True)
FUSION_POINTS = {
    "seeded-mesh": ScatterParams(*_MESH),
    "random-pairs": ScatterParams(np.random.default_rng(23).uniform(-7.0, 7.0, 5000),
                                  np.random.default_rng(24).uniform(-3.2, 3.2, 5000)),
    "ghz": GHZ_PARAMS,
    "w": W_PARAMS,
    "sin-eta-zero": ScatterParams(0.0, 0.4),
    "sin-eta-minus-zero": ScatterParams(-0.0, -1.1),
    "beta-half-pi": ScatterParams(1.3, math.pi / 2),
    "beta-minus-half-pi": ScatterParams(-2.2, -math.pi / 2),
    "eta-zero-beta-half-pi": ScatterParams(np.array([0.0, -0.0, 2.0]),
                                           np.array([math.pi / 2, -math.pi / 2, 0.0])),
    **{f"float-{k}": ScatterParams(*np.random.default_rng(k).uniform([-7.0, -3.2],
                                                                     [7.0, 3.2]).tolist())
       for k in range(5)},
}


@pytest.mark.parametrize("name", FUSION_POINTS)
def test_fusion_kernels_have_the_bits_of_the_matrix_route(name):
    """The closed forms of fusion_l1 and fusion_entropy equal the dense
    fusion_form oracle bit for bit, and float inputs give numpy floats."""
    params = FUSION_POINTS[name]
    for kernel, expected in zip((fusion_l1, fusion_entropy), _fusion_oracle(params)):
        value = kernel(params)
        assert type(value) is type(expected)
        assert np.shape(value) == np.shape(expected)
        assert np.asarray(value).tobytes() == np.asarray(expected).tobytes(), kernel.__name__
        if isinstance(params.eta, float):
            assert type(value) is np.float64


def test_l1_bounds_on_dense_grid():
    etas_grid = np.linspace(0, 2 * np.pi, 120)
    betas_grid = np.linspace(-np.pi / 2, np.pi / 2, 120)
    values = np.array(
        [[three_body_l1(ScatterParams(e, b)) for b in betas_grid] for e in etas_grid]
    )
    assert values.min() >= 1.0 - 1e-12
    assert values.max() <= 2.0 + 1e-12
    assert abs(three_body_l1(GHZ_PARAMS) - 2.0) < 1e-14


def test_vn_entropy_two_qubit_output():
    xi = type2_r_4x4(np.pi / 4, 0.0) @ ket("00")
    assert abs(von_neumann_entropy(xi, [0]) - 1.0) < 1e-12


def test_vn_entropy_product_state():
    assert von_neumann_entropy(ket("010"), [1]) < 1e-12


def test_vn_entropy_ghz_point_every_cut():
    psi = state_from_params(GHZ_PARAMS)
    for cut in range(3):
        assert abs(von_neumann_entropy(psi, [cut]) - 1.0) < 1e-12


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_vn_entropy_single_qubit_cut_range(seed):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi /= np.linalg.norm(psi)
    for cut in range(3):
        s = von_neumann_entropy(psi, [cut])
        assert -1e-12 <= s <= 1.0 + 1e-12


def test_binary_entropy_edges():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.5) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        binary_entropy(1.5)


def test_fusion_entropy_values():
    assert abs(fusion_entropy(GHZ_PARAMS) - 1.0) < 1e-12
    assert abs(fusion_entropy(W_PARAMS) - (math.log2(3.0) - 2.0 / 3.0)) < 1e-12
    assert fusion_entropy(ScatterParams(0.0, 0.8)) == 0.0


@given(etas)
def test_fusion_entropy_section_formula(eta):
    # along beta = arccot(sqrt 2) the curve is H(1/3 + (2/3) cos^2(eta))
    expected = binary_entropy(1.0 / 3.0 + (2.0 / 3.0) * math.cos(eta) ** 2)
    assert abs(fusion_entropy(ScatterParams(eta, BETA_STAR)) - expected) < 1e-12


@given(etas, betas)
def test_fusion_entropy_range(eta, beta):
    assert 0.0 <= fusion_entropy(ScatterParams(eta, beta)) <= 1.0 + 1e-12


def test_three_tangle_ghz_point():
    assert abs(three_tangle(state_from_params(GHZ_PARAMS)) - 1.0) < 1e-12


def test_three_tangle_standard_ghz():
    psi = (ket("000") + ket("111")) / np.sqrt(2)
    assert abs(three_tangle(psi) - 1.0) < 1e-14


def test_three_tangle_w_point_and_product():
    assert three_tangle(state_from_params(W_PARAMS)) < 1e-12
    assert three_tangle(ket("000")) == 0.0


@given(st.lists(st.floats(min_value=0, max_value=2 * np.pi), min_size=6, max_size=6))
def test_three_tangle_invariant_under_local_phase_gates(phases):
    psi = state_from_params(GHZ_PARAMS)
    gates = [np.diag([np.exp(1j * phases[2 * k]), np.exp(1j * phases[2 * k + 1])])
             for k in range(3)]
    op = kron(kron(gates[0], gates[1]), gates[2])
    assert abs(three_tangle(op @ psi) - three_tangle(psi)) < 1e-9


def test_three_tangle_requires_three_qubits():
    with pytest.raises(ValueError):
        three_tangle(ket("00"))


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_three_tangle_range_on_random_states(seed):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi /= np.linalg.norm(psi)
    tau = three_tangle(psi)
    assert -1e-9 <= tau <= 1.0 + 1e-9


def test_classify_ghz_and_w():
    assert classify_slocc(state_from_params(GHZ_PARAMS)) == GHZ_CLASS
    assert classify_slocc(state_from_params(W_PARAMS)) == W_CLASS


def test_classify_biseparable_and_product():
    bell = (ket("00") + ket("11")) / np.sqrt(2)
    assert classify_slocc(kron(ket("0").reshape(2, 1), bell.reshape(4, 1)).reshape(-1)) == BISEPARABLE
    assert classify_slocc(ket("010")) == PRODUCT


def test_entanglement_report_fields():
    report = entanglement_report(state_from_params(GHZ_PARAMS))
    assert abs(report.l1 - 2.0) < 1e-12
    assert report.slocc_class == GHZ_CLASS
    assert set(report.vn_entropies) == {0, 1, 2}
    assert abs(report.three_tangle - 1.0) < 1e-9


@pytest.mark.parametrize("psi", [
    np.full(8, np.nan, dtype=complex),
    np.array([np.inf, 0, 0, 0, 0, 0, 0, 0], dtype=complex),
    2.0 * ket("000"),
    (1.0 + 1e-9) * ket("000"),
], ids=["nan", "inf", "norm-2", "norm-1+1e-9"])
def test_non_finite_or_unnormalized_state_is_rejected(psi):
    # unchecked, an all-NaN state read "product" and 2|000> read entropies
    # of -8 bits with class "product"
    with pytest.raises(ValueError, match="normalized"):
        classify_slocc(psi)
    with pytest.raises(ValueError, match="normalized"):
        entanglement_report(psi)


def test_state_within_norm_tolerance_is_accepted():
    assert classify_slocc((1.0 + 1e-12) * ket("000")) == PRODUCT


def _random_states(seed, n):
    """n seeded random normalized three-qubit states, complex amplitudes."""
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal((n, 8)) + 1j * rng.standard_normal((n, 8))
    return psi / np.linalg.norm(psi, axis=-1, keepdims=True)


def _scattering_states(seed, n):
    """n output states at seeded random (eta, beta), and the parameters."""
    rng = np.random.default_rng(seed)
    params = ScatterParams(rng.uniform(-7.0, 7.0, n), rng.uniform(-3.2, 3.2, n))
    return state_from_params(params), params


STACKS = {"random": _random_states(11, 400), "scattering": _scattering_states(12, 400)[0]}


@pytest.mark.parametrize("kind", STACKS)
def test_stacked_report_gives_each_state_the_bits_of_its_own_call(kind):
    stack = STACKS[kind].reshape(20, 20, 8)
    report = entanglement_report(stack)
    assert report.l1.shape == report.three_tangle.shape == report.slocc_class.shape == (20, 20)
    assert sorted(report.vn_entropies) == [0, 1, 2]
    for index in np.ndindex(20, 20):
        one = entanglement_report(stack[index])
        assert report.l1[index] == one.l1
        assert report.three_tangle[index] == one.three_tangle
        assert report.slocc_class[index] == one.slocc_class
        assert [report.vn_entropies[k][index] for k in range(3)] \
            == [one.vn_entropies[k] for k in range(3)]
    assert np.array_equal(classify_slocc(stack), report.slocc_class)
    assert np.array_equal(three_tangle(stack), report.three_tangle)


def test_report_of_an_empty_stack_is_empty():
    report = entanglement_report(np.zeros((0, 8), dtype=complex))
    assert report.slocc_class.shape == report.l1.shape == report.vn_entropies[2].shape == (0,)


@pytest.mark.parametrize("kind", STACKS)
def test_cut_entropies_agree_with_the_dense_oracle(kind):
    """The closed-form 2x2 spectra against the partial trace and
    eigensolver of :func:`von_neumann_entropy`."""
    stack = STACKS[kind]
    entropies = entanglement_report(stack).vn_entropies
    for n, psi in enumerate(stack):
        for k in range(3):
            assert abs(entropies[k][n] - von_neumann_entropy(psi, [k])) <= 1e-14


def test_three_tangle_keeps_the_scalar_bits_on_scattering_states():
    stack = STACKS["scattering"]
    assert three_tangle(stack).tolist() == [scalar_three_tangle(psi) for psi in stack]


TANGLE_STATES = {
    **STACKS,
    "random-3d": STACKS["random"].reshape(20, 20, 8),
    "scattering-at-points": state_from_params(ScatterParams(np.array([np.pi / 3, np.pi / 2, 0.0]),
                                                            np.full(3, BETA_STAR))),
}
SINGLE_STATES = {
    "ghz": (ket("000") + ket("111")) / math.sqrt(2.0),
    "w": (ket("001") + ket("010") + ket("100")) / math.sqrt(3.0),
    "product": ket("010"),
    "ghz-point": state_from_params(GHZ_PARAMS),
    "w-point": state_from_params(W_PARAMS),
    **{f"random-{n}": psi for n, psi in enumerate(STACKS["random"][:40])},
    **{f"scattering-{n}": psi for n, psi in enumerate(STACKS["scattering"][:40])},
}


@pytest.mark.parametrize("kind", TANGLE_STATES)
def test_three_tangle_of_a_stack_has_the_bits_of_the_coordinate_form(kind):
    stack = TANGLE_STATES[kind]
    tau = three_tangle(stack)
    assert tau.shape == stack.shape[:-1]
    assert tau.tobytes() == three_tangle_by_coordinates(stack).tobytes()


def test_three_tangle_of_one_state_has_the_bits_of_the_coordinate_form():
    for name, psi in SINGLE_STATES.items():
        tau, expected = three_tangle(psi), three_tangle_by_coordinates(psi)
        assert type(tau) is type(expected) is np.float64, name
        assert tau.tobytes() == expected.tobytes(), name


@pytest.mark.parametrize("bad", [np.full(8, np.nan, dtype=complex), 2.0 * ket("000"),
                                 (1.0 + 1e-9) * ket("000")], ids=["nan", "norm-2", "norm-1+1e-9"])
def test_stack_with_one_bad_state_is_rejected(bad):
    stack = STACKS["scattering"][:50].copy()
    stack[37] = bad
    with pytest.raises(ValueError, match="normalized"):
        entanglement_report(stack)
    with pytest.raises(ValueError, match="normalized"):
        classify_slocc(stack.reshape(5, 10, 8))


def test_scattering_cut_entropies_are_the_fusion_entropy_and_its_partner():
    """The paper identity: qubits 1 and 3 of the output state carry the
    fusion-space entropy vn_Sprime, and qubit 2 carries
    H(cos^2 eta + sin^2 beta sin^2 eta)."""
    eta, beta = np.meshgrid(np.linspace(0.0, 2.0 * np.pi, 73),
                            np.linspace(-np.pi / 2, np.pi / 2, 49), indexing="ij")
    params = ScatterParams(eta, beta)
    entropies = entanglement_report(state_from_params(params)).vn_entropies
    fusion = fusion_entropy(params)
    partner = binary_entropy(np.cos(eta) ** 2 + np.sin(beta) ** 2 * np.sin(eta) ** 2)
    assert np.max(np.abs(entropies[0] - fusion)) <= 1e-14
    assert np.max(np.abs(entropies[2] - fusion)) <= 1e-14
    assert np.max(np.abs(entropies[1] - partner)) <= 1e-14


@pytest.mark.parametrize("eta", [1e-8, 1e-6, 1e-3, np.pi - 1e-7])
def test_cut_entropies_keep_their_digits_near_a_product_state(eta):
    """Near |000> each cut's smaller eigenvalue is tiny: taken as 1 less
    the larger it cancels to a few correct digits; as det(r) over the
    larger it keeps them.  The closed form here is p^2 + q^2 for qubits 1
    and 3 and 2 p^2 for qubit 2."""
    beta = np.linspace(-1.5, 1.5, 31)
    entropies = entanglement_report(state_from_params(ScatterParams(eta, beta))).vn_entropies
    pair, lone = np.cos(beta) * np.sin(eta) / math.sqrt(2.0), np.sin(beta) * np.sin(eta)
    small = [pair ** 2 + lone ** 2, 2.0 * pair ** 2, pair ** 2 + lone ** 2]
    for k in range(3):
        want = binary_entropy(small[k])
        assert np.all(np.abs(entropies[k] - want) <= 1e-12 * want), k
