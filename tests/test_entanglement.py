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
    three_body_l1,
    three_tangle,
)
from ybekit.rmatrix import type2_r_4x4, wigner_d_half
from ybekit.tensor import kron
from ybekit.threebody import BETA_STAR, ScatterParams, fusion_form, state_from_params

from reference import classify_slocc, ket, l1_norm, von_neumann_entropy, wigner_l1

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
    assert type(three_body_l1(ScatterParams(0.7, -0.4))) is np.float64


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
    row = fusion_form(params)[..., 0, :]
    l1 = np.sum(np.abs(row.real), axis=-1) + np.sum(np.abs(row.imag), axis=-1)
    return l1, binary_entropy(np.abs(row[..., 0]) ** 2)


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


# The matrix route's entropy rounds p = |m00|^2 near 1, where the slope
# log2((1 - p)/p) of H grows: 7.9e-15 at most on FUSION_POINTS.  The
# kernel's own accuracy is held against mpmath (test_accuracy.py).
FUSION_ENTROPY_TOL = 2e-14


@pytest.mark.parametrize("name", FUSION_POINTS)
def test_fusion_kernels_have_the_bits_of_the_matrix_route(name):
    """The closed form of fusion_l1 equals the dense fusion_form oracle bit
    for bit, fusion_entropy to ``FUSION_ENTROPY_TOL``; both have its type
    and shape, and float inputs give numpy floats."""
    params = FUSION_POINTS[name]
    (l1, entropy), oracle = (fusion_l1(params), fusion_entropy(params)), _fusion_oracle(params)
    for value, expected in zip((l1, entropy), oracle):
        assert type(value) is type(expected)
        assert np.shape(value) == np.shape(expected)
        if isinstance(params.eta, float):
            assert type(value) is np.float64
    assert np.asarray(l1).tobytes() == np.asarray(oracle[0]).tobytes()
    assert np.max(np.abs(entropy - oracle[1])) <= FUSION_ENTROPY_TOL


_RNG = np.random.default_rng(31)
_LONG = _RNG.uniform(-7.0, 7.0, 2001)
_ETA, _BETA = _RNG.uniform(-7.0, 7.0, 61), _RNG.uniform(-3.2, 3.2, 53)
_GRID = _RNG.uniform(-7.0, 7.0, (53, 61))
# every input form a kernel takes
KERNEL_FORMS = {
    "float": ScatterParams(0.7, -0.4),
    "0-d": ScatterParams(np.array(0.7), np.array(-0.4)),
    "1-d": ScatterParams(_LONG, np.flip(_LONG) / 2.0),
    "sparse-mesh": ScatterParams(_ETA[:, None], _BETA[None, :]),
    "section": ScatterParams(np.array([[1.3]]), _LONG[None, :] / 2.0),
    "non-contiguous": ScatterParams(_ETA[::2, None], _BETA[None, ::-1]),
    "transposed-grid": ScatterParams(_GRID.T, 0.3),
    "ghz": GHZ_PARAMS,
    "w": W_PARAMS,
}
KERNEL_ORACLES = {
    three_body_l1: lambda params: l1_norm(state_from_params(params)),
    fusion_l1: lambda params: _fusion_oracle(params)[0],
    fusion_entropy: lambda params: _fusion_oracle(params)[1],
}


@pytest.mark.parametrize("form", KERNEL_FORMS)
@pytest.mark.parametrize("kernel", KERNEL_ORACLES, ids=lambda kernel: kernel.__name__)
def test_kernels_take_every_input_form(kernel, form):
    """Every input form gives the type and broadcast shape of the matrix
    route and its values; a float or 0-d input gives a numpy float."""
    params = KERNEL_FORMS[form]
    value, expected = kernel(params), KERNEL_ORACLES[kernel](params)
    assert type(value) is type(expected)
    assert np.shape(value) == np.shape(expected) == np.broadcast(params.eta, params.beta).shape
    assert np.max(np.abs(value - expected), initial=0.0) < 1e-13
    if np.ndim(params.eta) == np.ndim(params.beta) == 0:
        assert type(value) is np.float64


def _scalar_binary_entropy(p):
    p = min(max(p, 0.0), 1.0)
    return -sum(x * math.log2(x) for x in (p, 1.0 - p) if x > 0.0)


_P = np.random.default_rng(32).uniform(0.0, 1.0, (97, 211))
_P[0, :6] = [0.0, 1.0, 1e-300, 1.0 - 1e-16, -1e-13, 1.0 + 1e-13]
ENTROPY_FORMS = {"float": 0.3, "zero": 0.0, "0-d": np.array(0.3), "1-d": _P.reshape(-1),
                 "mesh": _P, "section": _P.reshape(1, -1), "non-contiguous": _P.T[::-1]}


@pytest.mark.parametrize("form", ENTROPY_FORMS)
def test_binary_entropy_takes_every_input_form(form):
    """Every input form gives its own shape and, point by point, the scalar
    entropy of the clamped probability; a float or 0-d input gives a numpy
    float."""
    p = ENTROPY_FORMS[form]
    value = binary_entropy(p)
    assert np.shape(value) == np.shape(p)
    expected = np.vectorize(_scalar_binary_entropy, otypes=[float])(p)
    assert np.max(np.abs(value - expected), initial=0.0) < 1e-15
    if np.ndim(p) == 0:
        assert type(value) is np.float64


def test_binary_entropy_names_the_first_value_out_of_range():
    """The first value out of range in flat order is named, though others,
    below and above the range, follow it."""
    p = np.full((40, 500), 0.5)
    p[30, 7], p[35, 0], p[39, 499] = 1.5, -0.5, 2.0
    with pytest.raises(ValueError, match=r"out of range: 1\.5$"):
        binary_entropy(p)


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
    xi = type2_r_4x4(np.pi / 4) @ ket("00")
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
    assert type(binary_entropy(0.3)) is type(binary_entropy(np.array(0.3))) is np.float64
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
    """A stack gives one value per state, and one state an np.float64."""
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal((2, 3, 8)) + 1j * rng.standard_normal((2, 3, 8))
    psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
    tau = three_tangle(psi)
    assert tau.shape == (2, 3)
    assert np.all((-1e-9 <= tau) & (tau <= 1.0 + 1e-9))
    assert type(three_tangle(psi[1, 2])) is np.float64


def test_classify_ghz_and_w():
    assert classify_slocc(state_from_params(GHZ_PARAMS)) == GHZ_CLASS
    assert classify_slocc(state_from_params(W_PARAMS)) == W_CLASS


def test_classify_biseparable_and_product():
    bell = (ket("00") + ket("11")) / np.sqrt(2)
    assert classify_slocc(kron(ket("0").reshape(2, 1), bell.reshape(4, 1)).reshape(-1)) == BISEPARABLE
    assert classify_slocc(ket("010")) == PRODUCT


def test_entanglement_report_fields():
    report = entanglement_report(state_from_params(GHZ_PARAMS))
    assert report.slocc_class == GHZ_CLASS
    assert set(report.vn_entropies) == {0, 1, 2}
    assert all(abs(s - 1.0) < 1e-12 for s in report.vn_entropies.values())
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
    assert report.vn_entropies[0].shape == report.three_tangle.shape \
        == report.slocc_class.shape == (20, 20)
    assert sorted(report.vn_entropies) == [0, 1, 2]
    for index in np.ndindex(20, 20):
        one = entanglement_report(stack[index])
        assert report.three_tangle[index] == one.three_tangle
        assert report.slocc_class[index] == one.slocc_class
        assert [report.vn_entropies[k][index] for k in range(3)] \
            == [one.vn_entropies[k] for k in range(3)]
    assert np.array_equal(classify_slocc(stack), report.slocc_class)
    assert np.array_equal(three_tangle(stack), report.three_tangle)


def test_report_of_an_empty_stack_is_empty():
    report = entanglement_report(np.zeros((0, 8), dtype=complex))
    assert report.slocc_class.shape == report.three_tangle.shape \
        == report.vn_entropies[2].shape == (0,)


@pytest.mark.parametrize("kind", STACKS)
def test_cut_entropies_agree_with_the_dense_oracle(kind):
    """The closed-form 2x2 spectra against the partial trace and
    eigensolver of :func:`von_neumann_entropy`."""
    stack = STACKS[kind]
    entropies = entanglement_report(stack).vn_entropies
    for n, psi in enumerate(stack):
        for k in range(3):
            assert abs(entropies[k][n] - von_neumann_entropy(psi, [k])) <= 1e-14


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
