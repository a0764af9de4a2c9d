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
)
from ybekit.landscape import FUNCTIONS
from ybekit.rmatrix import type2_r_4x4
from ybekit.tensor import kron
from ybekit.threebody import (BETA_STAR, ScatterParams, fusion_form, state_coordinates,
                              state_from_params)

from reference import (classify_slocc, ket, l1_norm, three_tangle, von_neumann_entropy,
                       wigner_d_half, wigner_l1)

etas = st.floats(min_value=-7.0, max_value=7.0, allow_nan=False)
betas = st.floats(min_value=-3.2, max_value=3.2, allow_nan=False)
angles = st.floats(min_value=-6.0, max_value=6.0, allow_nan=False)

GHZ_PARAMS = ScatterParams(np.pi / 3, BETA_STAR)
W_PARAMS = ScatterParams(np.pi / 2, BETA_STAR)


def landscape(tag, params):
    """The registered landscape ``tag`` at the (eta, beta) of ``params``."""
    return FUNCTIONS[tag](params.eta, params.beta)


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
    assert abs(landscape("l1_S3", GHZ_PARAMS) - 2.0) < 1e-14
    assert abs(landscape("l1_S3", W_PARAMS) - math.sqrt(3.0)) < 1e-14
    assert landscape("l1_S3", ScatterParams(0.0, 1.23)) == 1.0
    assert type(landscape("l1_S3", ScatterParams(0.7, -0.4))) is np.float64


@given(etas, betas)
def test_three_body_l1_equals_state_l1(eta, beta):
    params = ScatterParams(eta, beta)
    assert abs(landscape("l1_S3", params) - l1_norm(state_from_params(params))) < 1e-13


@given(etas, betas)
def test_fusion_l1_matches_three_body_l1(eta, beta):
    params = ScatterParams(eta, beta)
    assert abs(landscape("l1_Sprime", params) - landscape("l1_S3", params)) < 1e-13


def test_fusion_l1_known_values():
    assert abs(landscape("l1_Sprime", GHZ_PARAMS) - 2.0) < 1e-14
    assert landscape("l1_Sprime", ScatterParams(0.0, 0.4)) == 1.0


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
# landscape's own accuracy is held against mpmath (test_accuracy.py).
FUSION_ENTROPY_TOL = 2e-14


@pytest.mark.parametrize("name", FUSION_POINTS)
def test_fusion_kernels_have_the_bits_of_the_matrix_route(name):
    """l1_Sprime, the weighted l1 of the fusion row, equals the dense
    fusion_form oracle bit for bit, vn_Sprime to ``FUSION_ENTROPY_TOL``;
    both have its type and shape, and float inputs give numpy floats."""
    params = FUSION_POINTS[name]
    l1, entropy = landscape("l1_Sprime", params), landscape("vn_Sprime", params)
    oracle = _fusion_oracle(params)
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
# every input form a landscape takes, one array per axis; a curve takes the first
KERNEL_FORMS = {
    "float": (0.7, -0.4),
    "0-d": (np.array(0.7), np.array(-0.4)),
    "1-d": (_LONG, np.flip(_LONG) / 2.0),
    "sparse-mesh": (_ETA[:, None], _BETA[None, :]),
    "section": (np.array([[1.3]]), _LONG[None, :] / 2.0),
    "non-contiguous": (_ETA[::2, None], _BETA[None, ::-1]),
    "transposed-grid": (_GRID.T, 0.3),
    "ghz": (np.pi / 3, BETA_STAR),
    "w": (np.pi / 2, BETA_STAR),
}


def _per_point(oracle):
    return np.vectorize(oracle, otypes=[float])


# each landscape's matrix route, over the same arrays
KERNEL_ORACLES = {
    "l1_S3": lambda eta, beta: l1_norm(state_from_params(ScatterParams(eta, beta))),
    "l1_Sprime": lambda eta, beta: _fusion_oracle(ScatterParams(eta, beta))[0],
    "vn_Sprime": lambda eta, beta: _fusion_oracle(ScatterParams(eta, beta))[1],
    "l1_wigner": _per_point(lambda theta: wigner_l1(wigner_d_half(theta, 0.0))),
    "vn_xi": _per_point(lambda theta: von_neumann_entropy(type2_r_4x4(theta) @ ket("00"), [0])),
}


def test_every_landscape_has_a_matrix_route():
    assert sorted(KERNEL_ORACLES) == sorted(FUNCTIONS)


@pytest.mark.parametrize("form", KERNEL_FORMS)
@pytest.mark.parametrize("tag", sorted(FUNCTIONS))
def test_kernels_take_every_input_form(tag, form):
    """Every registered landscape takes every input form with the
    broadcast shape of its axes and the values of its matrix route; a
    float or 0-d input gives a numpy float, any other an array."""
    coords = KERNEL_FORMS[form][:len(FUNCTIONS[tag].chart.axes)]
    value, expected = FUNCTIONS[tag](*coords), KERNEL_ORACLES[tag](*coords)
    assert np.shape(value) == np.shape(expected) == np.broadcast(*coords).shape
    assert np.max(np.abs(value - expected), initial=0.0) < 1e-13
    assert type(value) is (np.float64 if np.ndim(value) == 0 else np.ndarray)


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
        [[landscape("l1_S3", ScatterParams(e, b)) for b in betas_grid] for e in etas_grid]
    )
    assert values.min() >= 1.0 - 1e-12
    assert values.max() <= 2.0 + 1e-12
    assert abs(landscape("l1_S3", GHZ_PARAMS) - 2.0) < 1e-14


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
    assert abs(landscape("vn_Sprime", GHZ_PARAMS) - 1.0) < 1e-12
    assert abs(landscape("vn_Sprime", W_PARAMS) - (math.log2(3.0) - 2.0 / 3.0)) < 1e-12
    assert landscape("vn_Sprime", ScatterParams(0.0, 0.8)) == 0.0


@given(etas)
def test_fusion_entropy_section_formula(eta):
    # along beta = arccot(sqrt 2) the curve is H(1/3 + (2/3) cos^2(eta))
    expected = binary_entropy(1.0 / 3.0 + (2.0 / 3.0) * math.cos(eta) ** 2)
    assert abs(landscape("vn_Sprime", ScatterParams(eta, BETA_STAR)) - expected) < 1e-12


@given(etas, betas)
def test_fusion_entropy_range(eta, beta):
    assert 0.0 <= landscape("vn_Sprime", ScatterParams(eta, beta)) <= 1.0 + 1e-12


def report(params):
    """The coordinate report of the state at ``params``, as ``state`` and
    ``extrema`` compute it."""
    return entanglement_report(state_coordinates(params.eta, params.beta))


def test_three_tangle_ghz_point():
    assert abs(report(GHZ_PARAMS).three_tangle - 1.0) < 1e-12
    assert abs(three_tangle(state_from_params(GHZ_PARAMS)) - 1.0) < 1e-12


def test_three_tangle_standard_ghz():
    psi = (ket("000") + ket("111")) / np.sqrt(2)
    assert abs(three_tangle(psi) - 1.0) < 1e-14


def test_three_tangle_w_point_and_product():
    assert report(W_PARAMS).three_tangle < 1e-12
    assert report(ScatterParams(0.0, 0.4)).three_tangle == 0.0
    assert three_tangle((ket("001") + ket("010") + ket("100")) / np.sqrt(3)) < 1e-15
    assert three_tangle(ket("000")) == 0.0


@given(etas, betas, st.lists(st.floats(min_value=0, max_value=2 * np.pi), min_size=6,
                             max_size=6))
def test_three_tangle_is_the_hyperdeterminant_of_the_rephased_state(eta, beta, phases):
    """8|a b^2 c| is the 3-tangle of the state, and of its image under
    local phase gates, which leave the invariant as it is."""
    params = ScatterParams(eta, beta)
    gates = [np.diag([np.exp(1j * phases[2 * k]), np.exp(1j * phases[2 * k + 1])])
             for k in range(3)]
    op = kron(kron(gates[0], gates[1]), gates[2])
    assert abs(three_tangle(op @ state_from_params(params)) - report(params).three_tangle) < 1e-14


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_three_tangle_range_on_random_states(seed):
    """Arrays give one value per state, and a point an np.float64."""
    rng = np.random.default_rng(seed)
    params = ScatterParams(rng.uniform(-7.0, 7.0, (2, 3)), rng.uniform(-3.2, 3.2, (2, 3)))
    tau = report(params).three_tangle
    assert tau.shape == (2, 3)
    assert np.all((0.0 <= tau) & (tau <= 1.0 + 1e-15))
    assert type(report(ScatterParams(params.eta[1, 2], params.beta[1, 2])).three_tangle) \
        is np.float64


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_oracle_tangle_is_invariant_under_local_unitaries(seed):
    """The hyperdeterminant oracle on random complex states: the 3-tangle
    lies in [0, 1] and local unitaries on the three qubits keep it."""
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi /= np.linalg.norm(psi)
    gates = [np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
             for _ in range(3)]
    tau = three_tangle(psi)
    assert -1e-15 <= tau <= 1.0 + 1e-12
    assert abs(three_tangle(kron(kron(gates[0], gates[1]), gates[2]) @ psi) - tau) < 1e-12


def test_classify_ghz_and_w():
    for params, label in ((GHZ_PARAMS, GHZ_CLASS), (W_PARAMS, W_CLASS)):
        assert classify_slocc(state_from_params(params)) == report(params).slocc_class == label


def test_classify_biseparable_and_product():
    """At eta = pi/2, beta = 0 the state is |1> on qubit 2 and a Bell pair
    on qubits 1 and 3; at eta = 0 it is |000>."""
    bell = (ket("00") + ket("11")) / np.sqrt(2)
    assert classify_slocc(kron(ket("0").reshape(2, 1), bell.reshape(4, 1)).reshape(-1)) == BISEPARABLE
    assert classify_slocc(ket("010")) == PRODUCT
    for params, label in ((ScatterParams(math.pi / 2, 0.0), BISEPARABLE),
                          (ScatterParams(0.0, 0.4), PRODUCT)):
        assert classify_slocc(state_from_params(params)) == report(params).slocc_class == label


def test_entanglement_report_fields():
    ghz = report(GHZ_PARAMS)
    assert ghz.slocc_class == GHZ_CLASS
    assert set(ghz.vn_entropies) == {0, 1, 2}
    assert all(abs(s - 1.0) < 1e-12 for s in ghz.vn_entropies.values())
    assert abs(ghz.three_tangle - 1.0) < 1e-9


_RNG_12 = np.random.default_rng(12)
SCATTERING = ScatterParams(_RNG_12.uniform(-7.0, 7.0, 400), _RNG_12.uniform(-3.2, 3.2, 400))
# the class strata: poles, the biseparable line eta = pi/2, beta = 0, the
# edges beta = +-pi/2, and the GHZ and W points
_STRATA = np.meshgrid([0.0, 1e-9, np.pi / 3, np.pi / 2, np.pi, 4.0],
                      [-np.pi / 2, 0.0, BETA_STAR, 1.0, np.pi / 2], indexing="ij")
DENSE_POINTS = {"scattering": SCATTERING,
                "strata": ScatterParams(_STRATA[0].ravel(), _STRATA[1].ravel())}
# (eta, beta) arrays that broadcast to 20x20
BLOCKS = {"block": ScatterParams(SCATTERING.eta.reshape(20, 20), SCATTERING.beta.reshape(20, 20)),
          "sparse-mesh": ScatterParams(SCATTERING.eta[:20, None], SCATTERING.beta[None, :20])}


@pytest.mark.parametrize("form", BLOCKS)
def test_arrays_give_each_state_the_bits_of_its_own_call(form):
    """Parameters that broadcast to 20x20 give every field that shape and
    each element the bits of that point's own call."""
    params = BLOCKS[form]
    eta, beta = np.broadcast_arrays(params.eta, params.beta)
    block = report(params)
    assert block.vn_entropies[0].shape == block.three_tangle.shape \
        == block.slocc_class.shape == (20, 20)
    assert sorted(block.vn_entropies) == [0, 1, 2]
    for index in np.ndindex(20, 20):
        one = report(ScatterParams(float(eta[index]), float(beta[index])))
        assert block.three_tangle[index] == one.three_tangle
        assert block.slocc_class[index] == one.slocc_class
        assert [block.vn_entropies[k][index] for k in range(3)] \
            == [one.vn_entropies[k] for k in range(3)]


def test_report_of_an_empty_stack_is_empty():
    empty = report(ScatterParams(np.zeros(0), np.zeros(0)))
    assert empty.slocc_class.shape == empty.three_tangle.shape \
        == empty.vn_entropies[2].shape == (0,)


@pytest.mark.parametrize("points", DENSE_POINTS)
def test_report_agrees_with_the_dense_oracle(points):
    """Each cut's entropy against the partial trace and eigensolver of
    :func:`von_neumann_entropy`, the 3-tangle against the hyperdeterminant
    of the eight amplitudes, and the class against the oracle's rule."""
    params = DENSE_POINTS[points]
    coords = report(params)
    for n, psi in enumerate(state_from_params(params)):
        for k in range(3):
            assert abs(coords.vn_entropies[k][n] - von_neumann_entropy(psi, [k])) <= 1e-14
        assert abs(coords.three_tangle[n] - three_tangle(psi)) <= 1e-14
        assert coords.slocc_class[n] == classify_slocc(psi)


def test_scattering_cut_entropies_are_the_fusion_entropy_and_its_partner():
    """The paper identity: qubits 1 and 3 of the output state carry the
    fusion-space entropy vn_Sprime, bit for bit, and qubit 2 carries
    H(cos^2 eta + sin^2 beta sin^2 eta)."""
    eta, beta = np.meshgrid(np.linspace(0.0, 2.0 * np.pi, 73),
                            np.linspace(-np.pi / 2, np.pi / 2, 49), indexing="ij")
    params = ScatterParams(eta, beta)
    entropies = report(params).vn_entropies
    fusion = landscape("vn_Sprime", params)
    partner = binary_entropy(np.cos(eta) ** 2 + np.sin(beta) ** 2 * np.sin(eta) ** 2)
    assert entropies[0].tobytes() == entropies[2].tobytes() == fusion.tobytes()
    assert np.max(np.abs(entropies[1] - partner)) <= 1e-14


@pytest.mark.parametrize("eta", [1e-8, 1e-6, 1e-3, np.pi - 1e-7])
def test_cut_entropies_keep_their_digits_near_a_product_state(eta):
    """Near |000> each cut's smaller probability is tiny: taken as 1 less
    the larger it cancels to a few correct digits; summed from its own
    coordinates it keeps them.  The closed form here is p^2 + q^2 for
    qubits 1 and 3 and 2 p^2 for qubit 2."""
    beta = np.linspace(-1.5, 1.5, 31)
    entropies = report(ScatterParams(eta, beta)).vn_entropies
    pair, lone = np.cos(beta) * np.sin(eta) / math.sqrt(2.0), np.sin(beta) * np.sin(eta)
    small = [pair ** 2 + lone ** 2, 2.0 * pair ** 2, pair ** 2 + lone ** 2]
    for k in range(3):
        want = binary_entropy(small[k])
        assert np.all(np.abs(entropies[k] - want) <= 1e-12 * want), k
