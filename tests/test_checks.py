"""Block-drawn residual suites against copies of the per-sample code.

The suites draw and check their samples one block of ``SAMPLE_BLOCK`` at a
time: one ``rng.uniform`` call per block, kron-free lifts, the three-body
parameters and the phase alignment as arrays.  The per-sample code they
replaced is kept in ``reference.py``.  Every drawn sample, the final
generator state and every per-sample residual must be bit-equal to it, and
every gate must still fail closed when a single sample of a block trips it.

Each reference loop runs once per (family, seed) at the largest count; a
smaller count draws a prefix of the same stream, so it is compared with a
prefix of that run.
"""

import math
import warnings

import numpy as np
import pytest

from ybekit import checks
from ybekit.fusionbasis import (
    LeakageError,
    _build_type1,
    _build_type2,
    embed_three_body,
    fusion_basis_type1,
    fusion_basis_type2,
    reduce_operator,
    verify_basis_reduction,
)
from ybekit.rmatrix import _stack, bundled_families, check_ybe, type1_r_4x4
from ybekit.tensor import kron, kron_all, lift, max_diff_up_to_phase, norm_inf
from ybekit.threebody import (
    AngleTriple,
    ConstraintViolation,
    angles_to_params,
    product_form,
    random_constrained_triple,
)

from reference import (IDENTITY_2, many_triples, reduction_reference, scalar_angles_to_params,
                       scalar_check_ybe, scalar_max_diff_up_to_phase, scalar_product,
                       scalar_reduce, scalar_reduction_residual, scalar_stack,
                       scalar_ybe_parameters, ybe_reference)

SEEDS = [0, 7, 12345]
COUNTS = (1, checks.SAMPLE_BLOCK - 1, checks.SAMPLE_BLOCK + 1, 1000)
FAMILIES = sorted(bundled_families())


@pytest.mark.parametrize("samples", COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", FAMILIES)
def test_batched_ybe_residuals_equal_the_per_sample_loop(name, seed, samples):
    family = bundled_families()[name]
    pairs, residuals, states = ybe_reference(name, seed, COUNTS)
    rng = np.random.default_rng(seed)
    blocks = list(checks._ybe_parameter_blocks(family, rng, samples))
    assert all(len(p1) == min(checks.SAMPLE_BLOCK, samples - k * checks.SAMPLE_BLOCK)
               for k, (p1, _) in enumerate(blocks))
    assert np.array_equal(np.concatenate([np.column_stack(b) for b in blocks]), pairs[:samples])
    assert rng.bit_generator.state == states[samples]
    batched = checks.ybe_residuals(family, np.random.default_rng(seed), samples)
    assert np.array_equal(batched, residuals[:samples])


@pytest.mark.parametrize("seed", SEEDS)
def test_ybe_suite_reports_the_worst_of_the_per_sample_loop(seed):
    # the families share one generator, drawn in name order
    rng = np.random.default_rng(seed)
    expected = []
    for name in FAMILIES:
        family = bundled_families()[name]
        pairs = list(scalar_ybe_parameters(family, rng, 77))
        expected.append(max(scalar_check_ybe(family, p1, p3) for p1, p3 in pairs))
    rows = checks.ybe_suite(tol=1e-12, samples=77, seed=seed)
    assert [row.residual for row in rows] == expected


@pytest.mark.parametrize("samples", COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_batched_reduction_residuals_equal_the_per_triple_loop(seed, samples):
    residuals, states = reduction_reference(seed, COUNTS)
    assert np.array_equal(checks.random_reduction(samples, seed), residuals[:samples])
    rng = np.random.default_rng(seed)
    for k in range(0, samples, checks.SAMPLE_BLOCK):
        random_constrained_triple(rng, size=min(checks.SAMPLE_BLOCK, samples - k))
    assert rng.bit_generator.state == states[samples]


def test_stacked_product_and_reduction_are_bit_equal_to_the_matrix_loop():
    # einsum or a two-column matmul would move bits
    rng = np.random.default_rng(11)
    triples = random_constrained_triple(rng, size=checks.SAMPLE_BLOCK + 1)
    basis = fusion_basis_type2()
    stack = product_form(triples)
    reduced = reduce_operator(embed_three_body(stack), basis)
    for k, angles in enumerate(zip(triples.t1, triples.t2, triples.t3)):
        product = scalar_product(*angles)
        assert np.array_equal(stack[k], product)
        assert np.array_equal(reduced[k], scalar_reduce(kron(product, IDENTITY_2), basis))


def test_array_parameters_equal_the_scalar_formulas():
    triple, params, _, _ = many_triples()
    t1, t3 = triple.t1.tolist(), triple.t3.tolist()
    middle = [math.atan2(math.sin(a + b), math.cos(a - b)) for a, b in zip(t1, t3)]
    assert np.array_equal(triple.t2, middle)
    eta, beta = np.array([scalar_angles_to_params(*t) for t in zip(t1, middle, t3)]).T
    assert np.array_equal(params.eta, eta) and np.array_equal(params.beta, beta)


@pytest.mark.parametrize("angles", [
    (0.32358086300352906, 0.45890365604188516, 0.18799193314516094),
    (0.23075115994876727, -0.20977663083462436, -0.4031495611685434),
])
def test_triples_where_numpy_squares_apart_from_float_pow(angles):
    # numpy's cos(t1 - t3) ** 2 is one ulp off float ** 2 at these triples
    # (numpy 2.4, x86-64); the parameters must still be the scalar bits
    expected = scalar_angles_to_params(*angles)
    scalar = angles_to_params(AngleTriple(*angles))
    block = angles_to_params(AngleTriple(*(np.array([t, 0.0]) for t in angles)))
    assert (scalar.eta, scalar.beta) == expected
    assert (block.eta[0], block.beta[0]) == expected
    assert verify_basis_reduction(AngleTriple(*angles)) == scalar_reduction_residual(*angles)


def test_stacked_phase_alignment_equals_the_per_matrix_code():
    _, _, reduced, closed = many_triples()
    expected = [scalar_max_diff_up_to_phase(a, b) for a, b in zip(reduced, closed)]
    assert np.array_equal(max_diff_up_to_phase(reduced, closed), expected)
    # phases off the unit circle, where np.abs rounds apart from abs()
    rng = np.random.default_rng(4)
    a = rng.normal(size=(2000, 2, 2)) + 1j * rng.normal(size=(2000, 2, 2))
    b = a * rng.uniform(0.5, 2.0, size=(2000, 1, 1)) * np.exp(1j * rng.uniform(0, 7, (2000, 1, 1)))
    b += 1e-3 * rng.normal(size=b.shape)
    expected = [scalar_max_diff_up_to_phase(x, y) for x, y in zip(a, b)]
    assert np.array_equal(max_diff_up_to_phase(a, b), expected)


def test_phase_alignment_of_a_zero_matrix_is_the_norm_of_the_other():
    rng = np.random.default_rng(3)
    b = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    a = b * np.exp(0.4j)
    a[1] = 0.0
    a[2] = b[2]
    b[2].flat[np.argmax(np.abs(a[2]))] = 0.0  # a zero target keeps the unit phase
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diffs = max_diff_up_to_phase(a, b)
    assert diffs[1] == norm_inf(b[1])
    assert np.array_equal(diffs, [scalar_max_diff_up_to_phase(x, y) for x, y in zip(a, b)])
    assert max_diff_up_to_phase(np.zeros((2, 2)), b[0]) == norm_inf(b[0])


def test_kron_free_lifts_equal_the_kron_products():
    rng = np.random.default_rng(5)
    op = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    for left, right in [(1, 2), (2, 1), (2, 2), (1, 1), (4, 1), (1, 4)]:
        lifted = lift(op, left, right)
        for k in range(3):
            expected = kron_all(np.eye(left), op[k], np.eye(right))
            assert np.array_equal(lifted[k], expected)
    assert np.array_equal(lift(op[0], right=2), kron(op[0], IDENTITY_2))


def test_filled_stack_equals_the_broadcast_stack():
    theta = np.array([[0.1, -0.7, 2.0]])
    mu = np.array([[0.3], [-0.2]])
    rows = [[np.cos(theta), 0, 1j * mu], [mu * theta, 2.5, -1j], [0, np.sin(theta), mu]]
    assert np.array_equal(_stack(rows), scalar_stack(rows))
    assert _stack(rows).shape == (2, 3, 3, 3)
    assert np.array_equal(_stack([[1.5, 0], [0, 2j]]), scalar_stack([[1.5, 0], [0, 2j]]))


def test_empty_sample_sets_give_empty_residual_arrays():
    family = bundled_families()["type2_4x4"]
    assert checks.ybe_residuals(family, np.random.default_rng(0), 0).size == 0
    assert checks.random_reduction(0, 0).size == 0


def test_constant_fusion_bases_are_cached_read_only_copies():
    for cached, fresh in [(fusion_basis_type1(), _build_type1()),
                          (fusion_basis_type2(), _build_type2())]:
        for name in ("e1", "e2"):
            vec = getattr(cached, name)
            assert not vec.flags.writeable
            with pytest.raises(ValueError):
                vec[0] = 1.0
            assert np.array_equal(vec, getattr(fresh, name))
    assert fusion_basis_type1() is fusion_basis_type1()
    assert fusion_basis_type2() is fusion_basis_type2()


# every gate fails closed when one sample of a block trips it

def test_a_pole_in_one_sample_raises():
    with pytest.raises(ValueError, match="pole"):
        type1_r_4x4(np.array([0.1, 0.2, 1.0, 0.3]))
    with pytest.raises(ValueError, match="pole"):
        check_ybe(bundled_families()["type1_2x2"], np.array([0.1, -1.0]), np.array([0.2, 0.0]))
    with pytest.raises(ValueError, match="pole"):
        check_ybe(bundled_families()["type2_4x4"], np.array([0.3, np.pi / 2]), np.array([0.3, 0.2]))


def test_leakage_of_one_stacked_operator_raises():
    leaking = np.zeros((16, 16), dtype=complex)
    leaking[0, 0] = 1.0
    stack = np.stack([np.eye(16), leaking, np.eye(16)])
    with pytest.raises(LeakageError):
        reduce_operator(stack, fusion_basis_type2())


def _block_with(angles):
    block = random_constrained_triple(np.random.default_rng(0), size=5)
    columns = [getattr(block, f).copy() for f in ("t1", "t2", "t3")]
    for column, value in zip(columns, angles):
        column[3] = value
    return AngleTriple(*columns)


def test_one_off_constraint_triple_raises():
    block = _block_with((0.1, 0.2, 0.3))
    with pytest.raises(ConstraintViolation, match=r"angle triple \(0\.1, 0\.2, 0\.3\)"):
        product_form(block)
    with pytest.raises(ConstraintViolation):
        verify_basis_reduction(block)


def test_a_nan_triple_raises():
    block = _block_with((math.nan, 0.0, 0.0))
    for gate in (product_form, angles_to_params, verify_basis_reduction):
        with pytest.raises(ConstraintViolation, match=r"angle triple \(nan, 0\.0, 0\.0\)"):
            gate(block)
    with pytest.raises(ConstraintViolation):
        angles_to_params(AngleTriple(math.nan, 0.0, 0.0))


def test_a_nan_sample_survives_the_block():
    family = bundled_families()["type2_2x2"]
    residuals = check_ybe(family, np.array([0.3, np.nan, 0.5]), np.array([0.4, 0.4, 0.4]))
    assert np.isnan(residuals[1]) and np.isfinite(residuals[[0, 2]]).all()
    assert np.isnan(checks.worst(residuals))
