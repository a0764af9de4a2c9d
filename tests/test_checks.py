"""Block-drawn residual suites against copies of the per-sample code.

The suites draw and check their samples one block of ``SAMPLE_BLOCK`` at a
time: one ``rng.uniform`` call per block, kron-free lifts, the three-body
parameters and the phase alignment as arrays.  The per-sample code they
replaced is kept below as the reference.  Every drawn sample, the final
generator state and every per-sample residual must be bit-equal to it, and
every gate must still fail closed when a single sample of a block trips it.

Each reference loop runs once per (family, seed) at the largest count; a
smaller count draws a prefix of the same stream, so it is compared with a
prefix of that run.
"""

import functools
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
from ybekit.rmatrix import _stack, bundled_families, check_ybe, type1_r_4x4, type2_r_4x4
from ybekit.tensor import IDENTITY_2, kron, kron_all, lift, max_diff_up_to_phase, norm_inf
from ybekit.threebody import (
    AngleTriple,
    ConstraintViolation,
    ScatterParams,
    angles_to_params,
    fusion_form,
    product_form,
    random_constrained_triple,
)

SEEDS = [0, 7, 12345]
COUNTS = [1, checks.SAMPLE_BLOCK - 1, checks.SAMPLE_BLOCK + 1, 1000]
FAMILIES = sorted(bundled_families())
TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# the per-sample code the suites replaced, kept as the reference
# ---------------------------------------------------------------------------

def scalar_ybe_parameters(family, rng, samples):
    produced = 0
    while produced < samples:
        if family.additivity == "galilean":
            p1, p3 = rng.uniform(-0.9, 0.9, size=2)
            if abs(1.0 - (p1 + p3) ** 2) < 0.05:
                continue
        else:
            p1, p3 = rng.uniform(0.01, 1.55, size=2)
        produced += 1
        yield float(p1), float(p3)


def scalar_check_ybe(family, p1, p3):
    def roles(p):
        if family.dim == 4:
            r = family.evaluators[0](p)
            return kron(r, IDENTITY_2), kron(IDENTITY_2, r)
        return family.evaluators[0](p), family.evaluators[1](p)

    r12_1, r23_1 = roles(p1)
    r12_2, r23_2 = roles(family.middle(p1, p3))
    r12_3, r23_3 = roles(p3)
    return float(np.abs(r12_1 @ r23_2 @ r12_3 - r23_3 @ r12_2 @ r23_1).max())


def scalar_stack(rows):
    entries = np.broadcast_arrays(*[np.asarray(e, dtype=complex) for row in rows for e in row])
    return np.stack(entries, axis=-1).reshape(*entries[0].shape, len(rows), len(rows))


def scalar_random_triple(rng):
    t1, t3 = rng.uniform(-1.3, 1.3, size=2)
    t1, t3 = float(t1), float(t3)
    return t1, math.atan2(math.sin(t1 + t3), math.cos(t1 - t3)), t3


def scalar_angles_to_params(t1, t2, t3):
    delta = t1 - t3
    sigma = t1 + t3
    scale = math.sqrt(1.0 + math.cos(delta) ** 2)
    cos_eta = math.cos(t2) * math.cos(sigma)
    sin_eta = math.sin(t2) * scale
    cos_beta = math.sqrt(2.0) * math.cos(delta) / scale
    sin_beta = -math.sin(delta) / scale
    eta, beta = math.atan2(sin_eta, cos_eta), math.atan2(sin_beta, cos_beta)
    return eta % TWO_PI, (beta + math.pi) % TWO_PI - math.pi


def scalar_max_diff_up_to_phase(a, b):
    idx = np.unravel_index(np.argmax(np.abs(a)), a.shape)
    if abs(a[idx]) == 0.0:
        return norm_inf(b)
    phase = b[idx] / a[idx]
    mag = abs(phase)
    phase = phase / mag if mag > 0 else 1.0
    return norm_inf(a * phase - b)


def scalar_product(t1, t2, t3):
    r12 = lambda t: kron(type2_r_4x4(t), IDENTITY_2)
    r23 = lambda t: kron(IDENTITY_2, type2_r_4x4(t))
    return r12(t1) @ r23(t2) @ r12(t3)


def scalar_reduction_residual(t1, t2, t3):
    reduced = reduce_operator(kron(scalar_product(t1, t2, t3), IDENTITY_2),
                              fusion_basis_type2(0.0))
    closed = fusion_form(ScatterParams(*scalar_angles_to_params(t1, t2, t3)))
    return scalar_max_diff_up_to_phase(reduced, closed.conj())


@functools.cache
def ybe_reference(name, seed):
    """Pairs and residuals of the largest count, and the generator state
    after each count."""
    family = bundled_families()[name]
    rng = np.random.default_rng(seed)
    pairs, states = [], {}
    for pair in scalar_ybe_parameters(family, rng, max(COUNTS)):
        pairs.append(pair)
        if len(pairs) in COUNTS:
            states[len(pairs)] = rng.bit_generator.state
    residuals = np.array([scalar_check_ybe(family, p1, p3) for p1, p3 in pairs])
    return np.array(pairs), residuals, states


@functools.cache
def reduction_reference(seed):
    rng = np.random.default_rng(seed)
    triples, states = [], {}
    for _ in range(max(COUNTS)):
        triples.append(scalar_random_triple(rng))
        if len(triples) in COUNTS:
            states[len(triples)] = rng.bit_generator.state
    return np.array([scalar_reduction_residual(*t) for t in triples]), states


@functools.cache
def many_triples():
    """100,000 seeded triples drawn in blocks of the suite's size, with
    their reduced products and conjugated closed forms."""
    rng = np.random.default_rng(20260)
    blocks = [random_constrained_triple(rng, size=checks.SAMPLE_BLOCK)
              for _ in range(100_000 // checks.SAMPLE_BLOCK)]
    triple = AngleTriple(*(np.concatenate([getattr(b, f) for b in blocks])
                           for f in ("t1", "t2", "t3")))
    params = angles_to_params(triple)
    # 5000 products at a time keep the 16x16 stacks near 20 MB
    reduced = np.concatenate([
        reduce_operator(embed_three_body(product_form(AngleTriple(
            triple.t1[k:k + 5000], triple.t2[k:k + 5000], triple.t3[k:k + 5000]))),
            fusion_basis_type2(0.0))
        for k in range(0, triple.t1.size, 5000)])
    closed = np.moveaxis(fusion_form(params), (0, 1), (-2, -1)).conj()
    return triple, params, reduced, closed


# ---------------------------------------------------------------------------
# the suites against the references
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("samples", COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", FAMILIES)
def test_batched_ybe_residuals_equal_the_per_sample_loop(name, seed, samples):
    family = bundled_families()[name]
    pairs, residuals, states = ybe_reference(name, seed)
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
    residuals, states = reduction_reference(seed)
    assert np.array_equal(checks.random_reduction(samples, seed), residuals[:samples])
    rng = np.random.default_rng(seed)
    for k in range(0, samples, checks.SAMPLE_BLOCK):
        random_constrained_triple(rng, size=min(checks.SAMPLE_BLOCK, samples - k))
    assert rng.bit_generator.state == states[samples]


def test_stacked_product_and_reduction_are_bit_equal_to_the_matrix_loop():
    # the per-triple 2-D products and the np.vdot reduction loop, as they
    # ran before the stacks; einsum or a two-column matmul would move bits
    rng = np.random.default_rng(11)
    triples = random_constrained_triple(rng, size=checks.SAMPLE_BLOCK + 1)
    basis = fusion_basis_type2(0.0)
    stack = product_form(triples)
    reduced = reduce_operator(embed_three_body(stack), basis)
    for k, angles in enumerate(zip(triples.t1, triples.t2, triples.t3)):
        product = scalar_product(*angles)
        assert np.array_equal(stack[k], product)
        op = kron(product, IDENTITY_2)
        images = [op @ v for v in (basis.e1, basis.e2)]
        loop = np.array([[np.vdot(w, image) for image in images] for w in (basis.e1, basis.e2)])
        assert np.array_equal(reduced[k], loop)


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
    for left, right in [(1, 2), (2, 1), (2, 2), (1, 1)]:
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
                          (fusion_basis_type2(0.0), _build_type2(0.0))]:
        for name in ("e1", "e2"):
            vec = getattr(cached, name)
            assert not vec.flags.writeable
            with pytest.raises(ValueError):
                vec[0] = 1.0
            assert np.array_equal(vec, getattr(fresh, name))
        assert cached.loop_value == fresh.loop_value
    assert fusion_basis_type1() is fusion_basis_type1()
    assert fusion_basis_type2(0.0) is fusion_basis_type2()
    assert fusion_basis_type2(0.7) is not fusion_basis_type2(0.7)


# ---------------------------------------------------------------------------
# every gate fails closed when one sample of a block trips it
# ---------------------------------------------------------------------------

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
        reduce_operator(stack, fusion_basis_type2(0.0))


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
