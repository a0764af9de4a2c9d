"""Block-drawn residual suites against the per-sample code.

The suites draw each family's samples in one ``rng.uniform`` call (plus one
per Galilean redraw) and check them one block at a time through
``tensor.by_blocks``, each block's matrix stack bounded by
``tensor.STACK_BYTES``: kron-free lifts, one builder call for all three
parameters, the three-body parameters and the residuals as arrays.
Every drawn sample and the final generator state must be those of one
draw per sample (``reference.py``); each YBE residual must be bit-equal to
the per-sample matrix code, and each reduction residual to the reduction
of its triple alone, with float angles.  Every gate must still fail closed
when a single sample of a block trips it, and each random suite's traced
peak must stay under 1 MiB.

Each reference loop runs once per (family, seed) at the largest count; a
smaller count draws a prefix of the same stream, so it is compared with a
prefix of that run.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from ybekit import checks
from ybekit.fusionbasis import (
    LeakageError,
    _build_type1,
    _build_type2,
    fusion_basis_type1,
    fusion_basis_type2,
    reduce_operator,
    reduce_three_body,
)
from ybekit.rmatrix import bundled_families, check_ybe, type1_r_4x4, type2_r_4x4
from ybekit.tensor import block_size, kron, kron_all, lift, stack
from ybekit.threebody import (
    AngleTriple,
    ConstraintViolation,
    angles_to_params,
    product_form,
    random_constrained_triple,
)

from reference import (IDENTITY_2, reduction_reference, scalar_check_ybe, scalar_product,
                       scalar_reduce, scalar_stack, scalar_ybe_parameters, ybe_reference)

SEEDS = [0, 7, 12345]
# one sample, each side of a full block of 2x2 and of 8x8 matrices (the
# reduction's block is bounded by its 8x8 product), each side of the
# former 50-sample block, and several blocks
BLOCKS = (block_size(2), block_size(8))
COUNTS = tuple(sorted({1, 49, 51, 1000, 2000} | {n + d for n in BLOCKS for d in (-1, 1)}))
FAMILIES = sorted(bundled_families())


@pytest.mark.parametrize("samples", COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", FAMILIES)
def test_batched_ybe_residuals_equal_the_per_sample_loop(name, seed, samples):
    family = bundled_families()[name]
    pairs, residuals, states = ybe_reference(name, seed, COUNTS)
    rng = np.random.default_rng(seed)
    assert np.array_equal(np.column_stack(checks._ybe_pairs(family, rng, samples)),
                          pairs[:samples])
    assert rng.bit_generator.state == states[samples]
    batched = check_ybe(family, *checks._ybe_pairs(family, np.random.default_rng(seed), samples))
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


# The golden corpus rests on this: BLAS gives a real product the bits of
# the real part of the same product of complex-cast matrices.
REAL_FAMILIES = ["type1_2x2", "type1_4x4", "type2_4x4"]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", REAL_FAMILIES)
def test_real_ybe_route_equals_the_complex_route(name, seed):
    family = bundled_families()[name]
    p1, p3 = checks._ybe_pairs(family, np.random.default_rng(seed), 1000)
    r12, r23 = family.role_matrices(np.array([p1, family.rule(p1, p3), p3]))
    assert r12.dtype == r23.dtype == np.float64
    c12, c23 = r12.astype(complex), r23.astype(complex)
    complex_route = np.abs(c12[0] @ c23[1] @ c12[2] - c23[2] @ c12[1] @ c23[0]).max(axis=(-2, -1))
    assert np.array_equal(check_ybe(family, p1, p3), complex_route), (
        f"{name}: real residuals differ from the complex route at seed {seed}")


@pytest.mark.parametrize("seed", range(4))
def test_real_reduction_route_equals_the_complex_route(seed):
    triples = random_constrained_triple(np.random.default_rng(seed), 1000)
    reduced, closed, _, residual = reduce_three_body(triples)
    r = type2_r_4x4(np.array([triples.t1, triples.t2, triples.t3])).astype(complex)
    r12 = lift(r[0::2], right=2)
    product = r12[0] @ lift(r[1], left=2) @ r12[1]
    complex_reduced = reduce_operator(lift(product, right=2), fusion_basis_type2())
    assert np.array_equal(reduced, complex_reduced), f"type2_4x4 reduction at seed {seed}"
    assert np.array_equal(residual, np.abs(complex_reduced - closed.conj()).max(axis=(-2, -1)))


@pytest.mark.parametrize("samples", COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_batched_reduction_residuals_equal_the_per_triple_loop(seed, samples):
    """Each residual of a block equals the reduction of its triple alone,
    drawn on its own and given as floats."""
    residuals, states = reduction_reference(seed, COUNTS)
    assert np.array_equal(checks.random_reduction(samples, seed), residuals[:samples])
    rng = np.random.default_rng(seed)
    random_constrained_triple(rng, size=samples)
    assert rng.bit_generator.state == states[samples]


def test_stacked_product_and_reduction_are_bit_equal_to_the_matrix_loop():
    # einsum or a two-column matmul would move bits
    rng = np.random.default_rng(11)
    triples = random_constrained_triple(rng, size=block_size(8) + 1)
    basis = fusion_basis_type2()
    stack = product_form(triples)
    reduced = reduce_operator(lift(stack, right=2), basis)
    for k, angles in enumerate(zip(triples.t1, triples.t2, triples.t3)):
        product = scalar_product(*angles)
        assert np.array_equal(stack[k], product)
        assert np.array_equal(reduced[k], scalar_reduce(kron(product, IDENTITY_2), basis))


def test_blocked_reduction_keeps_the_shape_and_scalar_bits_of_any_triple_array():
    # 3 x 50 triples: more than two blocks of 8x8 products, laid out in 2-D
    flat = random_constrained_triple(np.random.default_rng(2), size=150)
    grid = AngleTriple(*(getattr(flat, f).reshape(3, 50) for f in ("t1", "t2", "t3")))
    reduced, closed, _, residual = reduce_three_body(grid)
    assert reduced.shape == closed.shape == (3, 50, 2, 2) and residual.shape == (3, 50)
    assert np.array_equal(residual.ravel(), reduce_three_body(flat)[3])
    for k in (0, 64, 149):
        alone = reduce_three_body(AngleTriple(flat.t1[k], flat.t2[k], flat.t3[k]))
        assert residual.flat[k] == alone[3]
        assert np.array_equal(reduced.reshape(-1, 2, 2)[k], alone[0])


@pytest.mark.parametrize("angles", [
    (0.32358086300352906, 0.45890365604188516, 0.18799193314516094),
    (0.23075115994876727, -0.20977663083462436, -0.4031495611685434),
])
def test_triples_where_numpy_squares_apart_from_float_pow(angles):
    # cos(t1 - t3) ** 2 of a numpy or Python float is one ulp off np.square
    # at these triples (numpy 2.4, x86-64); a float, a 0-d array, a
    # 1-element array and a block row must still give the same residuals
    # and parameters
    results = []
    for form in (float, np.array, lambda t: np.array([t]), lambda t: np.array([t, 0.0])):
        triple = AngleTriple(*map(form, angles))
        params = angles_to_params(triple)
        results.append([np.ravel(x)[0] for x in (triple.constraint_residual(), params.eta,
                                                 params.beta, reduce_three_body(triple)[3])])
    assert all(r == results[0] for r in results), results


def test_kron_free_lifts_equal_the_kron_products():
    rng = np.random.default_rng(5)
    real = rng.normal(size=(3, 4, 4))
    for op in (real + 1j * rng.normal(size=(3, 4, 4)), real):
        for left, right in [(1, 2), (2, 1), (2, 2), (1, 1), (4, 1), (1, 4)]:
            lifted = lift(op, left, right)
            assert lifted.dtype == op.dtype
            for k in range(3):
                expected = kron_all(np.eye(left), op[k], np.eye(right))
                assert np.array_equal(lifted[k], expected)
        assert np.array_equal(lift(op[0], right=2), kron(op[0], IDENTITY_2))


def test_filled_stack_equals_the_broadcast_stack():
    theta = np.array([[0.1, -0.7, 2.0]])
    mu = np.array([[0.3], [-0.2]])
    rows = [[np.cos(theta), 0, 1j * mu], [mu * theta, 2.5, -1j], [0, np.sin(theta), mu]]
    assert np.array_equal(stack(rows), scalar_stack(rows))
    assert stack(rows).shape == (2, 3, 3, 3)
    assert np.array_equal(stack([[1.5, 0], [0, 2j]]), scalar_stack([[1.5, 0], [0, 2j]]))
    # real entries, Python ints among them, make a float64 stack with the
    # bits of the complex one's real part
    real_rows = [[np.cos(theta), 0, mu], [mu * theta, 2.5, -1], [0, np.sin(theta), mu]]
    real = stack(real_rows)
    assert real.dtype == np.float64 and stack([[1, 0], [0, 1]]).dtype == np.float64
    assert np.array_equal(real.view(np.uint64), scalar_stack(real_rows).real.view(np.uint64))


def test_empty_sample_sets_give_empty_residual_arrays():
    family = bundled_families()["type2_4x4"]
    assert check_ybe(family, *checks._ybe_pairs(family, np.random.default_rng(0), 0)).size == 0
    assert checks.random_reduction(0, 0).size == 0


@pytest.mark.parametrize("suite", [
    lambda: checks.ybe_suite(tol=1e-12, samples=2000, seed=0),
    lambda: checks.random_reduction(1000, 0),
], ids=["ybe_suite", "random_reduction"])
def test_random_suites_peak_below_one_mebibyte(suite):
    """Blocks bounded by ``STACK_BYTES`` keep the working set flat in the
    sample count: 0.79 and 0.51 MiB (the former 50-sample blocks peaked at
    0.49 and 0.29 MiB; a 16 times larger bound fails)."""
    suite()  # the cached fusion bases are built outside the trace
    tracemalloc.start()
    try:
        suite()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


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


@pytest.mark.parametrize("name", ["type2_4x4", "type2_2x2"])
def test_a_tan_pole_in_one_sample_is_checked_like_the_rest(name):
    # the Lorentzian rule has no pole, so a type-II block takes tan poles whole
    p1, p3 = np.array([[0.3, 0.3], [np.pi / 2, 0.2], [0.5, -np.pi / 2], [0.9, 1.1]]).T
    residuals = check_ybe(bundled_families()[name], p1, p3)
    assert residuals.shape == (4,) and np.all(residuals <= 1e-15)


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
    for gate in (angles_to_params, reduce_three_body):
        with pytest.raises(ConstraintViolation, match=r"angle triple \(0\.1, 0\.2, 0\.3\)"):
            gate(block)


def test_a_nan_triple_raises():
    block = _block_with((math.nan, 0.0, 0.0))
    for gate in (angles_to_params, reduce_three_body):
        with pytest.raises(ConstraintViolation, match=r"angle triple \(nan, 0\.0, 0\.0\)"):
            gate(block)
    with pytest.raises(ConstraintViolation):
        angles_to_params(AngleTriple(math.nan, 0.0, 0.0))
    # t1 + t3 overflows to infinity: NaN, and no warning, in every input form
    for form in (float, np.array, lambda t: np.array([t])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(AngleTriple(*map(form, (1e308, 0.0, 1e308))).constraint_residual())


def test_a_nan_sample_survives_the_block():
    family = bundled_families()["type2_2x2"]
    residuals = check_ybe(family, np.array([0.3, np.nan, 0.5]), np.array([0.4, 0.4, 0.4]))
    assert np.isnan(residuals[1]) and np.isfinite(residuals[[0, 2]]).all()
    assert np.isnan(checks.worst(residuals))
