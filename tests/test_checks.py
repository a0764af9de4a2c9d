"""Batched residual suites against their per-sample reference loops.

The suites run ``check_ybe`` and ``verify_basis_reduction`` once per block
of ``SAMPLE_BLOCK`` samples; every per-sample residual must be bit-equal to
the one the per-sample call gives, and every gate must still fail closed
when a single sample of a block trips it.
"""

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
from ybekit.rmatrix import bundled_families, check_ybe, type1_r_4x4, type2_r_4x4
from ybekit.tensor import IDENTITY_2, kron
from ybekit.threebody import (
    AngleTriple,
    ConstraintViolation,
    product_form,
    random_constrained_triple,
)

SEEDS = [0, 7, 12345]
COUNTS = [1, checks.SAMPLE_BLOCK - 1, checks.SAMPLE_BLOCK + 1, 1000]
FAMILIES = sorted(bundled_families())


@pytest.mark.parametrize("samples", COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", FAMILIES)
def test_batched_ybe_residuals_equal_the_per_sample_loop(name, seed, samples):
    family = bundled_families()[name]
    pairs = list(checks._ybe_parameters(family, np.random.default_rng(seed), samples))
    reference = np.array([check_ybe(family, p1, p3) for p1, p3 in pairs])
    batched = checks.ybe_residuals(family, np.random.default_rng(seed), samples)
    assert np.array_equal(batched, reference)


@pytest.mark.parametrize("seed", SEEDS)
def test_ybe_suite_reports_the_worst_of_the_per_sample_loop(seed):
    # the families share one generator, drawn in name order
    rng = np.random.default_rng(seed)
    expected = []
    for name in FAMILIES:
        family = bundled_families()[name]
        pairs = list(checks._ybe_parameters(family, rng, 77))
        expected.append(max(check_ybe(family, p1, p3) for p1, p3 in pairs))
    rows = checks.ybe_suite(tol=1e-12, samples=77, seed=seed)
    assert [row.residual for row in rows] == expected


@pytest.mark.parametrize("samples", COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_batched_reduction_residuals_equal_the_per_triple_loop(seed, samples):
    rng = np.random.default_rng(seed)
    reference = np.array([verify_basis_reduction(random_constrained_triple(rng))
                          for _ in range(samples)])
    assert np.array_equal(checks.random_reduction(samples, seed), reference)


def test_stacked_product_and_reduction_are_bit_equal_to_the_matrix_loop():
    # the per-triple 2-D products and the np.vdot reduction loop, as they
    # ran before the stacks; einsum or a two-column matmul would move bits
    rng = np.random.default_rng(11)
    triples = [random_constrained_triple(rng) for _ in range(checks.SAMPLE_BLOCK + 1)]
    basis = fusion_basis_type2(0.0)
    stack = product_form(triples)
    reduced = reduce_operator(embed_three_body(stack), basis)
    r12 = lambda t: kron(type2_r_4x4(float(t)), IDENTITY_2)
    r23 = lambda t: kron(IDENTITY_2, type2_r_4x4(float(t)))
    for k, t in enumerate(triples):
        product = r12(t.t1) @ r23(t.t2) @ r12(t.t3)
        assert np.array_equal(stack[k], product)
        op = kron(product, IDENTITY_2)
        images = [op @ v for v in (basis.e1, basis.e2)]
        loop = np.array([[np.vdot(w, image) for image in images] for w in (basis.e1, basis.e2)])
        assert np.array_equal(reduced[k], loop)


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


def test_one_off_constraint_triple_raises():
    rng = np.random.default_rng(0)
    block = [random_constrained_triple(rng) for _ in range(5)]
    block[3] = AngleTriple(0.1, 0.2, 0.3)
    with pytest.raises(ConstraintViolation):
        product_form(block)
    with pytest.raises(ConstraintViolation):
        verify_basis_reduction(block)


def test_a_nan_sample_survives_the_block():
    family = bundled_families()["type2_2x2"]
    residuals = check_ybe(family, np.array([0.3, np.nan, 0.5]), np.array([0.4, 0.4, 0.4]))
    assert np.isnan(residuals[1]) and np.isfinite(residuals[[0, 2]]).all()
    assert np.isnan(checks.worst(residuals))
