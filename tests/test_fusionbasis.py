import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ybekit.braiding import (
    bell_braid,
    check_tl_relations,
    lift_two_site,
    permutation_matrix,
    tl_type1_local,
    tl_type2_local,
    TLRep,
)
from ybekit.fusionbasis import (
    FusionBasis,
    LeakageError,
    fusion_basis_type1,
    fusion_basis_type2,
    phased_antiparallel_state,
    reduce_operator,
    reduce_three_body,
    singlet_state,
    two_pair_state,
)
from ybekit.tensor import lift, norm_inf
from ybekit.threebody import (
    AngleTriple,
    angles_to_params,
    fusion_form,
    product_form,
)

from reference import (_phased_parallel_state, _two_pair_state_loop, _type2_basis_phase_general,
                       scalar_random_triple)

outer = st.floats(min_value=-1.3, max_value=1.3)

GHZ_TRIPLE = AngleTriple(0.0, np.pi / 4, np.pi / 4)
W_TRIPLE = AngleTriple(np.pi / 8, np.arctan(np.sqrt(2.0)), 3 * np.pi / 8)


def _gram_deviation(basis: FusionBasis) -> float:
    return max(
        abs(np.vdot(basis.e1, basis.e1) - 1.0),
        abs(np.vdot(basis.e2, basis.e2) - 1.0),
        abs(np.vdot(basis.e1, basis.e2)),
    )


def test_type1_basis_orthonormal():
    assert _gram_deviation(fusion_basis_type1()) < 1e-14


def test_type2_basis_orthonormal():
    basis = fusion_basis_type2()
    assert _gram_deviation(basis) < 1e-13


def test_type2_basis_is_the_phase_general_construction_at_phase_0():
    """At phase 0 the general construction needs no re-orthogonalization,
    and the fixed-phase basis has its bits."""
    e1, e2, correction = _type2_basis_phase_general(0.0)
    basis = fusion_basis_type2()
    assert correction == 0.0
    assert (basis.e1.tobytes(), basis.e2.tobytes()) == (e1.tobytes(), e2.tobytes())


def test_two_pair_state_requires_cover():
    s = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    with pytest.raises(ValueError):
        two_pair_state((1, 2), s, (2, 3), s)


# the bundled pair states, the phased parallel one at 22 phases, 0 and 0.7 included
PAIR_STATES = [singlet_state(), phased_antiparallel_state(),
               *(_phased_parallel_state(v) for v in [*np.linspace(-np.pi, np.pi, 21), 0.7])]


def test_two_pair_state_is_bit_equal_to_the_retired_loop():
    """Every order of the four sites and every pair of bundled pair states:
    the products of numpy scalars, placed by ``moveaxis``, keep each bit of
    the one-amplitude-at-a-time loop, signed zeros included."""
    for order in itertools.permutations((1, 2, 3, 4)):
        pairs = order[:2], order[2:]
        for a, b in itertools.product(PAIR_STATES, repeat=2):
            got = two_pair_state(pairs[0], a, pairs[1], b)
            assert got.tobytes() == _two_pair_state_loop(pairs[0], a, pairs[1], b).tobytes()


def test_type1_tl_action_on_basis():
    basis = fusion_basis_type1()
    t1 = lift_two_site(tl_type1_local(), 1, 4)
    t2 = lift_two_site(tl_type1_local(), 2, 4)
    t3 = lift_two_site(tl_type1_local(), 3, 4)
    assert norm_inf(t1 @ basis.e1 - 2.0 * basis.e1) < 1e-13
    assert norm_inf(t3 @ basis.e1 - 2.0 * basis.e1) < 1e-13
    assert norm_inf(t1 @ basis.e2) < 1e-13
    assert norm_inf(t3 @ basis.e2) < 1e-13
    combo = 0.5 * (basis.e1 + np.sqrt(3.0) * basis.e2)
    assert norm_inf(t2 @ basis.e1 - combo) < 1e-13
    assert norm_inf(t2 @ basis.e2 - np.sqrt(3.0) * combo) < 1e-13


def test_type2_tl_action_on_basis():
    basis = fusion_basis_type2()
    t1 = lift_two_site(tl_type2_local(), 1, 4)
    t2 = lift_two_site(tl_type2_local(), 2, 4)
    sqrt2 = np.sqrt(2.0)
    assert norm_inf(t1 @ basis.e1 - sqrt2 * basis.e1) < 1e-13
    assert norm_inf(t1 @ basis.e2) < 1e-13
    combo = (basis.e1 + basis.e2) / sqrt2
    assert norm_inf(t2 @ basis.e1 - combo) < 1e-13
    assert norm_inf(t2 @ basis.e2 - combo) < 1e-13


def test_reduce_identity():
    assert norm_inf(reduce_operator(np.eye(16), fusion_basis_type2()) - np.eye(2)) < 1e-14


def test_reduce_bell_braid_generator_one():
    reduced = reduce_operator(lift_two_site(bell_braid(), 1, 4), fusion_basis_type2())
    expected = np.exp(-1j * np.pi / 4) * np.diag([1.0, 1j])
    assert norm_inf(reduced - expected) < 1e-13


def test_reduce_bell_braid_generator_two():
    reduced = reduce_operator(lift_two_site(bell_braid(), 2, 4), fusion_basis_type2())
    expected = np.array([[1, -1j], [-1j, 1]], dtype=complex) / np.sqrt(2.0)
    assert norm_inf(reduced - expected) < 1e-13


def test_reduce_permutation_generator_two():
    reduced = reduce_operator(lift_two_site(permutation_matrix(), 2, 4), fusion_basis_type1())
    expected = 0.5 * np.array([[1, -np.sqrt(3)], [-np.sqrt(3), -1]], dtype=complex)
    assert norm_inf(reduced - expected) < 1e-13


def test_every_bundled_generator_preserves_span():
    type1 = fusion_basis_type1()
    type2 = fusion_basis_type2()
    for pos in (1, 2, 3):
        reduce_operator(lift_two_site(tl_type1_local(), pos, 4), type1, tol=1e-12)
        reduce_operator(lift_two_site(permutation_matrix(), pos, 4), type1, tol=1e-12)
        reduce_operator(lift_two_site(tl_type2_local(), pos, 4), type2, tol=1e-12)
        reduce_operator(lift_two_site(bell_braid(), pos, 4), type2, tol=1e-12)


def test_reduction_is_multiplicative():
    basis = fusion_basis_type2()
    b1 = lift_two_site(bell_braid(), 1, 4)
    b2 = lift_two_site(bell_braid(), 2, 4)
    lhs = reduce_operator(b1 @ b2, basis)
    rhs = reduce_operator(b1, basis) @ reduce_operator(b2, basis)
    assert norm_inf(lhs - rhs) < 1e-12


def test_reduced_tl_generators_satisfy_relations():
    basis = fusion_basis_type2()
    gens = tuple(
        reduce_operator(lift_two_site(tl_type2_local(), pos, 4), basis)
        for pos in (1, 2, 3)
    )
    rep = TLRep(gens, np.sqrt(2.0))
    assert max(check_tl_relations(rep).values()) < 1e-12

    basis1 = fusion_basis_type1()
    gens1 = tuple(
        reduce_operator(lift_two_site(tl_type1_local(), pos, 4), basis1)
        for pos in (1, 2, 3)
    )
    rep1 = TLRep(gens1, 2.0)
    assert max(check_tl_relations(rep1).values()) < 1e-12


def test_reduce_flags_leaking_operator():
    # a projector onto one computational basis state does not preserve the span
    op = np.zeros((16, 16), dtype=complex)
    op[0, 0] = 1.0
    with pytest.raises(LeakageError) as err:
        reduce_operator(op, fusion_basis_type2(), tol=1e-10)
    assert err.value.leakage > 1e-3


def test_reduction_residual_named_preimages():
    assert reduce_three_body(GHZ_TRIPLE)[3] < 1e-11
    assert reduce_three_body(W_TRIPLE)[3] < 1e-11


def test_reduction_residual_random_triples():
    rng = np.random.default_rng(9)
    worst = max(
        reduce_three_body(AngleTriple(*scalar_random_triple(rng)))[3] for _ in range(100)
    )
    assert worst < 1e-10


@given(outer, outer)
def test_reduction_equals_conjugated_closed_form_exactly(t1, t3):
    # no phase between the two once the angle orientation of the
    # fusion-space family is matched (certified in test_certificates.py)
    from ybekit.threebody import constrained_triple

    triple = constrained_triple(t1, t3)
    reduced = reduce_operator(lift(product_form(triple), right=2), fusion_basis_type2())
    target = fusion_form(angles_to_params(triple))
    assert norm_inf(reduced - target.conj()) < 1e-12
    # equivalently: the reduction evaluates the closed form on the negated triple
    mirrored = fusion_form(angles_to_params(AngleTriple(-triple.t1, -triple.t2, -triple.t3)))
    assert norm_inf(reduced - mirrored) < 1e-12
