import numpy as np
import pytest

from ybekit.braiding import (
    ALPHA_TYPE1,
    ALPHA_TYPE2,
    PHASE_TYPE1,
    PHASE_TYPE2,
    BraidRep,
    TLRep,
    bell_braid,
    braid2x2_type1,
    braid2x2_type2,
    braid_from_tl,
    braid_rep_from_local,
    check_braid_relations,
    check_tl_relations,
    permutation_matrix,
    quantum_dimension,
    tl2x2_type1,
    tl2x2_type2,
    tl_rep_from_local,
    tl_type1_local,
    tl_type2_local,
)
from ybekit.tensor import norm_inf

SQRT2 = np.sqrt(2.0)


def test_type1_tl_relations_three_sites():
    rep = tl_rep_from_local(tl_type1_local(), 3, 2.0)
    assert max(check_tl_relations(rep).values()) < 1e-14


def test_type2_tl_relations_three_sites():
    rep = tl_rep_from_local(tl_type2_local(), 3, SQRT2)
    assert max(check_tl_relations(rep).values()) < 1e-14


def test_tl_relations_detect_perturbation():
    local = tl_type1_local().copy()
    local[1, 1] += 1e-3
    rep = tl_rep_from_local(local, 3, 2.0)
    report = check_tl_relations(rep)
    worst = max(v for k, v in report.items() if "^2" in k)
    assert 9e-4 < worst < 1e-2  # scales like the injected perturbation


def test_lifting_commutes_with_checking():
    for n_strands in (3, 4):
        rep = tl_rep_from_local(tl_type2_local(), n_strands, SQRT2)
        assert max(check_tl_relations(rep).values()) < 1e-13


def test_quantum_dimension_values():
    assert abs(quantum_dimension(ALPHA_TYPE1) - 2.0) < 1e-14
    assert abs(quantum_dimension(ALPHA_TYPE2) - SQRT2) < 1e-14


def test_braid_from_tl_type1_gives_permutation():
    rep = tl_rep_from_local(tl_type1_local(), 3, 2.0)
    braid = braid_from_tl(ALPHA_TYPE1, rep, PHASE_TYPE1)
    target = braid_rep_from_local(permutation_matrix(), 3)
    for built, expect in zip(braid.generators, target.generators):
        assert norm_inf(built - expect) < 1e-14


def test_braid_from_tl_type2_gives_bell_braid():
    rep = tl_rep_from_local(tl_type2_local(), 3, SQRT2)
    braid = braid_from_tl(ALPHA_TYPE2, rep, PHASE_TYPE2)
    target = braid_rep_from_local(bell_braid(), 3)
    for built, expect in zip(braid.generators, target.generators):
        assert norm_inf(built - expect) < 1e-13


def test_braid_from_tl_rejects_bad_alpha():
    rep = tl_rep_from_local(tl_type1_local(), 3, 2.0)
    with pytest.raises(ValueError, match="unit circle"):
        braid_from_tl(2.0, rep, PHASE_TYPE1)
    with pytest.raises(ValueError, match="inconsistent"):
        braid_from_tl(ALPHA_TYPE2, rep, PHASE_TYPE2)  # alpha for d=sqrt2 against d=2


def test_bell_braid_relations_three_qubits():
    rep = braid_rep_from_local(bell_braid(), 3)
    assert max(check_braid_relations(rep).values()) < 1e-13


def test_two_dim_braid_relations():
    assert max(check_braid_relations(braid2x2_type1()).values()) < 1e-14
    assert max(check_braid_relations(braid2x2_type2()).values()) < 1e-14


def test_identity_generators_pass_trivially():
    rep = BraidRep((np.eye(4, dtype=complex), np.eye(4, dtype=complex)))
    assert max(check_braid_relations(rep).values()) == 0.0


def test_permutation_braid_squares_to_identity():
    p = permutation_matrix()
    assert norm_inf(p @ p - np.eye(4)) == 0.0


def test_bell_braid_eigenvalues():
    evals = np.linalg.eigvals(bell_braid())
    plus = sum(1 for e in evals if abs(e - np.exp(1j * np.pi / 4)) < 1e-13)
    minus = sum(1 for e in evals if abs(e - np.exp(-1j * np.pi / 4)) < 1e-13)
    assert plus == 2 and minus == 2


def test_bundled_tl_to_braid_round_trip():
    cases = [
        (tl_rep_from_local(tl_type1_local(), 3, 2.0), ALPHA_TYPE1, PHASE_TYPE1),
        (tl_rep_from_local(tl_type2_local(), 3, SQRT2), ALPHA_TYPE2, PHASE_TYPE2),
        (tl2x2_type1(), ALPHA_TYPE1, PHASE_TYPE1),
        (tl2x2_type2(), ALPHA_TYPE2, PHASE_TYPE2),
    ]
    for rep, alpha, phase in cases:
        braid = braid_from_tl(alpha, rep, phase)
        assert max(check_braid_relations(braid).values()) < 1e-12


def test_two_dim_tl_relations():
    assert max(check_tl_relations(tl2x2_type1()).values()) < 1e-14
    assert max(check_tl_relations(tl2x2_type2()).values()) < 1e-14


def test_rep_validation():
    for gens in [(np.eye(4, dtype=complex), np.eye(2, dtype=complex)),
                 (np.zeros((2, 3), dtype=complex),), ()]:
        with pytest.raises(ValueError, match="one square shape"):
            TLRep(gens, 2.0)
