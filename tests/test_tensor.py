import numpy as np
import pytest
from hypothesis import given, strategies as st

from ybekit.tensor import kron, kron_all, norm_inf

from reference import (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, dag, expm_involutive, expm_series,
                       is_unitary, ket, partial_trace)

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def random_complex_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_kron_identity():
    assert np.array_equal(kron(IDENTITY_2, IDENTITY_2), np.eye(4))


def test_kron_pauli_pair():
    # oracle: entry (2a+b, 2c+d) = sy[a,c] * sx[b,d]
    expected = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    expected[2 * a + b, 2 * c + d] = SIGMA_Y[a, c] * SIGMA_X[b, d]
    got = kron(SIGMA_Y, SIGMA_X)
    assert np.array_equal(got, expected)
    # nonzero pattern is the antidiagonal with entries +-i
    nz = got[got != 0]
    assert np.allclose(np.abs(nz), 1.0)
    assert np.allclose(got.real, 0.0)


def test_kron_three_factor_oracle():
    # hand-assembled 8x8: entry ((abe),(cdf)) = sy[a,c] sx[b,d] I[e,f]
    expected = np.zeros((8, 8), dtype=complex)
    for a in range(2):
        for b in range(2):
            for e in range(2):
                for c in range(2):
                    for d in range(2):
                        for f in range(2):
                            expected[4 * a + 2 * b + e, 4 * c + 2 * d + f] = (
                                SIGMA_Y[a, c] * SIGMA_X[b, d] * (1.0 if e == f else 0.0)
                            )
    assert np.array_equal(kron(kron(SIGMA_Y, SIGMA_X), IDENTITY_2), expected)


@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=3))
def test_kron_mixed_product(seed, n, m):
    rng = np.random.default_rng(seed)
    a, c = random_complex_matrix(rng, n), random_complex_matrix(rng, n)
    b, d = random_complex_matrix(rng, m), random_complex_matrix(rng, m)
    lhs = kron(a, b) @ kron(c, d)
    rhs = kron(a @ c, b @ d)
    assert norm_inf(lhs - rhs) < 1e-12 * max(1.0, norm_inf(lhs))


def test_kron_associative():
    rng = np.random.default_rng(7)
    a, b, c = (random_complex_matrix(rng, 2) for _ in range(3))
    assert norm_inf(kron(kron(a, b), c) - kron(a, kron(b, c))) < 1e-13


def _unit_involutive_2x2(nx, ny, nz):
    n = np.array([nx, ny, nz])
    n = n / np.linalg.norm(n)
    return 1j * (n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z)


def test_expm_involutive_identity_at_zero():
    m = 1j * kron(SIGMA_Y, SIGMA_X)
    assert np.array_equal(expm_involutive(m, 0.0), np.eye(4))


@given(angles, angles)
def test_expm_involutive_additivity(s, t):
    m = 1j * kron(SIGMA_Y, SIGMA_X)
    lhs = expm_involutive(m, s) @ expm_involutive(m, t)
    rhs = expm_involutive(m, s + t)
    assert norm_inf(lhs - rhs) < 1e-12


@given(angles, st.floats(min_value=-1, max_value=1), st.floats(min_value=-1, max_value=1),
       st.floats(min_value=-1, max_value=1))
def test_expm_involutive_matches_series(t, nx, ny, nz):
    if abs(nx) + abs(ny) + abs(nz) < 1e-3:
        nx = 1.0
    m = _unit_involutive_2x2(nx, ny, nz)
    assert norm_inf(expm_involutive(m, t) - expm_series(t * m)) < 1e-12


def test_expm_involutive_three_qubit_generator():
    # n.L at beta = arccot(sqrt 2), assembled here independently of the
    # threebody module; rotation by pi/3 sends |000> to a state with four
    # amplitudes of modulus 1/2.
    beta = np.arctan(1 / np.sqrt(2))
    l1 = -1j * kron_all(SIGMA_Y, SIGMA_X, IDENTITY_2)
    l2 = -1j * kron_all(IDENTITY_2, SIGMA_Y, SIGMA_X)
    l3 = -1j * kron_all(SIGMA_Y, SIGMA_Z, SIGMA_X)
    m = (np.cos(beta) / np.sqrt(2)) * (l1 + l2) + np.sin(beta) * l3
    rot = expm_involutive(m, np.pi / 3)
    assert norm_inf(rot - expm_series((np.pi / 3) * m)) < 1e-12
    amps = np.abs(rot @ ket("000"))
    expected = np.zeros(8)
    expected[[0b000, 0b011, 0b101, 0b110]] = 0.5
    assert np.allclose(amps, expected, atol=1e-12)


def test_expm_involutive_rejects_bad_generator():
    with pytest.raises(ValueError, match="square to -I"):
        expm_involutive(SIGMA_X, 0.5)  # sigma_x^2 = +I


def test_partial_trace_product_state():
    zero = np.outer(ket("0"), ket("0").conj())
    one = np.outer(ket("1"), ket("1").conj())
    rho = kron(zero, one)
    assert norm_inf(partial_trace(rho, [2, 2], [0]) - zero) < 1e-15


def test_partial_trace_bell_state():
    bell = (ket("00") + ket("11")) / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    for keep in ([0], [1]):
        assert norm_inf(partial_trace(rho, [2, 2], keep) - np.eye(2) / 2) < 1e-15


def test_partial_trace_ghz_point_state():
    psi = np.zeros(8, dtype=complex)
    psi[[0b000, 0b011, 0b101, 0b110]] = 0.5
    rho = np.outer(psi, psi.conj())
    reduced = partial_trace(rho, [2, 2, 2], [0])
    assert norm_inf(reduced - np.diag([0.5, 0.5])) < 1e-15


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_partial_trace_preserves_trace_and_hermiticity(seed):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    reduced = partial_trace(rho, [2, 2, 2], [0, 2])
    assert abs(np.trace(reduced) - np.trace(rho)) < 1e-14
    assert norm_inf(reduced - dag(reduced)) < 1e-13


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError):
        partial_trace(np.eye(8), [2, 2], [0])
    with pytest.raises(ValueError):
        partial_trace(np.eye(8), [2, 2, 2], [5])


def test_is_unitary_identity():
    ok, dev = is_unitary(np.eye(8))
    assert ok and dev == 0.0


def test_is_unitary_families():
    from ybekit.rmatrix import type1_r_4x4, type2_r_4x4

    ok, _ = is_unitary(type2_r_4x4(0.3))
    assert ok
    ok, dev = is_unitary(type1_r_4x4(0.5))
    assert not ok and dev > 1e-2


def test_is_unitary_rejects_rectangular():
    with pytest.raises(ValueError):
        is_unitary(np.ones((2, 3)))


def test_ket_labels():
    assert np.array_equal(ket("011"), np.eye(8)[3])
    with pytest.raises(ValueError):
        ket("01a")
