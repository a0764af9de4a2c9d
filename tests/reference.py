"""Test references of two kinds.

Dense-matrix oracles: independent routes to what the program computes in
closed form (the rotation exp(-eta n.L), the l1-norm of a state's
amplitudes, partial traces with eigensolver entropies, the 3-tangle and
SLOCC class of a general three-qubit state, a Taylor-series matrix
exponential, the Pauli matrices and basis kets they are built from),
which the tests hold the program to within a tolerance.  No subcommand
reaches them, so they live here and not in ``ybekit``.

The Wigner rotation-matrix route to the type-II 2x2 pair
(:func:`wigner_d_half`, :func:`conjugate_by_v`) and the phase angles
that make the rotation matrices braid or solve the Yang-Baxter equation
(:func:`phi_from_theta`, :func:`phi_from_three_thetas`).

Byte references: retired implementations that the tests hold their
replacements to, bit for bit, one per contract (CSV and JSON writers,
landscape sampling, the two-pair fusion states, the verify suites and the
real R-matrix builders as they ran in complex arithmetic).  The expensive
ones are computed once per session.  Accuracy is held against mpmath
instead, in ``test_accuracy.py``.

A completeness oracle: the retired grid finder as a per-node loop
(:func:`_points_loop`), which knows nothing of the critical sets that
``find_critical_points`` enumerates."""

import functools
import itertools
import json
import math

import numpy as np

from ybekit import __version__
from ybekit.entanglement import BISEPARABLE, CLASS_TOL, GHZ_CLASS, PRODUCT, W_CLASS
from ybekit.fusionbasis import phased_antiparallel_state, reduce_three_body
from ybekit.landscape import LOCAL_MAX, LOCAL_MIN, SADDLE, get_function, sample
from ybekit.rmatrix import _type1_scale, bundled_families, galilean, type2_r_4x4
from ybekit.tensor import kron, kron_all, norm_inf, stack
from ybekit.threebody import RANDOM_SPAN, ScatterParams, constrained_triple


# dense-matrix oracles

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

ALGEBRA_TOL = 1e-12   # single algebraic identities at 64-bit precision


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m, dtype=complex).conj().T


def ket(bits: str) -> np.ndarray:
    """Computational basis state from a bit string, e.g. ket("011")."""
    if not bits or any(c not in "01" for c in bits):
        raise ValueError(f"bit string must be nonempty over {{0,1}}, got {bits!r}")
    vec = np.zeros(2 ** len(bits), dtype=complex)
    vec[int(bits, 2)] = 1.0
    return vec


def expm_involutive(m: np.ndarray, t: float) -> np.ndarray:
    """exp(t*M) in closed form for a generator satisfying M^2 = -I.

    Returns cos(t)*I + sin(t)*M.  Raises ValueError when ||M^2 + I||_max
    exceeds ``ALGEBRA_TOL`` since the closed form is then invalid.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"generator must be square, got shape {m.shape}")
    dev = norm_inf(m @ m + np.eye(m.shape[0]))
    if dev > ALGEBRA_TOL:
        raise ValueError(f"generator does not square to -I (deviation {dev:.3e})")
    return np.cos(t) * np.eye(m.shape[0], dtype=complex) + np.sin(t) * m


def expm_series(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring of the Taylor series.

    Independent oracle for :func:`expm_involutive`; makes no structural
    assumption about the generator.
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    scale = norm_inf(m)
    squarings = 0
    if scale > 0.5:
        squarings = int(np.ceil(np.log2(scale / 0.5)))
    x = m / (2 ** squarings)
    term = np.eye(n, dtype=complex)
    out = np.eye(n, dtype=complex)
    for k in range(1, 40):
        term = term @ x / k
        out = out + term
        if norm_inf(term) < 1e-20:
            break
    for _ in range(squarings):
        out = out @ out
    return out


def partial_trace(rho: np.ndarray, dims: list[int], keep: list[int]) -> np.ndarray:
    """Reduced density matrix on the ``keep`` subsystems.

    ``dims`` lists the subsystem dimensions in tensor order; ``keep`` holds
    the (0-based) indices of the subsystems to retain.
    """
    dims = [int(d) for d in dims]
    n = len(dims)
    total = int(np.prod(dims))
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (total, total):
        raise ValueError(f"density matrix shape {rho.shape} does not match dims {dims}")
    keep = sorted(set(int(k) for k in keep))
    if not keep or any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} subsystems")
    row = [chr(ord("a") + i) for i in range(n)]
    col = [chr(ord("a") + n + i) for i in range(n)]
    for j in range(n):
        if j not in keep:
            col[j] = row[j]
    out_idx = "".join(row[k] for k in keep) + "".join(col[k] for k in keep)
    sub = "".join(row) + "".join(col) + "->" + out_idx
    reduced = np.einsum(sub, rho.reshape(dims + dims))
    kept_dim = int(np.prod([dims[k] for k in keep]))
    return reduced.reshape(kept_dim, kept_dim)


def is_unitary(m: np.ndarray, tol: float = ALGEBRA_TOL) -> tuple[bool, float]:
    """Check ||M^dag M - I||_max <= tol; returns (verdict, deviation)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"unitarity check needs a square matrix, got shape {m.shape}")
    dev = norm_inf(dag(m) @ m - np.eye(m.shape[0]))
    return dev <= tol, dev


def von_neumann_entropy(psi: np.ndarray, keep: list[int]) -> float:
    """Entanglement entropy (bits) of a pure state of qubits, their number
    inferred from the state length, across a bipartition.

    ``keep`` selects the qubits of the reduced density matrix.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    n = int(round(math.log2(psi.size)))
    if 2 ** n != psi.size:
        raise ValueError(f"state length {psi.size} is not a power of two")
    rho = np.outer(psi, psi.conj())
    reduced = partial_trace(rho, [2] * n, keep)
    evals = np.linalg.eigvalsh(reduced)
    out = 0.0
    for lam in evals:
        lam = float(lam.real)
        if lam > 1e-15:
            out -= lam * math.log2(lam)
    return out


def l1_norm(psi: np.ndarray) -> float | np.ndarray:
    """Sum of amplitude moduli; one per state of a stack along the last
    axis: the state route to the ``l1_S3`` landscape."""
    return np.sum(np.abs(np.asarray(psi, dtype=complex)), axis=-1)


def wigner_l1(d_matrix: np.ndarray) -> float | np.ndarray:
    """Entry-modulus norm of a spin-1/2 rotation matrix: sum(|entries|)/2.

    Evaluates to |cos(theta)| + |sin(theta)| independently of the phase
    angle.  Only the 2x2 case is supported; a stack of shape (2, 2, ...)
    gives one norm per trailing index.
    """
    d_matrix = np.asarray(d_matrix, dtype=complex)
    if d_matrix.shape[:2] != (2, 2):
        raise ValueError(f"only the spin-1/2 (2x2) case is supported, got {d_matrix.shape}")
    return np.sum(np.abs(d_matrix.reshape(4, *d_matrix.shape[2:])), axis=0) / 2.0


def hyperdeterminant(c):
    """d1 - 2 d2 + 4 d3 of the eight amplitudes c[x] of a three-qubit
    state, x = 4i + 2j + k (Coffman, Kundu and Wootters): d1 sums the
    squares of the four antipodal products c[x] c[7 - x], d2 their six
    pairwise products, and d3 the products over the even- and the
    odd-weight x.  Numbers, arrays and sympy expressions alike."""
    pairs = [c[x] * c[7 - x] for x in (0b000, 0b001, 0b010, 0b100)]
    d1 = sum(p * p for p in pairs)
    d2 = sum(p * q for p, q in itertools.combinations(pairs, 2))
    d3 = c[0b000] * c[0b011] * c[0b101] * c[0b110] + c[0b001] * c[0b010] * c[0b100] * c[0b111]
    return d1 - 2 * d2 + 4 * d3


def three_tangle(psi: np.ndarray) -> float | np.ndarray:
    """The 3-tangle 4|hyperdeterminant| of a three-qubit state, or of each
    state of a (..., 8) stack."""
    return 4.0 * np.abs(hyperdeterminant(np.moveaxis(np.asarray(psi, dtype=complex), -1, 0)))


def classify_slocc(psi: np.ndarray, tol: float = CLASS_TOL) -> str:
    """SLOCC class of a normalized three-qubit pure state by the rule of
    :func:`entanglement_report`, on the dense route: GHZ-class when the
    3-tangle exceeds ``tol``; otherwise W-class when every one-qubit cut
    carries entropy above ``tol``; otherwise biseparable or product by the
    number of cuts that carry none."""
    if three_tangle(psi) > tol:
        return GHZ_CLASS
    entangled = sum(von_neumann_entropy(psi, [k]) > tol for k in range(3))
    return [PRODUCT, BISEPARABLE, BISEPARABLE, W_CLASS][entangled]


def lambda_operators() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three 8x8 generators: mutually anticommuting, each squares to -I."""
    l1 = -1j * kron_all(SIGMA_Y, SIGMA_X, IDENTITY_2)
    l2 = -1j * kron_all(IDENTITY_2, SIGMA_Y, SIGMA_X)
    l3 = -1j * kron_all(SIGMA_Y, SIGMA_Z, SIGMA_X)
    return l1, l2, l3


def n_dot_lambda(beta: float) -> np.ndarray:
    """Unit combination n.L with n = (cos(b)/sqrt2, cos(b)/sqrt2, sin(b))."""
    l1, l2, l3 = lambda_operators()
    c = math.cos(beta) / math.sqrt(2.0)
    return c * l1 + c * l2 + math.sin(beta) * l3


def closed_form(params: ScatterParams) -> np.ndarray:
    """The 8x8 scattering matrix as a closed-form rotation; unitary.

    Equals :func:`product_form` on every constrained triple mapping to
    ``params`` (the minus sign on the rotation angle is what makes the two
    routes coincide under this package's sign conventions).
    """
    return expm_involutive(n_dot_lambda(params.beta), -params.eta)


# the Wigner route and its phase angles

V_MATRIX = np.array([[1, 1j], [1j, 1]], dtype=complex) / np.sqrt(2)


def wigner_d_half(theta, phi):
    """Spin-1/2 rotation matrix [[cos, -sin e^{-i phi}], [sin e^{i phi}, cos]];
    array angles give a (..., 2, 2) stack."""
    c, s = np.cos(theta), np.sin(theta)
    return stack([[c, -s * np.exp(-1j * phi)], [s * np.exp(1j * phi), c]])


def conjugate_by_v(m):
    """V M V^dag with V = [[1, i], [i, 1]]/sqrt(2).

    Maps wigner_d_half(theta, 0) to diag(e^{i theta}, e^{-i theta}) and
    wigner_d_half(theta, pi/2) to the trigonometric mixing matrix, i.e. the
    2x2 pair in the full-angle convention.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    return V_MATRIX @ m @ V_MATRIX.conj().T


def phi_from_theta(theta):
    """Phase angle making the rotation matrices braid at a common theta.

    Solves cos(phi) = cos(2 theta) / (1 - cos(2 theta)) on the principal
    branch [0, pi]; raises ValueError when the ratio leaves [-1, 1].
    """
    c2 = np.cos(2.0 * theta)
    denom = 1.0 - c2
    if abs(denom) < 1e-14:
        raise ValueError(f"no phase solution at theta = {theta} (degenerate rotation)")
    ratio = c2 / denom
    if not -1.0 <= ratio <= 1.0:
        raise ValueError(
            f"no phase solution at theta = {theta}: cos(phi) would be {ratio:.6g}"
        )
    return float(np.arccos(ratio))


def phi_from_three_thetas(theta1, theta2, theta3):
    """Phase angle for the Yang-Baxter equation of rotation matrices.

    cos(phi) = [((tan t1 + tan t3) - tan t2) / (tan t1 tan t2 tan t3) - 1]/2
    on the principal branch.  Galilean triples give 2*pi/3, lorentzian
    triples give pi/2, and equal angles reduce to :func:`phi_from_theta`.
    """
    tans = []
    for t in (theta1, theta2, theta3):
        if abs(np.cos(t)) < 1e-8:
            raise ValueError(f"tangent pole at theta = {t}")
        tan = np.tan(t)
        if abs(tan) < 1e-14:
            raise ValueError(f"vanishing tangent at theta = {t}")
        tans.append(tan)
    t1, t2, t3 = tans
    ratio = 0.5 * (((t1 + t3) - t2) / (t1 * t2 * t3) - 1.0)
    if not -1.0 - 1e-12 <= ratio <= 1.0 + 1e-12:
        raise ValueError(f"no phase solution: cos(phi) would be {ratio:.6g}")
    return float(np.arccos(np.clip(ratio, -1.0, 1.0)))


# fusion bases

def _two_pair_state_loop(pair_a, state_a, pair_b, state_b):
    """The product of two 2-site states on 4 sites, one amplitude at a time."""
    out = np.zeros(16, dtype=complex)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    bits = [0] * 4
                    bits[pair_a[0] - 1] = a
                    bits[pair_a[1] - 1] = b
                    bits[pair_b[0] - 1] = c
                    bits[pair_b[1] - 1] = d
                    idx = 0
                    for bit in bits:
                        idx = (idx << 1) | bit
                    out[idx] += state_a[2 * a + b] * state_b[2 * c + d]
    return out


def _phased_parallel_state(varphi):
    """(|00> - i e^{-i varphi} |11>)/sqrt(2): the phased parallel pair at any
    phase; at phase 0 it has the bits of ``phased_parallel_state()``."""
    return np.array([1, 0, 0, -1j * np.exp(-1j * varphi)], dtype=complex) / np.sqrt(2)


def _type2_basis_phase_general(varphi):
    """The type-II pair (e1, e2) at any phase, and the norm of the
    correction to e2: the defining combination is re-orthogonalized
    against e1 where it is not orthonormal to 1e-13."""
    par, anti = _phased_parallel_state(varphi), phased_antiparallel_state()
    e1 = (_two_pair_state_loop((1, 2), par, (3, 4), par)
          + _two_pair_state_loop((1, 2), anti, (3, 4), anti)) / np.sqrt(2.0)
    e2 = ((1.0 + np.exp(1j * varphi)) * _two_pair_state_loop((2, 3), par, (4, 1), par)
          - (1.0 - np.exp(-1j * varphi)) * _two_pair_state_loop((2, 3), anti, (4, 1), anti)
          ) / np.sqrt(2.0) - e1
    overlap = np.vdot(e1, e2)
    if abs(overlap) > 1e-13 or abs(np.linalg.norm(e2) - 1.0) > 1e-13:
        fixed = e2 - overlap * e1
        fixed = fixed / np.linalg.norm(fixed)
        return e1, fixed, float(np.linalg.norm(fixed - e2))
    return e1, e2, 0.0


# CSV and JSON writers

def _csv_numbers_reference(columns):
    """One ``%.17g`` pass over the columns (name to array, in order)."""
    table = np.column_stack([np.ravel(c) for c in columns.values()])
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    return ",".join(columns) + "\n" + (row * len(table)) % tuple(table.ravel().tolist())


def _json_text_reference(fn, axes, values, meta):
    payload = {
        "fn": fn,
        "axes": [{"name": a.name, "start": a.start, "stop": a.stop, "n": a.n} for a in axes],
        "values": values.reshape(-1).tolist(),
        "meta": dict(meta, version=__version__),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


# landscape sampling: a surface on the dense ij meshgrid, a section, a curve

def _meshgrid_reference(tag, axes):
    return get_function(tag)(*np.meshgrid(*(a.points() for a in axes), indexing="ij"))


def _section_reference(tag, fixed_axis, fixed_value, axis):
    fn, xs = get_function(tag), axis.points()
    return fn(xs, fixed_value) if fixed_axis == "beta" else fn(fixed_value, xs)


def _sample_curve_reference(tag, axis):
    return get_function(tag)(axis.points())


# the retired grid finder, one node and one candidate at a time: the
# completeness oracle of the enumerated critical sets

PLATEAU_TOL = 1e-12  # the finder's tie tolerance between grid values


def _axis_kind_scalar(center, lo, hi):
    if center > min(lo, hi) + PLATEAU_TOL and center >= max(lo, hi) - PLATEAU_TOL:
        return "max"
    if center < max(lo, hi) - PLATEAU_TOL and center <= min(lo, hi) + PLATEAU_TOL:
        return "min"
    return None


def _scan_2d_loop(vals):
    vals = vals.tolist()  # Python floats: the same comparisons, faster
    out = []
    for i in range(1, len(vals) - 1):
        for j in range(1, len(vals[0]) - 1):
            center = vals[i][j]
            kind_eta = _axis_kind_scalar(center, vals[i - 1][j], vals[i + 1][j])
            kind_beta = _axis_kind_scalar(center, vals[i][j - 1], vals[i][j + 1])
            if kind_eta is None or kind_beta is None:
                continue
            if max(abs(v - center) for row in vals[i - 1 : i + 2] for v in row[j - 1 : j + 2]) \
                    < PLATEAU_TOL:
                continue
            if kind_eta == kind_beta:
                diag = [vals[i - 1][j - 1], vals[i - 1][j + 1], vals[i + 1][j - 1], vals[i + 1][j + 1]]
                if kind_eta == "max" and not all(center > d - PLATEAU_TOL for d in diag):
                    continue
                if kind_eta == "min" and not all(center < d + PLATEAU_TOL for d in diag):
                    continue
            out.append((i, j, kind_eta, kind_beta))
    return out


def _scan_1d_loop(vals):
    out = []
    for i in range(1, len(vals) - 1):
        center = vals[i]
        if max(abs(vals[i - 1] - center), abs(vals[i + 1] - center)) < PLATEAU_TOL:
            continue
        kind = _axis_kind_scalar(center, vals[i - 1], vals[i + 1])
        if kind is not None:
            out.append((i, kind))
    return out


def _shrink_bracket_loop(fn1d, lo, hi, want_max, tol):
    """The extremum of a unimodal section in one bracket, by five-point
    steps that keep the two sixths either side of the best point."""
    sign = 1.0 if want_max else -1.0
    while hi - lo > tol:
        sixth = (hi - lo) / 6.0
        xs = [lo] + [lo + i * sixth for i in range(1, 6)] + [hi]
        values = [sign * fn1d(x) for x in xs[1:6]]
        best = values.index(max(values))  # the first of equal values
        if (xs[best], xs[best + 2]) == (lo, hi):
            break
        lo, hi = xs[best], xs[best + 2]
    return 0.5 * (lo + hi)


def _flat_axis_loop(fn1d, x, probe=1e-4):
    f0 = fn1d(x)
    return abs(fn1d(x + probe) - f0) < PLATEAU_TOL and abs(fn1d(x - probe) - f0) < PLATEAU_TOL


def _classify(axis_kinds):
    if all(k == "max" for k in axis_kinds):
        return LOCAL_MAX
    if all(k == "min" for k in axis_kinds):
        return LOCAL_MIN
    return SADDLE


def _refine_2d_loop(fn, start, steps, axis_kinds, refine_tol=1e-8):
    x, y = start
    hx, hy = steps
    for _ in range(3):
        x = _shrink_bracket_loop(lambda u: fn(u, y), x - hx, x + hx, axis_kinds[0] == "max",
                                 refine_tol)
        y = _shrink_bracket_loop(lambda v: fn(x, v), y - hy, y + hy, axis_kinds[1] == "max",
                                 refine_tol)
    if _flat_axis_loop(lambda u: fn(u, y), x) or _flat_axis_loop(lambda v: fn(x, v), y):
        return None
    return (x, y), fn(x, y), _classify(axis_kinds)


@functools.cache
def _points_loop(tag, axes):
    """The retired finder's points before its dedupe, in scan order, as
    (location, value, kind): strict neighborhood comparisons on the grid
    that ``sample`` gives for ``axes``, a tuple of one AxisSpec of at least
    3 points per axis, then per-axis bracket search around each candidate.
    Its interior scan cannot see a point on the grid's edge."""
    spec = get_function(tag)
    grid = sample(tag, axes)
    steps = [(a.stop - a.start) / (a.n - 1) for a in axes]
    if len(spec.chart.axes) == 2:
        etas, betas = axes[0].points(), axes[1].points()
        refined = (_refine_2d_loop(spec, (etas[i], betas[j]), steps, (kind_eta, kind_beta))
                   for i, j, kind_eta, kind_beta in _scan_2d_loop(grid))
        return tuple(p for p in refined if p is not None)
    xs, (h,) = axes[0].points(), steps
    out = []
    for i, kind in _scan_1d_loop(grid):
        x = _shrink_bracket_loop(spec, xs[i] - h, xs[i] + h, kind == "max", 1e-8)
        out.append(((x,), spec(x), LOCAL_MAX if kind == "max" else LOCAL_MIN))
    return tuple(out)


# the verify suites, one sample at a time

def scalar_ybe_parameters(family, rng, samples):
    produced = 0
    while produced < samples:
        if family.rule is galilean:
            p1, p3 = rng.uniform(-0.9, 0.9, size=2)
            if abs(1.0 - (p1 + p3) * (p1 + p3)) < 0.05:
                continue
        else:
            p1, p3 = rng.uniform(0.01, 1.55, size=2)
        produced += 1
        yield float(p1), float(p3)


def scalar_check_ybe(family, p1, p3):
    def roles(p):
        if len(family.evaluators) == 1:
            r = family.evaluators[0](p)
            return kron(r, IDENTITY_2), kron(IDENTITY_2, r)
        return family.evaluators[0](p), family.evaluators[1](p)

    r12_1, r23_1 = roles(p1)
    r12_2, r23_2 = roles(family.rule(p1, p3))
    r12_3, r23_3 = roles(p3)
    return float(np.abs(r12_1 @ r23_2 @ r12_3 - r23_3 @ r12_2 @ r23_1).max())


def scalar_stack(rows):
    """The complex128 (..., d, d) stack of ``rows``, every entry cast to
    complex: what ``tensor.stack`` built before it took the entries' dtype."""
    entries = np.broadcast_arrays(*[np.asarray(e, dtype=complex) for row in rows for e in row])
    return np.stack(entries, axis=-1).reshape(*entries[0].shape, len(rows), len(rows))


# the real builders as they ran in complex arithmetic: a real scale divided
# a complex matrix, which numpy computes as a product with the reciprocal

COMPLEX_PERMUTATION = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


def complex_type1_r_4x4(mu):
    scaled_swap = np.asarray(mu)[..., None, None] * COMPLEX_PERMUTATION
    return (np.eye(4, dtype=complex) + scaled_swap) / _type1_scale(mu)


def complex_type1_r1_2x2(mu):
    return scalar_stack([[1.0 - mu, 0], [0, 1.0 + mu]]) / _type1_scale(mu)


def complex_type1_r2_2x2(mu):
    return scalar_stack(
        [[2 + mu, -np.sqrt(3) * mu], [-np.sqrt(3) * mu, 2 - mu]]
    ) / (2 * _type1_scale(mu))


def complex_type2_r_4x4(theta):
    c, s = np.cos(theta), np.sin(theta)
    return scalar_stack([[c, 0, 0, s], [0, c, s, 0], [0, -s, c, 0], [-s, 0, 0, c]])


def scalar_random_triple(rng):
    t1, t3 = rng.uniform(-1.3, 1.3, size=2)
    t1, t3 = float(t1), float(t3)
    return t1, math.atan2(math.sin(t1 + t3), math.cos(t1 - t3)), t3


def scalar_product(t1, t2, t3):
    r12 = lambda t: kron(type2_r_4x4(t), IDENTITY_2)
    r23 = lambda t: kron(IDENTITY_2, type2_r_4x4(t))
    return r12(t1) @ r23(t2) @ r12(t3)


def scalar_reduce(op, basis):
    """The np.vdot reduction of one 2-D operator, as it ran before the stacks."""
    images = [op @ v for v in (basis.e1, basis.e2)]
    return np.array([[np.vdot(w, image) for image in images] for w in (basis.e1, basis.e2)])


@functools.cache
def ybe_reference(name, seed, counts):
    """Pairs and residuals of the largest of ``counts``, and the generator
    state after each count."""
    family = bundled_families()[name]
    rng = np.random.default_rng(seed)
    pairs, states = [], {}
    for pair in scalar_ybe_parameters(family, rng, max(counts)):
        pairs.append(pair)
        if len(pairs) in counts:
            states[len(pairs)] = rng.bit_generator.state
    residuals = np.array([scalar_check_ybe(family, p1, p3) for p1, p3 in pairs])
    return np.array(pairs), residuals, states


@functools.cache
def reduction_reference(seed, counts):
    """Residuals of the largest of ``counts`` triples, each drawn on its own
    and reduced alone with float angles, and the generator state after each
    count."""
    rng = np.random.default_rng(seed)
    residuals, states = [], {}
    for n in range(1, max(counts) + 1):
        t1, t3 = rng.uniform(-RANDOM_SPAN, RANDOM_SPAN, size=2).tolist()
        residuals.append(reduce_three_body(constrained_triple(t1, t3))[3])
        if n in counts:
            states[n] = rng.bit_generator.state
    return np.array(residuals), states

