import dataclasses
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from ybekit import landscape
from ybekit.entanglement import binary_entropy, l1_norm, wigner_l1
from ybekit.landscape import (
    FUNCTIONS,
    AxisSpec,
    CriticalPoint,
    LOCAL_MAX,
    LOCAL_MIN,
    PLATEAU_TOL,
    SADDLE,
    _dedupe,
    _scan,
    _shrink_bracket,
    find_critical_points,
    get_function,
    sample,
)
from ybekit.rmatrix import type2_r_4x4, wigner_d_half
from ybekit.threebody import BETA_STAR, ScatterParams

from conftest import finder_axes
from reference import (_dedupe_quadratic, _meshgrid_reference, _points_loop,
                       _sample_curve_reference, _scan_1d_loop, _scan_2d_loop,
                       _section_reference, _shrink_bracket_loop, closed_form, ket,
                       von_neumann_entropy)

etas = st.floats(min_value=-7.0, max_value=7.0, allow_nan=False)
betas = st.floats(min_value=-1.5, max_value=1.5, allow_nan=False)

TWO_PI = 2 * math.pi


def _closest(points, target):
    return min(points, key=lambda p: sum((a - b) ** 2 for a, b in zip(p.location, target)))


def test_axis_spec_validation():
    with pytest.raises(ValueError):
        AxisSpec("eta", 0.0, -1.0, 10)
    with pytest.raises(ValueError):
        AxisSpec("eta", 0.0, float("nan"), 10)
    with pytest.raises(ValueError, match="axis eta needs finite bounds and a finite width"):
        AxisSpec("eta", -1e308, 1e308, 10)
    assert AxisSpec("eta", -8e307, 8e307, 3).step == 8e307
    single = AxisSpec("eta", 0.5, 0.5, 1)
    assert single.points().tolist() == [0.5]
    # a section at -0.0 keeps its sign, which np.linspace(-0.0, -0.0, 1) drops
    assert math.copysign(1.0, AxisSpec("beta", -0.0, -0.0, 1).points()[0]) == -1.0


def test_unknown_tag_rejected():
    with pytest.raises(ValueError, match="unknown function tag"):
        get_function("l2_S3")


def test_surface_shape_and_constant_row():
    values = sample("l1_S3", [AxisSpec("eta", 0.0, TWO_PI, 40), AxisSpec("beta", -1.5, 1.5, 31)])
    assert values.shape == (40, 31)
    assert np.all(np.isfinite(values))
    # eta = 0 row: the norm is identically 1 whatever beta is
    assert np.allclose(values[0], 1.0, atol=1e-14)


def test_surface_grid_max_near_two():
    values = sample("l1_S3", [AxisSpec("eta", 0.0, TWO_PI, 200),
                              AxisSpec("beta", -math.pi / 2, math.pi / 2, 200)])
    assert abs(values.max() - 2.0) < 1e-4


SURFACE_AXES = [
    (AxisSpec("eta", 0.0, TWO_PI, 3), AxisSpec("beta", -math.pi / 2, math.pi / 2, 3)),
    (AxisSpec("eta", 0.0, TWO_PI, 3), AxisSpec("beta", -1.5, 1.2, 17)),
    (AxisSpec("eta", -7.0, 7.0, 41), AxisSpec("beta", -3.0, 3.0, 5)),
    (AxisSpec("eta", 0.5, 2.0, 23), AxisSpec("beta", 0.1, 1.2, 40)),
    # the coarse grid of the critical-point scan
    (AxisSpec("eta", 0.0, TWO_PI, 400), AxisSpec("beta", -math.pi / 2, math.pi / 2, 400)),
]


@pytest.mark.parametrize("tag", ["l1_S3", "l1_Sprime", "vn_Sprime"])
@pytest.mark.parametrize("axes", SURFACE_AXES, ids=lambda a: f"{a[0].n}x{a[1].n}")
def test_surface_over_broadcast_axes_is_bit_equal_to_meshgrid(tag, axes):
    values = sample(tag, axes)
    oracle = _meshgrid_reference(tag, axes)
    assert values.shape == oracle.shape == (axes[0].n, axes[1].n)
    assert values.tobytes() == oracle.tobytes()


def _axis(name, start, width, n):
    return AxisSpec(name, start, start + width * (n > 1), n)


@given(tag=st.sampled_from(["l1_S3", "l1_Sprime", "vn_Sprime"]),
       fixed=st.sampled_from(["eta", "beta"]), value=st.floats(-7.0, 7.0),
       start=st.floats(-7.0, 7.0), width=st.floats(1e-3, 7.0), n=st.integers(1, 2500))
def test_section_is_a_surface_with_a_one_point_axis(tag, fixed, value, start, width, n):
    """A section's values have the bits of the retired ``section``, a
    1-point moving axis included, in shape (n, 1) or (1, n)."""
    moving = _axis("eta" if fixed == "beta" else "beta", start, width, n)
    point = AxisSpec(fixed, value, value, 1)
    values = sample(tag, [moving, point] if fixed == "beta" else [point, moving])
    assert values.shape == ((n, 1) if fixed == "beta" else (1, n))
    assert values.tobytes() == _section_reference(tag, fixed, value, moving).tobytes()


@given(tag=st.sampled_from(["l1_S3", "l1_Sprime", "vn_Sprime"]),
       eta=st.tuples(st.floats(-7.0, 7.0), st.floats(1e-3, 7.0), st.integers(1, 40)),
       beta=st.tuples(st.floats(-3.0, 3.0), st.floats(1e-3, 3.0), st.integers(1, 40)))
def test_sample_is_bit_equal_to_the_retired_surface_sampler(tag, eta, beta):
    axes = [_axis("eta", *eta), _axis("beta", *beta)]
    assert sample(tag, axes).tobytes() == _meshgrid_reference(tag, axes).tobytes()


@given(tag=st.sampled_from(["l1_wigner", "vn_xi"]), start=st.floats(-7.0, 7.0),
       width=st.floats(1e-3, 7.0), n=st.integers(1, 2500))
def test_sample_is_bit_equal_to_the_retired_curve_sampler(tag, start, width, n):
    axis = _axis("theta", start, width, n)
    values = sample(tag, [axis])
    assert values.shape == (n,)
    assert values.tobytes() == _sample_curve_reference(tag, axis).tobytes()


@pytest.mark.parametrize("tag, names", [
    ("l1_S3", ("beta", "eta")),
    ("l1_S3", ("eta",)),
    ("l1_S3", ("eta", "beta", "theta")),
    ("l1_wigner", ("eta",)),
    ("vn_xi", ("theta", "theta")),
    ("vn_xi", ()),
])
def test_sample_takes_one_axis_per_function_axis_in_order(tag, names):
    with pytest.raises(ValueError, match="has axes"):
        sample(tag, [AxisSpec(name, 0.0, 1.0, 3) for name in names])


@pytest.mark.parametrize("tag, axes", [
    ("vn_xi", [AxisSpec("theta", 0.0, 1.0, 9)]),
    ("vn_Sprime", [AxisSpec("eta", 0.0, 1.0, 9), AxisSpec("beta", 0.5, 0.5, 1)]),
    ("l1_S3", [AxisSpec("eta", 0.0, 1.0, 9), AxisSpec("beta", 0.0, 1.0, 9)]),
])
def test_sample_rejects_non_finite_values(tag, axes, monkeypatch):
    """Curves and sections are checked as surfaces are."""
    spec = get_function(tag)

    def nan_in_the_middle(*args):
        values = spec.fn(*args).copy()
        values.flat[values.size // 2] = math.nan
        return values

    monkeypatch.setitem(FUNCTIONS, tag, dataclasses.replace(spec, fn=nan_in_the_middle))
    with pytest.raises(ValueError, match="non-finite"):
        sample(tag, axes)


@pytest.mark.parametrize("tag", ["l1_Sprime", "vn_Sprime"])
def test_fusion_kernels_hold_a_few_mesh_arrays_not_the_matrix_stack(tag):
    """A 400x400 grid (1.2 MiB per float array) is sampled with a traced
    peak below 12 MiB: the kernels build no (2, 2, 400, 400) complex stack,
    whose 10 MiB and temporaries peaked near 20 MiB."""
    axes = [AxisSpec("eta", 0.0, TWO_PI, 400), AxisSpec("beta", -math.pi / 2, math.pi / 2, 400)]
    tracemalloc.start()
    try:
        values = sample(tag, axes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (400, 400)
    assert peak < 12 * 2 ** 20, peak


def test_vn_section_matches_binary_entropy_formula():
    etas = AxisSpec("eta", 0.0, TWO_PI, 500)
    values = sample("vn_Sprime", [etas, AxisSpec("beta", BETA_STAR, BETA_STAR, 1)])
    for eta, value in zip(etas.points(), values[:, 0]):
        expected = binary_entropy(1.0 / 3.0 + (2.0 / 3.0) * math.cos(eta) ** 2)
        assert abs(value - expected) < 1e-12


def test_l1_sections_match_reduced_formulas():
    etas = AxisSpec("eta", 0.0, TWO_PI, 300)
    values = sample("l1_S3", [etas, AxisSpec("beta", BETA_STAR, BETA_STAR, 1)])
    for eta, value in zip(etas.points(), values[:, 0]):
        expected = abs(math.cos(eta)) + math.sqrt(3.0) * abs(math.sin(eta))
        assert abs(value - expected) < 1e-13
    betas = AxisSpec("beta", -1.5, 1.5, 300)
    values = sample("l1_S3", [AxisSpec("eta", math.pi / 2, math.pi / 2, 1), betas])
    for beta, value in zip(betas.points(), values[0]):
        expected = math.sqrt(2.0) * abs(math.cos(beta)) + abs(math.sin(beta))
        assert abs(value - expected) < 1e-13


def test_section_single_point():
    values = sample("l1_S3", [AxisSpec("eta", math.pi / 3, math.pi / 3, 1),
                              AxisSpec("beta", BETA_STAR, BETA_STAR, 1)])
    assert values.shape == (1, 1)
    assert abs(values[0, 0] - 2.0) < 1e-12


@given(etas, betas)
def test_l1_surface_reflection_symmetries(eta, beta):
    fn = get_function("l1_S3")
    assert abs(fn(eta, beta) - fn(-eta, beta)) < 1e-12
    assert abs(fn(eta, beta) - fn(eta + math.pi, beta)) < 1e-12


def test_curve_sampling():
    axis = AxisSpec("theta", 0.0, math.pi / 2, 100)
    values = sample("l1_wigner", [axis])
    assert values.shape == (100,)
    theta = axis.points()[50]
    assert abs(values[50] - (abs(math.cos(theta)) + abs(math.sin(theta)))) < 1e-14


def test_find_1d_l1_max():
    points = find_critical_points("l1_wigner", finder_axes("l1_wigner", 400))
    assert len(points) == 1
    p = points[0]
    assert p.kind == LOCAL_MAX
    assert abs(p.location[0] - math.pi / 4) < 1e-4
    assert abs(p.value - math.sqrt(2.0)) < 1e-9
    assert p.smooth


def test_find_1d_entropy_max():
    points = find_critical_points("vn_xi", finder_axes("vn_xi", 401))
    assert len(points) == 1
    p = points[0]
    assert p.kind == LOCAL_MAX
    assert abs(p.location[0] - math.pi / 4) < 1e-4
    assert abs(p.value - 1.0) < 1e-9


def test_find_2d_ghz_maximum():
    points = find_critical_points("l1_S3", finder_axes("l1_S3", 200))
    ghz = _closest([p for p in points if p.kind == LOCAL_MAX], (math.pi / 3, BETA_STAR))
    assert abs(ghz.location[0] - math.pi / 3) < 1e-3
    assert abs(ghz.location[1] - BETA_STAR) < 1e-3
    assert abs(ghz.value - 2.0) < 1e-6
    assert ghz.smooth


def test_find_2d_w_saddle():
    points = find_critical_points("l1_S3", finder_axes("l1_S3", 200))
    saddles = [p for p in points if p.kind == SADDLE]
    w = _closest(saddles, (math.pi / 2, BETA_STAR))
    assert abs(w.location[0] - math.pi / 2) < 1e-3
    assert abs(w.location[1] - BETA_STAR) < 1e-3
    assert abs(w.value - math.sqrt(3.0)) < 1e-6
    assert w.axis_kinds == ("min", "max")  # min along eta, max along beta
    assert w.kinks[0] and not w.smooth


def test_find_2d_biseparable_minimum():
    points = find_critical_points("l1_S3", finder_axes("l1_S3", 200))
    minima = [p for p in points if p.kind == LOCAL_MIN]
    bisep = _closest(minima, (math.pi / 2, 0.0))
    assert abs(bisep.location[0] - math.pi / 2) < 1e-3
    assert abs(bisep.location[1]) < 1e-3
    assert abs(bisep.value - math.sqrt(2.0)) < 1e-6


def test_flat_rows_do_not_produce_points():
    # eta = pi is a constant-in-beta line; nothing should be reported there
    points = find_critical_points("l1_S3", finder_axes("l1_S3", 120, ((2.8, 3.5), (-1.0, 1.0))))
    for p in points:
        assert abs(p.location[0] - math.pi) > 1e-3


def test_refined_points_consistent_with_neighbors():
    # each reported point must beat (or sit under) its refined neighborhood
    # in the pattern its kind claims
    fn = get_function("l1_S3")
    h = 1e-6
    for p in find_critical_points("l1_S3", finder_axes("l1_S3", 150)):
        x, y = p.location
        center = fn(x, y)
        eta_pair = (fn(x - h, y), fn(x + h, y))
        beta_pair = (fn(x, y - h), fn(x, y + h))
        for kind, pair in zip(p.axis_kinds, (eta_pair, beta_pair)):
            if kind == "max":
                assert center >= max(pair) - 1e-12
            else:
                assert center <= min(pair) + 1e-12


def test_refinement_converges():
    axes = finder_axes("l1_wigner", 200)
    coarse = find_critical_points("l1_wigner", axes, refine_tol=1e-5)
    fine = find_critical_points("l1_wigner", axes, refine_tol=5e-6)
    assert len(coarse) == len(fine) == 1
    assert abs(coarse[0].location[0] - fine[0].location[0]) < 1e-5


def _entropy(p):
    return -sum(x * math.log2(x) for x in (p, 1.0 - p) if x > 0.0)


def _dense_oracle(tag, *coords):
    """Each landscape value through the dense matrices, one point at a time."""
    if tag in ("l1_S3", "l1_Sprime"):
        return l1_norm(closed_form(ScatterParams(*coords))[:, 0])
    if tag == "vn_Sprime":
        psi = closed_form(ScatterParams(*coords)) @ ket("000")
        return _entropy(abs(psi[0b000]) ** 2 + abs(psi[0b011]) ** 2)
    if tag == "vn_xi":
        return von_neumann_entropy(type2_r_4x4(coords[0]) @ ket("00"), [0])
    return wigner_l1(wigner_d_half(coords[0], 0.0))


def _kernel_inputs(spec):
    if spec.arity == 2:
        return np.meshgrid(np.linspace(-7.0, 7.0, 15), np.linspace(-3.0, 3.0, 13), indexing="ij")
    return (np.linspace(-3.0, 3.0, 41),)


@pytest.mark.parametrize("tag", sorted(FUNCTIONS))
def test_kernel_matches_dense_oracle(tag):
    spec = get_function(tag)
    coords = _kernel_inputs(spec)
    values = spec(*coords)
    for idx in np.ndindex(values.shape):
        point = [float(c[idx]) for c in coords]
        assert abs(values[idx] - _dense_oracle(tag, *point)) < 1e-13, point


@pytest.mark.parametrize("tag", sorted(FUNCTIONS))
def test_kernel_array_call_is_bit_equal_to_float_calls(tag):
    """The scan samples a kernel over arrays and the refinement calls it
    with floats; both must give the same bits."""
    spec = get_function(tag)
    coords = _kernel_inputs(spec)
    values = spec(*coords)
    pointwise = np.array([spec(*(float(c[idx]) for c in coords))
                          for idx in np.ndindex(values.shape)])
    assert values.tobytes() == pointwise.reshape(values.shape).tobytes()


def test_l1_finder_returns_the_full_closed_form_set():
    w = math.acos(1.0 / math.sqrt(3.0))
    expected = (
        [((eta, s * BETA_STAR), 2.0, LOCAL_MAX)  # GHZ
         for eta in (math.pi / 3, 2 * math.pi / 3, 4 * math.pi / 3, 5 * math.pi / 3)
         for s in (1, -1)]
        + [((eta, s * BETA_STAR), math.sqrt(3.0), SADDLE)  # W
           for eta in (math.pi / 2, 3 * math.pi / 2) for s in (1, -1)]
        + [((eta, 0.0), math.sqrt(3.0), SADDLE)
           for eta in (w, math.pi - w, math.pi + w, TWO_PI - w)]
        + [((eta, 0.0), math.sqrt(2.0), LOCAL_MIN) for eta in (math.pi / 2, 3 * math.pi / 2)]
    )
    points = find_critical_points("l1_S3", finder_axes("l1_S3", 400))
    assert len(points) == len(expected) == 18
    for location, value, kind in expected:
        near = [p for p in points
                if all(abs(a - b) < 1e-6 for a, b in zip(p.location, location))]
        assert len(near) == 1, location
        assert near[0].kind == kind, location
        assert abs(near[0].value - value) < 1e-6, location


def _scan_grids():
    rng = np.random.default_rng(5)
    levels = rng.integers(0, 3, size=(40, 40)).astype(float)  # ties and plateaus
    return [
        levels,
        levels + rng.choice([-1.5, -0.5, 0.0, 0.5, 1.5], size=levels.shape) * PLATEAU_TOL,
        rng.normal(size=(30, 50)),
        sample("l1_S3", [AxisSpec("eta", 0.0, TWO_PI, 120), AxisSpec("beta", -1.6, 1.6, 90)]),
        # every interior node is extreme along axis 0; transposed, about 2/3 are
        (-1.0) ** np.arange(37)[:, None] + 1e-3 * rng.uniform(-1.0, 1.0, size=(37, 41)),
    ]


@pytest.mark.parametrize("case", range(5), ids=["levels", "ties", "noise", "l1_S3", "alternating"])
def test_array_scans_match_the_per_node_loop(case):
    """A scan may treat its axes differently, so each grid is also
    scanned transposed."""
    vals = _scan_grids()[case]
    for grid in (vals, vals.T):
        assert list(zip(*_scan(grid))) == _scan_2d_loop(grid)
    for line in (*vals, *vals.T):
        assert list(zip(*_scan(line))) == _scan_1d_loop(line)


def _columns(points):
    return (np.array([p.location for p in points]), np.array([p.value for p in points]),
            np.array([p.kind for p in points]), np.array([p.axis_kinds for p in points]),
            np.array([p.kinks for p in points]))


FINDER_CASES = (
    [(tag, None, coarse) for tag in sorted(FUNCTIONS) for coarse in (400, 101)]
    + [(tag, ((0.5, 2.0), (0.1, 1.2)), 200) for tag in ("l1_S3", "l1_Sprime", "vn_Sprime")]
    + [(tag, domain, coarse) for tag in ("l1_wigner", "vn_xi")
       for domain, coarse in ((((0.2, 1.4),), 400), (((-3.0, 3.0),), 777))]
)


@pytest.mark.parametrize("tag, domain, n", FINDER_CASES)
def test_lockstep_refinement_matches_per_candidate_loop(tag, domain, n):
    axes = finder_axes(tag, n, domain)
    points = find_critical_points(tag, axes)
    reference = _dedupe_quadratic(list(_points_loop(tag, axes)), 1e-7)
    assert len(points) == len(reference) > 0
    for got, want in zip(_columns(points), _columns(reference)):
        assert np.array_equal(got, want)


def test_lockstep_brackets_stop_on_their_own():
    """Brackets of different widths take different step counts; so do
    brackets of one nominal width whose rounded widths straddle the
    tolerance.  Each must end where its own float search ends."""
    axis = AxisSpec("theta", -3.0, 3.0, 777)
    centers = axis.points()[1:-1]
    fn = get_function("l1_wigner")
    rounded = (centers - axis.step, centers + axis.step)
    scales = np.geomspace(1e-9, 1.0, centers.size)
    cases = [
        (*rounded, float(np.min(rounded[1] - rounded[0]))),
        (centers - scales, centers + 2.0 * scales, 1e-8),
    ]
    want_max = np.arange(centers.size) % 3 != 0
    for lo, hi, tol in cases:
        loop = [_shrink_bracket_loop(fn, a, b, m, tol) for a, b, m in zip(lo, hi, want_max)]
        assert len({steps for _, steps in loop}) > 1
        sizes = []
        lockstep = _shrink_bracket(lambda u, k: sizes.append(u.size) or fn(u), lo, hi, want_max, tol)
        assert np.array_equal(lockstep, [x for x, _ in loop])
        # one kernel call per step, at both ends of every bracket still searching
        steps = [abs(n) for _, n in loop]
        assert (len(sizes), sum(sizes)) == (max(steps), 2 * sum(steps))


@pytest.mark.parametrize("tol", [1e-16, 3e-16, 0.0])
def test_brackets_below_float_spacing_stop(tol):
    """A bracket that no step can narrow further stops where a search of
    its own stops; brackets beside it that reach ``tol`` keep their bits.
    The kernel raises after far more calls than any search needs, so a
    bracket that never stops fails the test instead of hanging it."""
    centers = np.concatenate([np.geomspace(1e-3, 3.0, 40), -np.geomspace(1e-3, 3.0, 40)])
    lo, hi = centers - 1e-3, centers + 2e-3
    want_max = np.arange(centers.size) % 2 == 0
    kernel = get_function("l1_wigner")
    loop = [_shrink_bracket_loop(kernel, a, b, m, tol) for a, b, m in zip(lo, hi, want_max)]
    stuck = [steps < 0 for _, steps in loop]
    assert any(stuck) and (tol == 0.0 or not all(stuck))
    calls = []

    def fn(u, k):
        calls.append(u.size)
        if len(calls) > 10000:
            raise RuntimeError("bracket search does not stop")
        return kernel(u)

    assert np.array_equal(_shrink_bracket(fn, lo, hi, want_max, tol), [x for x, _ in loop])
    steps = [abs(n) for _, n in loop]
    assert (len(calls), sum(calls)) == (max(steps), 2 * sum(steps))


@pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan])
def test_finders_reject_non_positive_tol(tol):
    with pytest.raises(ValueError, match="tolerance must be positive"):
        find_critical_points("l1_S3", finder_axes("l1_S3", 20), refine_tol=tol)
    with pytest.raises(ValueError, match="tolerance must be positive"):
        find_critical_points("l1_wigner", finder_axes("l1_wigner", 400), refine_tol=tol)


@pytest.mark.parametrize("tag, domains", [
    ("l1_S3", [("eta", 0.0, 1.0)]),
    ("l1_S3", [("eta", 0.0, 1.0), ("beta", 0.0, 1.0), ("beta", 0.0, 1.0)]),
    ("l1_wigner", [("theta", 0.0, 1.0), ("theta", 0.0, 1.0)]),
    ("vn_xi", []),
    ("l1_S3", [("x", 0.0, 1.0), ("y", 0.0, 1.0)]),
    ("l1_S3", [("beta", 0.0, 1.0), ("eta", 0.0, 1.0)]),
    ("vn_xi", [("eta", 0.0, 1.0)]),
])
def test_finder_rejects_one_domain_per_axis_mismatch(tag, domains):
    """The finder scans one named axis per axis of the function, in its
    order: ``zip`` would silently drop an extra axis or one left out, and
    a swapped pair would scan the landscape with its axes exchanged."""
    with pytest.raises(ValueError, match="has axes"):
        find_critical_points(tag, [AxisSpec(name, lo, hi, 5) for name, lo, hi in domains])


@pytest.mark.parametrize("tag", ["l1_wigner", "l1_S3"])
def test_finder_rejects_too_coarse_a_grid(tag):
    """A 1-point section axis samples, but a scan along it finds nothing;
    each axis short of 3 points is named."""
    fine, short = finder_axes(tag, 9), get_function(tag).axes[-1]
    for axis in (AxisSpec(short, 0.0, 1.0, 2), AxisSpec(short, 0.5, 0.5, 1)):
        with pytest.raises(ValueError, match=f"axis {short} needs at least 3 points"):
            find_critical_points(tag, (*fine[:-1], axis))
    with pytest.raises(ValueError, match=f"axis {fine[0].name} needs at least 3 points"):
        find_critical_points(tag, finder_axes(tag, 2))


@pytest.mark.parametrize("tag", ["vn_xi", "vn_Sprime"])
def test_finder_rejects_a_non_finite_coarse_node(tag, monkeypatch):
    """A NaN on the coarse grid fails every comparison of the scan, so it
    would silently drop the candidates around it; the finder must raise."""
    spec = get_function(tag)
    calls = []

    def nan_at_one_coarse_node(*args):
        values = spec.fn(*args)
        if not calls:  # the first call samples the coarse grid
            values = values.copy()
            values.flat[values.size // 2] = math.nan
        calls.append(1)
        return values

    monkeypatch.setitem(FUNCTIONS, tag, dataclasses.replace(spec, fn=nan_at_one_coarse_node))
    with pytest.raises(ValueError, match="non-finite"):
        find_critical_points(tag, finder_axes(tag, 41))
    assert len(calls) == 1


@pytest.mark.parametrize("tag", ["vn_xi", "vn_Sprime"])
def test_finder_rejects_a_non_finite_refined_point(tag, monkeypatch):
    """A NaN in the refinement fails every comparison of the bracket
    search, so it would come back as a point; the finder must raise."""
    spec = get_function(tag)
    calls = []

    def nan_after_the_coarse_grid(*args):
        values = spec.fn(*args)
        calls.append(1)
        return values if len(calls) == 1 else np.full_like(values, math.nan)

    monkeypatch.setitem(FUNCTIONS, tag, dataclasses.replace(spec, fn=nan_after_the_coarse_grid))
    with pytest.raises(ValueError, match="non-finite"):
        find_critical_points(tag, finder_axes(tag, 41))
    assert len(calls) > 1


HUGE_AND_SUBNORMAL = st.sampled_from([1.7e308, -1.7e308, 1e308, 5e-324, -5e-324, 1.5e-323,
                                      2.2250738585072014e-308, 0.0])


@given(st.one_of(HUGE_AND_SUBNORMAL, st.floats(allow_nan=False, allow_infinity=False)),
       st.one_of(HUGE_AND_SUBNORMAL, st.floats(allow_nan=False, allow_infinity=False)))
@example(5e-324, 5e-324)
@example(1.7e308, 1.7e308)
def test_bracket_midpoint_keeps_the_bits_of_the_halved_sum(a, b):
    """A bracket of finite width, as every bracket inside an axis is,
    returns a finite midpoint inside it, with the bits of
    ``0.5 * (lo + hi)`` wherever that sum is finite; halving the ends
    first would round on subnormal brackets.  An infinite tolerance
    leaves the bracket as it is given."""
    assume(math.isfinite(max(a, b) - min(a, b)))
    lo, hi = np.array([min(a, b)]), np.array([max(a, b)])
    with np.errstate(over="ignore"):
        plain = 0.5 * (lo + hi)
    mid = _shrink_bracket(lambda u, k: u, lo, hi, np.array([True]), math.inf)
    assert np.isfinite(mid).all() and lo <= mid <= hi
    if np.isfinite(plain).all():
        assert mid.tobytes() == plain.tobytes()


@pytest.mark.parametrize("tag", sorted(FUNCTIONS))
def test_point_count_does_not_depend_on_refine_tol(tag):
    """Below ~1e-8 a tighter tolerance cannot place a smooth extremum more
    finely, so it must not split one extremum into several points."""
    axes = finder_axes(tag, 400)
    counts = {tol: Counter(p.kind for p in find_critical_points(tag, axes, refine_tol=tol))
              for tol in (1e-8, 1e-10, 1e-12, 1e-16)}
    assert all(c == counts[1e-8] for c in counts.values()), counts
    if tag == "l1_wigner":
        assert counts[1e-10] == {LOCAL_MAX: 1}
    if tag in ("l1_S3", "l1_Sprime"):
        assert counts[1e-16] == {LOCAL_MAX: 8, LOCAL_MIN: 2, SADDLE: 8}


@pytest.mark.parametrize("tag", sorted(FUNCTIONS))
def test_default_tol_dedupes_at_ten_tolerances(tag, monkeypatch):
    """The floor lies at the default tolerance's dedupe distance, so the
    default output is the one a dedupe at 10 * refine_tol gives."""
    assert landscape._dedupe_tol(1e-8) == 1e-8 * 10.0
    axes = finder_axes(tag, 400)
    points = find_critical_points(tag, axes)
    monkeypatch.setattr(landscape, "_dedupe_tol", lambda tol: tol * 10.0)
    assert find_critical_points(tag, axes) == points


def _near_duplicates():
    """Points around a few centers, offset by halves of the tolerance on
    each axis, of mixed kinds.  Centers, offsets and the tolerance are
    dyadic, so coordinates differ by exactly 0.5, 1 or 1.5 tolerances and
    the ``<= tol`` boundary is hit exactly; many share a first coordinate."""
    rng = np.random.default_rng(11)
    tol = 2.0 ** -23
    offsets = np.array([-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5]) * tol
    kinds = (LOCAL_MAX, LOCAL_MIN, SADDLE)
    points = []
    for cx, cy in rng.integers(-1024, 1024, size=(6, 2)) / 1024.0:
        for dx in offsets:
            for dy in rng.choice(offsets, size=3):
                points.append(CriticalPoint((cx + dx, cy + dy), 0.0, kinds[rng.integers(3)],
                                            ("max", "max"), (False, False)))
    for cx in rng.integers(-1024, 1024, size=4) / 1024.0:
        for dx in rng.choice(offsets, size=5):
            points.append(CriticalPoint((cx + dx,), 0.0, kinds[rng.integers(2)], ("max",),
                                        (False,)))
    rng.shuffle(points)
    return points, tol


def test_sorted_dedupe_matches_quadratic_dedupe():
    synthetic, tol = _near_duplicates()
    for points in (list(_points_loop("vn_Sprime", finder_axes("vn_Sprime", 400))),
                   list(_points_loop("l1_S3", finder_axes("l1_S3", 400))),
                   [p for p in synthetic if len(p.location) == 2],
                   [p for p in synthetic if len(p.location) == 1]):
        kept = _dedupe(points, tol)
        assert [id(p) for p in kept] == [id(p) for p in _dedupe_quadratic(points, tol)]
    assert _dedupe([], tol) == []
