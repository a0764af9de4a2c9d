import dataclasses
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ybekit.entanglement import (BISEPARABLE, GHZ_CLASS, W_CLASS, binary_entropy, cut_entropy,
                                 entanglement_report, weighted_l1)
from ybekit.landscape import (
    CIRCLE,
    FUNCTIONS,
    FUSION,
    LOCAL_MAX,
    LOCAL_MIN,
    MAX_PREIMAGES,
    RIDGE,
    SADDLE,
    SPHERE,
    AxisSpec,
    LandscapeFunction,
    find_critical_points,
    get_function,
    sample,
)
from ybekit.rmatrix import type2_r_4x4
from ybekit.tensor import STACK_BYTES, block_size, by_blocks
from ybekit.threebody import BETA_STAR, ScatterParams, state_coordinates

from conftest import finder_axes, reading
from reference import (_meshgrid_reference, _points_loop, _sample_curve_reference,
                       _section_reference, closed_form, ket, l1_norm, von_neumann_entropy,
                       wigner_d_half, wigner_l1)

etas = st.floats(min_value=-7.0, max_value=7.0, allow_nan=False)
betas = st.floats(min_value=-1.5, max_value=1.5, allow_nan=False)

TWO_PI = 2 * math.pi
BLOCK = STACK_BYTES // 8  # values per block of a sampled mesh


def _closest(points, target):
    return min(points, key=lambda p: sum((a - b) ** 2 for a, b in zip(p.location, target)))


def test_axis_spec_validation():
    with pytest.raises(ValueError):
        AxisSpec("eta", 0.0, -1.0, 10)
    with pytest.raises(ValueError):
        AxisSpec("eta", 0.0, float("nan"), 10)
    with pytest.raises(ValueError, match="axis eta needs finite bounds and a finite width"):
        AxisSpec("eta", -1e308, 1e308, 10)
    assert AxisSpec("eta", -8e307, 8e307, 3).points().tolist() == [-8e307, 0.0, 8e307]
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
    # the grid the retired critical-point finder scanned
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


@pytest.mark.parametrize("n", [BLOCK + 1, 3 * BLOCK + 5])
@pytest.mark.parametrize("tag", list(FUNCTIONS))
def test_sections_and_curves_of_several_strips_keep_their_bits(tag, n):
    """A curve, or a section along either axis, of more points than a block
    has the bits of one call of the function over all its points."""
    if len(FUNCTIONS[tag].chart.axes) == 1:
        axis = AxisSpec("theta", -0.0, 7.0, n)
        assert sample(tag, [axis]).tobytes() == _sample_curve_reference(tag, axis).tobytes()
        return
    for fixed, moving in (("beta", AxisSpec("eta", -0.0, 7.0, n)),
                          ("eta", AxisSpec("beta", -3.2, 3.2, n))):
        point = AxisSpec(fixed, 0.7, 0.7, 1)
        values = sample(tag, [moving, point] if fixed == "beta" else [point, moving])
        assert values.tobytes() == _section_reference(tag, fixed, 0.7, moving).tobytes()


@pytest.mark.parametrize("tag", list(FUNCTIONS))
def test_sample_calls_a_function_on_a_strip_at_a_time(tag, monkeypatch):
    """Whatever its measure, a registered function is called on at most
    BLOCK values at a time: a 400x400 surface, a section along the second
    axis and a curve, each of several blocks, are covered once."""
    spec, sizes = FUNCTIONS[tag], []

    def counted(coords):
        values = spec.measure(coords)
        sizes.append(values.size)
        return values

    monkeypatch.setitem(FUNCTIONS, tag, reading(spec, counted))
    if len(spec.chart.axes) == 1:
        meshes = [[AxisSpec("theta", 0.0, 1.0, 3 * BLOCK + 5)]]
    else:
        meshes = [[AxisSpec("eta", 0.0, 1.0, 400), AxisSpec("beta", 0.0, 1.0, 400)],
                  [AxisSpec("eta", 0.5, 0.5, 1), AxisSpec("beta", 0.0, 1.0, 3 * BLOCK + 5)]]
    for axes in meshes:
        sizes.clear()
        values = sample(tag, axes)
        assert sum(sizes) == values.size and max(sizes) <= BLOCK, sizes


def _meshes(n):
    """Factor shapes of meshes cut into blocks of at most ``n`` elements."""
    return [
        [(37, 1), (1, n // 5)],  # a surface: blocks of rows
        [(1, 3 * n + 1), ()],  # a section along the second axis, times a float
        [(1, 5, n // 3), (5, 1)],  # the first axis longer than 1 is the second
        [(n + 1,), (n + 1,)],  # a curve
        [(n // 16, 1), (1, 8)],  # one block
        [(0, 3), ()],  # an empty mesh, one call
        [(3, 1, 1), (1, 2, 2 * n + 7)],  # rows of rows longer than a block
    ]


# (size, whether the kernel appends a (2, 2) axis, the factor shapes): the
# landscape blocks with plain values, then both kernels at each block size
BLOCK_CASES = [
    *(pytest.param(BLOCK, False, shapes, id=str(shapes)) for shapes in [
        [(301, 1), (1, 283)],
        [(1, 3 * BLOCK + 1), ()],
        [(1, 5, 3000), (5, 1)],
        [(BLOCK + 1,), (BLOCK + 1,)],
        [(40, 1), (1, 50)],
    ]),
    *(pytest.param(size, trailing, shapes, id=f"{size}-{'2x2-' * trailing}{shapes}")
      for size in (BLOCK, block_size(2), block_size(8)) for trailing in (False, True)
      for shapes in _meshes(size) if size != BLOCK or trailing),
]


@pytest.mark.parametrize("size, trailing, shapes", BLOCK_CASES)
def test_strips_cover_the_mesh_a_bounded_piece_at_a_time(size, trailing, shapes):
    """The blocks cover the broadcast mesh once, none of them more than
    ``size`` elements, and give the bits of one call over the mesh, with
    any trailing axes the kernel appends to each element.  No two
    consecutive blocks would fit in one, and where one index of the first
    axis longer than 1 fits in a block, all but the last block hold more
    than half of ``size``."""
    rng = np.random.default_rng(33)
    x, y = (rng.uniform(-2.0, 2.0, shape)[()] for shape in shapes)
    sizes = []

    def kernel(a, b):
        sizes.append(np.broadcast(a, b).size)
        v = a * b - a
        return np.stack([v, v + b, -v, a - v], -1).reshape(v.shape + (2, 2)) if trailing else v

    value = by_blocks(kernel, x, y, size=size)
    pieces, whole, mesh = sizes[:], kernel(x, y), np.broadcast(x, y)
    assert value.shape == whole.shape and value.tobytes() == whole.tobytes()
    assert sum(pieces) == mesh.size and max(pieces) <= size
    assert all(a + b > size for a, b in zip(pieces, pieces[1:]))  # no needless calls
    if mesh.size // next((n for n in mesh.shape if n > 1), 1) <= size:
        assert all(piece > size / 2 for piece in pieces[:-1])


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

    def nan_in_the_middle(coords):
        values = spec.measure(coords).copy()
        values.flat[values.size // 2] = math.nan
        return values

    monkeypatch.setitem(FUNCTIONS, tag, reading(spec, nan_in_the_middle))
    with pytest.raises(ValueError, match="non-finite"):
        sample(tag, axes)


@pytest.mark.parametrize("tag, mib", [pytest.param("l1_S3", 1.64, id="l1_S3"),
                                      pytest.param("l1_Sprime", 1.64, id="l1_Sprime"),
                                      pytest.param("vn_Sprime", 1.87, id="vn_Sprime")])
def test_fusion_kernels_hold_a_few_mesh_arrays_not_the_matrix_stack(tag, mib):
    """A 400x400 grid (1.2 MiB per float array) is sampled with a traced
    peak of its values and a few blocks: the kernels build no (2, 2, 400,
    400) complex stack, whose 10 MiB and temporaries peaked near 20 MiB,
    and no grid-sized temporaries, with which l1_Sprime peaked at 3.7 MiB
    and vn_Sprime at 9.9 MiB.  The maps yield their three coordinates one
    at a time, for peaks of 1.61 MiB for the l1 landscapes and 1.81 MiB for
    vn_Sprime; returned as a tuple, all three held, they peaked at 1.669
    and 1.929 MiB, above these bounds."""
    axes = [AxisSpec("eta", 0.0, TWO_PI, 400), AxisSpec("beta", -math.pi / 2, math.pi / 2, 400)]
    sample(tag, axes)  # the axis points, and whatever numpy sets up on a first call
    tracemalloc.start()
    try:
        values = sample(tag, axes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (400, 400)
    assert peak < mib * 2 ** 20, peak


def test_axis_points_are_built_once_and_read_only():
    """Every caller of one axis shares its points, so none may write them."""
    axis = AxisSpec("eta", -0.0, 1.0, 7)
    points = axis.points()
    assert axis.points() is points and not points.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        points[1] = 0.5
    expected = np.linspace(-0.0, 1.0, 7)
    expected[0] = -0.0
    assert points.tobytes() == expected.tobytes()


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
    if len(spec.chart.axes) == 2:
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


def _consistency_inputs(spec):
    """The dense-oracle grid, 1000 seeded points of the default domain, and
    a point where a numpy float's ``** 2`` rounds apart from the array
    square (numpy 2.4, x86-64), which once split the float and array calls
    of vn_xi and vn_Sprime; flat, one array per axis."""
    rng = np.random.default_rng(41)
    grid = np.broadcast_arrays(*_kernel_inputs(spec))
    seeded = [rng.uniform(lo, hi, 1000) for lo, hi in spec.chart.domain]
    split = {("theta",): [0.22880459429307234],
             ("eta", "beta"): [5.0709817017556755, -0.1357456672205808]}[spec.chart.axes]
    return [np.concatenate([g.ravel(), s, [x]]) for g, s, x in zip(grid, seeded, split)]


@pytest.mark.parametrize("tag", sorted(FUNCTIONS))
def test_kernel_array_call_is_bit_equal_to_float_calls(tag):
    """``landscape`` samples a kernel over arrays and ``state`` calls it
    with floats; both, and a 0-d or 1-element array, give the same bits,
    and a float gives a numpy float."""
    spec = get_function(tag)
    coords = _consistency_inputs(spec)
    values = spec(*coords)
    for k, point in enumerate(zip(*(c.tolist() for c in coords))):
        value = spec(*point)
        assert type(value) is np.float64 and value.tobytes() == values[k].tobytes(), point
        for form in (np.array, lambda t: np.array([t])):
            assert np.ravel(spec(*map(form, point))).tobytes() == value.tobytes(), point


def test_l1_wigner_curve_peaks_below_the_matrix_route():
    """A 100,000-point curve peaks at 2.3 MiB, where the (2, 2, n) complex
    stack of the matrix route peaked at 10.7 MiB."""
    l1_wigner = get_function("l1_wigner")
    theta = np.linspace(0.0, math.pi / 2, 100_000)
    tracemalloc.start()
    try:
        l1_wigner(theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2 ** 20, peak




# ---------------------------------------------------------------------------
# critical points: enumerated from the measures and charts, checked by
# probes and by the retired grid finder, neither of which knows the lemma
# ---------------------------------------------------------------------------

# the default box, then the boxes of ``extrema --eta 0.5:2.5 --beta -1:1``
# and ``--eta -10:10 --beta -4:4``, and a curve's boxes like them
BOXES = {2: [None, ((0.5, 2.5), (-1.0, 1.0)), ((-10.0, 10.0), (-4.0, 4.0))],
         1: [None, ((0.5, 2.5),), ((-10.0, 10.0),)]}
RING = 16  # directions of the probe ring of a surface point; a curve point has two
RADIUS = 1e-5


def _rows(tag, box=None):
    return find_critical_points(tag, box or get_function(tag).chart.domain)


@pytest.mark.parametrize("box", range(3), ids=["default", "narrow", "wide"])
@pytest.mark.parametrize("tag", sorted(FUNCTIONS))
def test_a_ring_of_probes_confirms_every_kind(tag, box):
    """At radius 1e-5 around each row, in 16 directions (2 on a curve): a
    local max has every probe below it, a local min every probe above, a
    saddle probes on both sides, and a ridge none above by more than 4
    ulps and some below.  Each row's value is the landscape's there."""
    spec = get_function(tag)
    points = _rows(tag, BOXES[len(spec.chart.axes)][box])
    assert points
    if len(spec.chart.axes) == 2:
        angles = 2.0 * np.pi * np.arange(RING) / RING
        directions = np.stack([np.cos(angles), np.sin(angles)])
    else:
        directions = np.array([[1.0, -1.0]])
    for p in points:
        center = spec(*p.location)
        assert center == p.value, p
        ring = spec(*(x + RADIUS * d for x, d in zip(p.location, directions)))
        above, below = ring > center, ring < center
        assert {LOCAL_MAX: below.all(), LOCAL_MIN: above.all(),
                SADDLE: above.any() and below.any(),
                RIDGE: np.all(ring - center <= 4 * np.spacing(center)) and below.any()
                }[p.kind], (p, ring - center)


def _on_an_edge(tag, location):
    return any(x in bounds for x, bounds in zip(location, get_function(tag).chart.domain))


@pytest.mark.parametrize("coarse", [121, 200, 401])
@pytest.mark.parametrize("tag", sorted(FUNCTIONS))
def test_the_grid_finder_finds_nothing_the_enumeration_lacks(tag, coarse):
    """Each point the retired grid finder finds in the default box lies
    within 1e-7 of a row of its kind; vn_Sprime's points, hundreds on its
    maximum set, lie on that set, a = +-c, cos^2 eta = sin^2 beta sin^2 eta,
    within 1e-6.  The rows it misses are exactly the edge preimages, which
    its interior scan cannot see, and the ridge crossings."""
    rows = _rows(tag)
    found = _points_loop(tag, finder_axes(tag, coarse))
    assert found
    matched = set()
    for location, _, kind in found:
        if tag == "vn_Sprime":
            eta, beta = location
            assert abs(math.cos(eta) ** 2 - (math.sin(beta) * math.sin(eta)) ** 2) < 1e-6
            continue
        near = {k for k, p in enumerate(rows) if p.kind == kind
                and max(abs(a - b) for a, b in zip(p.location, location)) < 1e-7}
        assert near, (location, kind)
        matched |= near
    missed = {k for k in range(len(rows)) if k not in matched}
    assert missed == {k for k, p in enumerate(rows)
                      if p.kind == RIDGE or _on_an_edge(tag, p.location)}


def test_default_boxes_give_the_closed_form_sets():
    """Both l1 surfaces: 8 GHZ maxima at 2, 16 saddles (8 W points at
    sqrt 3 and 8 edge preimages of (|000> +- |101>)/sqrt2 at sqrt 2) and 6
    minima (2 biseparable at sqrt 2, 4 edge preimages of +-|101> at 1).
    vn_Sprime: ridges at +-b and 4 edge minima at +-c.  The curves: their
    minima at 0 and pi/2 and the maximum at pi/4.  Values within 2 ulps."""
    w = math.acos(1.0 / math.sqrt(3.0))
    half, ghz_etas = math.pi / 2, [k * math.pi / 3 for k in (1, 2, 4, 5)]
    l1 = ([((e, s * BETA_STAR), 2.0, LOCAL_MAX) for e in ghz_etas for s in (1, -1)]
          + [((e, s * BETA_STAR), math.sqrt(3.0), SADDLE) for e in (half, 3 * half) for s in (1, -1)]
          + [((e, 0.0), math.sqrt(3.0), SADDLE) for e in (w, math.pi - w, math.pi + w, TWO_PI - w)]
          + [((k * math.pi / 4, s * half), math.sqrt(2.0), SADDLE) for k in (1, 3, 5, 7)
             for s in (1, -1)]
          + [((e, 0.0), math.sqrt(2.0), LOCAL_MIN) for e in (half, 3 * half)]
          + [((e, s * half), 1.0, LOCAL_MIN) for e in (half, 3 * half) for s in (1, -1)])
    expected = {
        "l1_S3": l1, "l1_Sprime": l1,
        "vn_Sprime": [((e, 0.0), 1.0, RIDGE) for e in (half, 3 * half)]
        + [((e, s * half), 0.0, LOCAL_MIN) for e in (half, 3 * half) for s in (1, -1)],
        "l1_wigner": [((0.0,), 1.0, LOCAL_MIN), ((math.pi / 4,), math.sqrt(2.0), LOCAL_MAX),
                      ((half,), 1.0, LOCAL_MIN)],
        "vn_xi": [((0.0,), 0.0, LOCAL_MIN), ((math.pi / 4,), 1.0, LOCAL_MAX),
                  ((half,), 0.0, LOCAL_MIN)],
    }
    for tag, want in expected.items():
        rows = _rows(tag)
        assert len(rows) == len(want), tag
        for location, value, kind in want:
            near = [p for p in rows
                    if max(abs(a - b) for a, b in zip(p.location, location)) < 1e-12]
            assert [p.kind for p in near] == [kind], (tag, location)
            assert abs(near[0].value - value) <= 2 * np.spacing(max(value, 1.0)), near
    counts = Counter(p.kind for p in _rows("l1_S3"))
    assert counts == {LOCAL_MAX: 8, SADDLE: 16, LOCAL_MIN: 6}


def _only(rows, kind, target):
    """The one row of ``kind`` within 1e-12 of ``target``."""
    near = [p for p in rows if p.kind == kind
            and max(abs(a - b) for a, b in zip(p.location, target)) < 1e-12]
    assert len(near) == 1, (kind, target, rows)
    return near[0]


def test_find_1d_l1_max():
    (p,) = [p for p in _rows("l1_wigner") if p.kind == LOCAL_MAX]
    assert abs(p.location[0] - math.pi / 4) < 1e-15
    assert abs(p.value - math.sqrt(2.0)) < 1e-15
    assert p.smooth


def test_find_1d_entropy_max():
    (p,) = [p for p in _rows("vn_xi") if p.kind == LOCAL_MAX]
    assert abs(p.location[0] - math.pi / 4) < 1e-15
    assert abs(p.value - 1.0) < 1e-15
    assert p.smooth


# the boxes on which the labels are cross-checked: the default box, two
# boxes off it and a wide one of 5,730 points
LABEL_BOXES = [None, ((-7.0, 13.0), (-4.0, 5.0)), ((0.1, 3.0), (-1.0, 0.2)),
               ((-600.0, 600.0), (-2.0, 2.0))]


@pytest.mark.parametrize("box", range(len(LABEL_BOXES)), ids=["default", "off", "small", "wide"])
@pytest.mark.parametrize("tag", ["l1_S3", "l1_Sprime", "vn_Sprime"])
def test_each_class_read_from_the_support_is_the_reports_at_the_location(tag, box):
    """The class each row carries, read from its declared point, is the
    class entanglement_report gives the state at its float location."""
    rows = _rows(tag, LABEL_BOXES[box])
    locations = np.array([p.location for p in rows]).T
    labels = entanglement_report(state_coordinates(*locations)).slocc_class
    assert rows and [p.slocc_class for p in rows] == labels.tolist()


@pytest.mark.parametrize("tag", ["l1_wigner", "vn_xi"])
def test_a_curve_row_has_no_class(tag):
    rows = _rows(tag)
    assert rows and {p.slocc_class for p in rows} == {None}


def test_find_2d_ghz_maximum():
    ghz = _only(_rows("l1_S3"), LOCAL_MAX, (math.pi / 3, BETA_STAR))
    assert abs(ghz.value - 2.0) < 1e-15
    assert ghz.smooth and ghz.slocc_class == GHZ_CLASS


def test_find_2d_w_saddle():
    """W is a smooth maximum inside its face and a kinked minimum across it:
    the l1-norm rises along eta and falls along beta."""
    fn, h = get_function("l1_S3"), 1e-6
    w = _only(_rows("l1_S3"), SADDLE, (math.pi / 2, BETA_STAR))
    eta, beta = w.location
    assert abs(w.value - math.sqrt(3.0)) < 1e-15
    assert not w.smooth and w.slocc_class == W_CLASS
    assert min(fn(eta - h, beta), fn(eta + h, beta)) > w.value
    assert max(fn(eta, beta - h), fn(eta, beta + h)) < w.value


def test_find_2d_biseparable_minimum():
    bisep = _only(_rows("l1_S3"), LOCAL_MIN, (math.pi / 2, 0.0))
    assert abs(bisep.value - math.sqrt(2.0)) < 1e-15
    assert not bisep.smooth and bisep.slocc_class == BISEPARABLE


def test_flat_rows_do_not_produce_points():
    """eta = pi is a pole line, where the norm is 1 whatever beta is: no row
    lies on it, though the box holds it and the GHZ maxima and W saddles
    either side of it."""
    rows = _rows("l1_S3", ((2.0, 4.2), (-1.0, 1.0)))
    assert Counter(p.kind for p in rows) == {LOCAL_MAX: 4, SADDLE: 2}
    for p in rows:
        assert abs(p.location[0] - math.pi) > 1e-3, p


def _unit_rows(size, count, seed):
    y = np.random.default_rng(seed).normal(size=(count, size))
    return y / np.linalg.norm(y, axis=1, keepdims=True)


# (chart, a box of one period of every axis)
CHARTS = {"sphere": (SPHERE, ((0.0, TWO_PI), (-math.pi, math.pi))),
          "fusion": (FUSION, ((0.0, TWO_PI), (-math.pi, math.pi))),
          "circle": (CIRCLE, ((-math.pi, math.pi),))}


@pytest.mark.parametrize("box", range(3), ids=["default", "narrow", "wide"])
@pytest.mark.parametrize("name", sorted(CHARTS))
def test_a_chart_maps_each_preimage_back_to_its_point(name, box):
    """Each preimage a chart's inverse gives of 500 seeded unit vectors, as
    rows in state order, lies in the box and maps, scaled, onto its vector
    to 1e-14; over one period of every angle, each vector has as many
    preimages as the chart declares (two for the spherical charts, (eta,
    beta) and (-eta, beta + pi))."""
    chart, period = CHARTS[name]
    domain = BOXES[len(chart.axes)][box] or chart.domain
    y = _unit_rows(len(chart.scale), 500, seed=box)
    rows = y if chart.state is None else y[:, chart.state]
    index, coords = chart.invert(rows, domain)
    assert index.size
    for c, (lo, hi) in zip(coords, domain):
        assert np.all((lo <= c) & (c <= hi))
    mapped = np.stack([s * x for s, x in zip(chart.scale, chart.map(*coords))], axis=-1)
    assert np.allclose(mapped, y[index], rtol=0.0, atol=1e-14)
    index, _ = chart.invert(rows, period)
    assert np.bincount(index, minlength=len(y)).tolist() == [chart.preimages] * len(y)


@pytest.mark.parametrize("tag", sorted(FUNCTIONS))
def test_rows_are_sorted_distinct_and_smooth_only_inside_a_full_face(tag):
    """Rows come in sorted order of location, each once, and none on a pole
    line sin eta = 0.  An l1 row is smooth exactly at a maximum, whose face
    holds every coordinate; every entropy row is smooth."""
    spec = get_function(tag)
    for box in BOXES[len(spec.chart.axes)]:
        rows = _rows(tag, box)
        locations = [p.location for p in rows]
        assert locations == sorted(set(locations))
        for p in rows:
            assert p.smooth == (p.kind == LOCAL_MAX or tag.startswith("vn_")), p
            assert len(spec.chart.axes) == 1 or abs(math.sin(p.location[0])) > 1e-3, p


@pytest.mark.parametrize("tag", sorted(FUNCTIONS))
def test_a_box_shifted_by_a_period_shifts_its_rows(tag):
    spec = get_function(tag)
    for box in BOXES[len(spec.chart.axes)][1:]:
        shifted = [(lo + TWO_PI, hi + TWO_PI) for lo, hi in box]
        rows, moved = _rows(tag, box), _rows(tag, shifted)
        assert [p.kind for p in rows] == [p.kind for p in moved]
        assert np.allclose([p.location for p in rows], np.subtract(
            [p.location for p in moved], TWO_PI), rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("domain, message", [
    ([(0.0, 1.0)], "has axes"),
    ([(0.0, 1.0)] * 3, "has axes"),
    ([(1.0, 1.0), (0.0, 1.0)], "axis eta has empty range"),
    ([(0.0, 1.0), (0.0, math.nan)], "axis beta needs finite bounds"),
    ([(0.0, 1.0), (-1e308, 1e308)], "axis beta needs finite bounds and a finite width"),
    ([(1e9, 1e9 + 1.0), (0.0, 1.0)], "axis eta: the float spacing at"),
    ([(-610.0, 610.0), (-2.0, 2.0)], f"could hold 10140 critical points, above {MAX_PREIMAGES}"),
])
def test_a_box_fails_closed(domain, message):
    """A box is one (start, stop) per axis, each non-empty and finite, with
    a float spacing at its ends no coarser than 1e-7 (2**29 is the first
    float where it is coarser), and no more preimages than the bound,
    counted from its widths: 26 points of the sphere, 2 preimages each per
    2 pi cell.  At eta in [-600, 600] the box has 192 cells and 9,984
    possible preimages, which pass."""
    with pytest.raises(ValueError, match=message):
        find_critical_points("l1_S3", domain)
    assert np.spacing(2.0 ** 29) > 1e-7 >= np.spacing(np.nextafter(2.0 ** 29, 0.0))
    assert len(find_critical_points("l1_S3", [(-600.0, 600.0), (-2.0, 2.0)])) == 5730


def test_an_entry_is_a_tag_a_chart_and_a_measure():
    """An entry is the measure of its chart's map; the keyword ``fn`` puts
    a wrapper of that composition in its place, as the benchmark's tracer
    does to count kernel calls."""
    spec, calls = get_function("l1_S3"), []
    assert [f.name for f in dataclasses.fields(LandscapeFunction)] == ["tag", "chart", "measure"]

    def wrapper(*axes):
        calls.append(axes)
        return spec.fn(*axes)

    wrapped = dataclasses.replace(spec, fn=wrapper)
    assert wrapped(1.0, 0.5) == spec(1.0, 0.5) == spec.measure(spec.chart.map(1.0, 0.5))
    assert calls == [(1.0, 0.5)]


@pytest.mark.parametrize("tag", sorted(FUNCTIONS))
def test_a_non_finite_critical_value_raises(tag, monkeypatch):
    spec = get_function(tag)
    monkeypatch.setitem(FUNCTIONS, tag, reading(
        spec, lambda coords: np.full_like(spec.measure(coords), math.nan)))
    with pytest.raises(ValueError, match="critical values are not finite"):
        find_critical_points(tag, spec.chart.domain)


@pytest.mark.parametrize("measure", [cut_entropy(1.0, 0.3, 0.0), cut_entropy(1.0, 1.0),
                                     weighted_l1(1.0, 0.0, 1.0)])
def test_a_measure_declares_no_critical_set_it_cannot_prove(measure):
    """The face lemma needs positive weights, and the entropy's set is
    declared for shares (1, 0) and (1, 1/2, 0) alone."""
    with pytest.raises(ValueError):
        measure.critical((1.0,) * 3)
