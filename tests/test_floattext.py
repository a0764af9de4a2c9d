"""The vectorized formatter against Python's own: each cell must be
``'%.17g' % x`` and each JSON number ``repr(x)`` (``NaN``, ``Infinity`` and
``-Infinity`` as ``json`` writes them), byte for byte, on and off the fast
path.  The suite turns a numpy RuntimeWarning into an error, so these also
check that non-finite values are masked before any integer cast."""

import json
import math
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ybekit import floattext


def _rendered(values, shortest):
    """One line per value, as the formatter renders it, decoded."""
    return b"".join(floattext.mesh_blocks(values, [], b"\n", shortest)).decode("ascii")


def _expected(values, shortest):
    """One line per value: ``'%.17g' % x``, or ``repr(x)`` with json's
    ``NaN`` and ``Infinity``, in one ``%`` pass when all are finite."""
    xs = values.tolist()
    if not shortest:
        return ("%.17g\n" * len(xs)) % tuple(xs)
    if np.isfinite(values).all():
        return ("%r\n" * len(xs)) % tuple(xs)
    return "".join((repr(x) if math.isfinite(x) else json.dumps(x)) + "\n" for x in xs)


def _assert_exact(values):
    values = np.asarray(values, dtype=np.float64)
    for shortest in (False, True):
        got, want = _rendered(values, shortest), _expected(values, shortest)
        if got != want:
            bad = [(x, g, w) for x, g, w in zip(values.tolist(), got.split("\n"),
                                                  want.split("\n")) if g != w]
            raise AssertionError(f"shortest={shortest}: (value, got, expected) {bad[:5]}")


def _neighbours(xs, steps=2):
    """Each of ``xs``, both signs, with its ``steps`` nearest doubles on
    either side."""
    out = []
    for x in xs:
        up = down = x
        out.append(x)
        for _ in range(steps):
            up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
            out += [up, down]
    return out + [-x for x in out]


def _ties(per_exponent=100):
    """Seeded doubles m / 2^j (m odd) in the fast range whose exact decimal
    expansion m 5^j / 10^j has 18 significant digits, the last a 5, so
    that 17 digits are a tie: %.17g rounds it half-to-even, and so does
    repr where it needs 17 digits."""
    rng = np.random.default_rng(5)
    found = []
    for j in range(3, 31):
        low, high = -(-10 ** 17 // 5 ** j), min(10 ** 18 // 5 ** j, 2 ** 53)
        if low < high:
            found += ((rng.integers(low, high, per_exponent) | 1) / 2.0 ** j).tolist()
    return [x for x in found if 1e-4 <= x < 1e15 and len(Decimal(x).as_tuple().digits) == 18]


HARD_CASES = (
    _neighbours([10.0 ** k for k in range(-6, 18)])
    + _neighbours([2.0 ** k for k in range(-16, 54)], steps=1)
    + _neighbours([1e-4, 1e15, 9.999999999999999e14, 9.99999999999999e-5, 0.1, 0.3, 1 / 3, 2 / 3])
    + _neighbours(_ties(), steps=0)
    + [123456789012345.125, 123456789012345.375, 12345678901234.125, 0.5 + 2 ** -53]
    # repr of 15 digits or fewer, and ones that round up to a power of ten
    + [0.1 * k for k in range(1, 30)] + [1.5, 123.456, 0.000123, 99999.99999999999,
                                         0.30000000000000004, 9.5, 0.95, 1e-4 * 3]
    + [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931308623157e308,
       math.nan, math.inf, -math.inf]
)


def test_hard_cases():
    _assert_exact(HARD_CASES)
    assert len(_ties()) > 1500


def test_seeded_log_uniform_batch():
    """A seeded batch of values log-uniform over +-[1e-6, 1e17], which
    crosses both edges of the fast range."""
    rng = np.random.default_rng(20240615)
    n = 1 << 17
    values = np.exp(rng.uniform(math.log(1e-6), math.log(1e17), n)) * rng.choice([-1.0, 1.0], n)
    _assert_exact(values)


FAST = st.floats(min_value=1e-4, max_value=1e15)


@given(st.lists(st.floats() | FAST | FAST.map(lambda x: -x), max_size=50))
def test_matches_python_on_any_double(xs):
    """Any doubles: NaN, +-inf, +-0, subnormals and the fast range."""
    _assert_exact(xs)


def _one_exponent(X, sign, n=256):
    """``n`` seeded values of exponent X: spread over the decade, whole
    numbers where X >= 0, a few short decimals; all positive, all negative
    or of mixed sign."""
    rng = np.random.default_rng(X + 10)
    values = rng.uniform(1.0, 9.99, n) * 10.0 ** X
    values[::7] = np.round(values[::7], 2 - X)
    if X >= 0:
        values[::5] = rng.integers(10 ** X, 10 ** (X + 1), values[::5].size)
    values[:2] = 10.0 ** X, 2.5 * 10.0 ** X
    signs = {"+": 1.0, "-": -1.0, "+-": rng.choice([-1.0, 1.0], n)}[sign]
    return values * signs


@pytest.mark.parametrize("sign", ["+", "-", "+-"])
@pytest.mark.parametrize("X", range(-4, 15))
def test_blocks_of_one_exponent(X, sign):
    """Blocks whose values share one exponent are laid out in place: each X
    of the fast path, either sign, whole numbers (CSV drops their point),
    and a block of one value repeated; then the same blocks with one value
    of another exponent, or one cell off the fast path, first or last."""
    values = _one_exponent(X, sign)
    _assert_exact(values)
    _assert_exact(np.full(300, values[5]))
    for other in (values[0] * 10.0, values[0] / 10.0, 0.0, math.nan, 1e-5):
        for at in (0, -1):
            mixed = values.copy()
            mixed[at] = other
            _assert_exact(mixed)


def test_a_block_whose_log10_reads_the_next_decade():
    """log10 of the double below 1e15 rounds to 15: a block of it has one
    exponent past the fast path, and every cell goes to Python."""
    _assert_exact(np.full(5, 9.999999999999999e14))
    _assert_exact(np.full(5, -9.999999999999999e14))


def test_an_empty_array_has_no_cells():
    for shortest in (False, True):
        assert floattext.cells(np.array([]), shortest).shape[0] == 0
    _assert_exact([])


def test_blocks_of_cells_are_padded_rows():
    """Cells are NUL-padded rows that run from the first byte some cell
    writes to the last: the sign byte where a cell is negative or off the
    fast path, and no more than the longest cell of the exponents present.
    A mesh body lays them out beside the coordinate cells of the ``ij``
    mesh, each followed by its byte of ``ends``, with the padding
    squeezed out."""
    values = np.array([1.5, -0.25, math.nan])
    table = floattext.cells(values)
    assert table.shape == (3, 20) and table.dtype == np.uint8  # "-0." and 17 digits
    assert b"".join(floattext.mesh_blocks(values, [values[::-1]], b",\n")) == (
        b"nan,1.5\n-0.25,-0.25\n1.5,nan\n")
    mesh = floattext.mesh_blocks(np.arange(6.0).reshape(2, 3),
                                 [np.array([1.5, -0.25]), np.array([math.nan, 2.0, 3.0])], b",,\n")
    assert b"".join(mesh) == b"1.5,nan,0\n1.5,2,1\n1.5,3,2\n-0.25,nan,3\n-0.25,2,4\n-0.25,3,5\n"
    assert b"".join(floattext.mesh_blocks(np.array([]), [], b"\n")) == b""
    positive = floattext.cells(np.array([1.25, 2.0]))
    assert positive.shape == (2, 18) and bytes(positive[1]) == b"2" + b"\0" * 17
    assert floattext.cells(np.array([-1e300])).shape == (1, len("%.17g" % -1e300))


def test_a_mesh_of_three_axes_is_refused():
    """The block layout fills the first and the last coordinate column
    only, so a third axis would leave empty cells in every row."""
    axis = np.array([0.5, 1.5])
    with pytest.raises(ValueError, match="zero, one or two axes, got 3"):
        next(floattext.mesh_blocks(np.zeros((2, 2, 2)), [axis, axis, axis], b",,,\n"))


def test_one_block_holds_a_few_arrays_per_value():
    """Formatting one block, either way, peaks below 12 float64 arrays of
    the block (1.5 MiB for 16,384 values), its cells included: each
    temporary is freed or overwritten once its step is done.  With every
    temporary kept to the end it peaked near 26.  A block of many
    exponents, sorted, and one of one exponent, laid out in place, both
    hold."""
    rng = np.random.default_rng(7)
    n = floattext.BLOCK
    blocks = {
        "log-uniform": np.exp(rng.uniform(math.log(1e-6), math.log(1e17), n))
        * rng.choice([-1.0, 1.0], n),
        "one exponent": rng.uniform(1.0, 2.0, n),
    }
    for kind, values in blocks.items():
        for shortest in (False, True):
            tracemalloc.start()
            try:
                floattext.cells(values, shortest)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 12 * 8 * n, (kind, shortest, peak / (8 * n))
