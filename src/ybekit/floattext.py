"""Exact, vectorized decimal text of float64 arrays.

:func:`cells` renders each value of an array as ``'%.17g' % x`` does (the
CSV cells) or as ``json.dumps`` does, that is ``repr(x)`` with ``NaN``,
``Infinity`` and ``-Infinity`` for the non-finite values (the JSON
numbers), byte for byte.

A value with 1e-4 <= |x| < 1e15 has a decimal exponent X in [-4, 14], so
both renderings write it positionally.  Scaled by the exact double 10^k,
k = 16 - X (10^k is exact for k <= 22), it becomes v = |x| 10^k in
[10^16, 10^17), which Dekker's two-product (Numer. Math. 18, 1971) splits
exactly into a double p and its error e.  Since p >= 2^53 is an integer:

* the 17 digits of ``%.17g`` are v rounded half-to-even to an integer,
  p + rint(e) (p is even, so a tie keeps p, as Python rounds it);
* ``repr`` takes the shortest digits inside the rounding interval
  v -+ ulp(x)/2 10^k, and among those the nearest to v, as Ryu does
  (Adams, PLDI 2018).  The interval's half-width is exact (a power of two
  times 10^k) and lies in (1/2, 12), so the 17 digits are always inside,
  and at most one multiple of 100 is: the digits are that multiple when it
  is inside, else the nearest multiple of 10 when that is, else the 17.
  A power of two has the narrower half of its interval below it, but in
  this range it has at most 15 digits, so it is that multiple of 100.

Each comparison is made on a rounded sum, which rounding never moves across
the double it is compared with; a sum that lands on it is ambiguous.  Every
cell off this fast path goes to Python's own formatting: non-finite
values, +-0, |x| < 1e-4 or >= 1e15, ambiguous comparisons, digits that
round up to the next power of ten, and values whose ``log10`` is off by
one.

A cell is a row of :data:`WIDTH` bytes padded with NULs, which
:func:`table_text` squeezes out of a table of cells with
``bytearray.translate``.  Callers format :data:`BLOCK` values at a time
and pass each block's bytes on, so no temporary covers a whole landscape.

A block's working set is bounded by :data:`BLOCK` alone.  :func:`cells`
frees or overwrites each temporary once its step is done, so it holds
about nine arrays of 8 bytes per value at once (0.6 MiB for a block,
its 192 KiB of cells included), and :func:`table_text` lays the padded
table out in the buffer it squeezes, so a table holds its padded and its
squeezed text and nothing more (1.2 MiB for a block of three columns).
"""

from __future__ import annotations

import numpy as np

BLOCK = 1 << 13  # values per formatted block
WIDTH = 24  # bytes of the longest cell, "-2.2250738585072014e-308"

_POW10 = np.array([float(10 ** k) for k in range(23)])  # exact doubles
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's splitting constant
_ZERO, _POINT, _MINUS = ord("0"), ord("."), ord("-")


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _digit_groups() -> np.ndarray:
    """The four ASCII digits of each of 0..9999 as one ``uint32``, in
    memory order, so that a ``uint8`` view of a row of groups reads as
    text; then the same groups with their trailing zeros as NULs."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T.copy()  # row n: n's digits
    trailing = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1)[:, ::-1]
    text = digits + np.uint8(_ZERO)
    return np.concatenate([text, np.where(trailing, 0, text)]).view(np.uint32).reshape(-1)


_GROUPS = _digit_groups()


def _two_product(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, e) with p = fl(a 10^k) and p + e == a 10^k exactly."""
    p = a * _POW10[k]
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    # ((a_hi b_hi - p) + a_hi b_lo + a_lo b_hi) + a_lo b_lo, in that order,
    # each product written over a factor that is not needed again
    e = a_hi * b_hi
    e -= p
    a_hi *= b_lo
    e += a_hi
    b_hi *= a_lo
    e += b_hi
    b_lo *= a_lo
    e += b_lo
    return p, e


def _nearest_multiple(n: np.ndarray, f: np.ndarray, m: int, half: np.ndarray):
    """The multiple of ``m`` nearest to v = n + f (n an integer, |f| <= 1/2),
    whether it lies strictly inside v -+ ``half``, and whether either answer
    is ambiguous: v halfway between two multiples, or on the bound."""
    rem = n // m
    rem *= m
    np.subtract(n, rem, out=rem)  # faster than %
    t = rem + f
    up = t > m / 2
    tie = t == m / 2
    del t
    rem -= m * up  # v - the nearest multiple, less f
    gap = rem + f
    np.abs(gap, out=gap)
    return n - rem, gap < half, tie | (gap == half)


def _json_fallback(xs: list[float]) -> list[str]:
    constants = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
    return [constants.get(s, s) for s in map(float.__repr__, xs)]


def _printf_fallback(xs: list[float]) -> list[str]:
    return ["%.17g" % x for x in xs]


def _significand(x: np.ndarray, shortest: bool):
    """(digits, exponent, fast): the 17-digit integer whose digits the
    rendering of each |x| writes (trailing zeros included), its decimal
    exponent X, and which values the fast path renders."""
    magnitude = np.abs(x)
    fast = (magnitude >= 1e-4) & (magnitude < 1e15)
    magnitude[~fast] = 1.5  # a stand-in no step below warns on
    k = np.clip(16 - np.floor(np.log10(magnitude)).astype(np.int64), 0, 22)
    p, e = _two_product(magnitude, k)
    whole = np.rint(e)
    digits = p.astype(np.int64)
    del p
    digits += whole.astype(np.int64)
    e -= whole  # exact: v = digits + e, |e| <= 1/2
    del whole
    fast &= (digits > 10 ** 16) | ((digits == 10 ** 16) & (e >= 0))  # v >= 10^16
    if shortest:
        # ulp(x)/2: the double whose exponent field is that of |x| less 53
        bits = magnitude.view(np.uint64)
        bits >>= 52
        bits -= 53
        bits <<= 52
        half = magnitude  # the buffer of bits, read as that double
        half *= _POW10[k]
        tens, in_tens, unsure_tens = _nearest_multiple(digits, e, 10, half)
        hundreds, in_hundreds, unsure_hundreds = _nearest_multiple(digits, e, 100, half)
        fast &= ~(unsure_tens | unsure_hundreds)
        np.copyto(digits, tens, where=in_tens)
        np.copyto(digits, hundreds, where=in_hundreds)
    fast &= digits < 10 ** 17
    return digits, 16 - k, fast


def cells(values: np.ndarray, shortest: bool = False) -> np.ndarray:
    """A ``(n, WIDTH)`` ``uint8`` array: row i holds the text of the i-th
    value of ``values`` in flat order, NUL-padded: ``'%.17g' % x``, or with
    ``shortest`` the float as ``json.dumps`` renders it.  Python formats
    the values off the fast path, one at a time."""
    x = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    digits, exponent, fast = _significand(x, shortest)

    # "000", then the 17 digits with their trailing zeros as NULs: the
    # lead digit, then four groups of four, the last group first, a group
    # with only zeros after it looked up in the second half of the table
    words = np.empty((x.size, 5), dtype=np.uint32)
    tail = np.ones(x.size, dtype=bool)
    for j in range(4, 0, -1):
        rest = digits // 10_000
        group = digits - rest * 10_000
        words[:, j] = _GROUPS[group + 10_000 * tail]
        tail &= group == 0
        digits = rest
    words[:, 0] = _GROUPS[digits]
    del digits, rest, group, tail

    # Laid out one exponent X at a time, in rows sorted by X: X + 1
    # integer digits (zeros put back), a point and the fraction; or for
    # X < 0 "0.", -X - 1 zeros and the digits.  The point of a whole number
    # is dropped, or with ``shortest`` followed by "0".
    key = np.where(fast, exponent, 15).astype(np.int8)
    del exponent
    order = np.argsort(key, kind="stable")
    bounds = np.searchsorted(key[order], np.arange(-4, 16)).tolist()
    text = np.take(words.view(np.uint8), order, axis=0)  # take is faster than fancy indexing
    del words, key
    body = np.zeros((x.size, WIDTH), dtype=np.uint8)
    for X, a, b in zip(range(-4, 15), bounds, bounds[1:]):
        if a == b:
            continue
        rows = body[a:b]
        if X < 0:
            rows[:, 1:2 - X] = [_ZERO, _POINT] + [_ZERO] * (-X - 1)
            rows[:, 2 - X:19 - X] = text[a:b, 3:]
            continue
        np.maximum(text[a:b, 3:4 + X], _ZERO, out=rows[:, 1:2 + X])
        rows[:, 3 + X:19] = text[a:b, 4 + X:]
        first = rows[:, 3 + X]
        if shortest:
            np.maximum(first, _ZERO, out=first)
            rows[:, 2 + X] = _POINT
        else:
            rows[:, 2 + X] = np.where(first != 0, _POINT, 0)
    del text
    rank = np.empty_like(order)
    rank[order] = np.arange(x.size)
    del order
    out = np.take(body, rank, axis=0)
    del body, rank
    out[:, 0] = np.where(x < 0, _MINUS, 0)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = (_json_fallback if shortest else _printf_fallback)(x[slow].tolist())
        out[slow] = np.array(text, dtype=f"S{WIDTH}").view(np.uint8).reshape(-1, WIDTH)
    return out


def table_text(columns: list[np.ndarray], ends: bytes) -> bytearray:
    """The ASCII bytes of the rows of cell arrays ``columns`` side by side,
    each cell followed by its byte of ``ends``, with the NUL padding
    squeezed out.  The table is laid out in the buffer that is squeezed, so
    a block holds two copies of its text at most: the padded and the
    squeezed."""
    table = bytearray(len(columns[0]) * len(columns) * (WIDTH + 1))
    rows = np.frombuffer(table, dtype=np.uint8).reshape(len(columns[0]), len(columns), WIDTH + 1)
    for j, column in enumerate(columns):
        rows[:, j, :WIDTH] = column
        rows[:, j, WIDTH] = ends[j]
    return table.translate(None, b"\0")
