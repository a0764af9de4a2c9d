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
one.  X is taken as ``floor(log10 |x|)``; ``log10`` is faithful and -4 and
15 are doubles, so for a fast value, and for the stand-in that takes a
slow value's place (a fast value of the block, or 1.5), X lies in
[-4, 15] and k in [1, 20], inside the table of exact powers with no clip.

A row of text is six ``uint32`` words.  For each exponent X a schedule
splits the 17 digits where the words of its text split them: the sign
byte, X + 1 integer digits, the point and the fraction, or for X < 0 "0.",
-X - 1 zeros and the digits.  A table maps the digits of each word to its
four bytes, with the trailing zeros of the fraction as NULs, the point of
a whole number dropped, or with ``shortest`` followed by "0".  A block
whose values share one exponent, as every ``l1_S3``, ``l1_Sprime`` and
``l1_wigner`` block and many ``vn_Sprime`` ones do, is so laid out in
place, a word at a time, with no sort or gather.  A block of several
exponents is laid out in rows sorted by exponent, one exponent at a time,
and then put in order.

A cell is a row of at most :data:`WIDTH` bytes padded with NULs; the rows
of a block run from the first byte that some cell writes to the last, so
a block of positive values has no sign byte.  :func:`mesh_blocks` renders
the body of a landscape, its CSV rows or its JSON numbers, :data:`BLOCK`
values at a time: each block's cells, and the coordinate cells of its
rows, are laid out beside their separators in a NUL-padded table, which
``bytearray.translate`` squeezes into the block's bytes, so no temporary
covers a whole landscape.

A block's working set is bounded by :data:`BLOCK` alone.  :func:`cells`
frees or overwrites each temporary once its step is done, so it holds
about nine arrays of 8 bytes per value at once (0.6 MiB for a block,
its 192 KiB of cells included).  The cells are released once they are in
the table, and the table once it is squeezed, so a block holds its padded
and its squeezed text and nothing more (at most 1.2 MiB for a block of
three columns), and none of it is kept while the next block is formatted.
The word tables are built once per process, on first use, and a word of
four digits shares :data:`_GROUPS`; all of them together hold 0.16 MiB.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator, Sequence

import numpy as np

BLOCK = 1 << 13  # values per formatted block
WIDTH = 24  # bytes of the longest cell, "-2.2250738585072014e-308"

_POW10 = np.array([float(10 ** k) for k in range(23)])  # exact doubles
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's splitting constant
_POINT, _MINUS = ord("."), ord("-")


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
    text = digits + np.uint8(ord("0"))
    return np.concatenate([text, np.where(trailing, 0, text)]).view(np.uint32).reshape(-1)


_GROUPS = _digit_groups()
_GROUPS.flags.writeable = False  # shared by the word tables of every exponent


def _two_product(a: np.ndarray, k) -> tuple[np.ndarray, np.ndarray]:
    """(p, e) with p = fl(a 10^k) and p + e == a 10^k exactly, for one int
    ``k`` or an array of them."""
    p = a * _POW10[k]
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    # ((a_hi b_hi - p) + a_hi b_lo + a_lo b_hi) + a_lo b_lo, in that order,
    # each product written over an array factor that is not needed again
    e = a_hi * b_hi
    e -= p
    a_hi *= b_lo
    e += a_hi
    np.multiply(a_lo, b_hi, out=a_hi)
    e += a_hi
    a_lo *= b_lo
    e += a_lo
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
    """(digits, k, fast): the 17-digit integer whose digits the rendering
    of each |x| writes (trailing zeros included), the power of ten k = 16 -
    X that scales |x| to it, and which values the fast path renders.  k is
    one int where all values share their exponent X, else an array."""
    magnitude = np.abs(x)
    fast = (magnitude >= 1e-4) & (magnitude < 1e15)
    first = fast.argmax()
    # a stand-in that no step below warns on, with a fast value's exponent
    magnitude[~fast] = magnitude[first] if fast[first] else 1.5
    exponent = np.floor(np.log10(magnitude))  # in [-4, 15]
    if exponent.min() == exponent.max():
        k = 16 - int(exponent[0])
    else:
        k = 16 - exponent.astype(np.int64)
    del exponent
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
    return digits, k, fast


@functools.cache
def _word_table(word: bytes, kept: tuple[bool, ...], whole: bool, last: bool) -> np.ndarray:
    """The table of a word that holds digits (see :func:`_schedule`).
    ``word`` is its text with a ``d`` for each digit; ``kept[j]`` is whether
    its j-th digit is written where it and every digit after it are 0,
    rather than NUL; ``whole`` whether its point is dropped where the
    fraction is 0; ``last`` whether no digit follows the word."""
    size = 10 ** len(kept)
    if word == b"dddd" and not any(kept):  # four fraction digits
        return _GROUPS[10_000:] if last else _GROUPS
    if word == b"dddd" and all(kept):  # four integer digits
        return _GROUPS[:10_000]
    text = np.empty((2, size, 4), dtype=np.uint8)  # [every later digit is 0][d]
    text[...] = np.frombuffer(word, dtype=np.uint8)
    digits = _GROUPS.view(np.uint8).reshape(2, 10_000, 4)[:, :size, 4 - len(kept):]
    at = [b for b in range(4) if word[b] == ord("d")]
    for j, b in enumerate(at):
        text[:, :, b] = digits[0, :, j] if kept[j] else digits[:, :, j]
    if whole:  # NUL where the first fraction digit is, or is the next word's
        b = word.index(b".")
        text[:, :, b] = np.where(text[:, :, b + 1], _POINT, 0) if b < 3 else [[_POINT], [0]]
    if last:
        text = text[1]
    elif (text[0] == text[1]).all():
        text = text[0]
    table = text.copy().view(np.uint32).reshape(-1)
    table.flags.writeable = False  # one table serves every caller
    return table


@functools.cache
def _schedule(X: int, shortest: bool):
    """How a row of exponent X is written as six ``uint32`` words: the
    words that hold no digit, as (word, value), and from the last word to
    the first, each word that holds c of the 17 digits as (word, 10^c,
    table).  Its table maps the c digits d to the word's text, and d + 10^c
    to it where every digit after the word is 0; a table of 10^c words
    does not depend on that, as the last word's does not."""
    if X < 0:  # "0.", -X - 1 zeros and the digits
        pattern = "\0" + "0." + "0" * (-X - 1) + "d" * 17
    else:  # X + 1 integer digits, the point and the fraction
        pattern = "\0" + "d" * (X + 1) + "." + "d" * (16 - X)
    pattern = pattern.ljust(WIDTH, "\0").encode("ascii")
    point = pattern.index(b".")
    constants, schedule = [], []
    for w in range(WIDTH // 4 - 1, -1, -1):
        word = pattern[4 * w:4 * w + 4]
        at = [4 * w + b for b in range(4) if word[b] == ord("d")]
        if not at:
            constants.append((w, np.frombuffer(word, dtype=np.uint32)[0]))
            continue
        # a fraction digit is NUL where it and every digit after it are 0,
        # but with shortest not the first, so that 1.0 keeps its 0
        kept = tuple(b < point or (shortest and b == point + 1) for b in at)
        whole = X >= 0 and not shortest and point // 4 == w
        table = _word_table(word, kept, whole, not schedule)
        schedule.append((w, 10 ** len(at), table))
    return constants, schedule


def _lay_out(rows: np.ndarray, digits: np.ndarray, X: int, shortest: bool) -> None:
    """Write the text of |x| into the C-contiguous ``(n, WIDTH)`` ``uint8``
    ``rows`` from the ``digits`` of values of exponent X (see
    :func:`_significand`), a word of each row at a time, leaving the sign
    byte NUL.  ``digits`` is used up.

    Each word is first written as if a later digit were not 0, and then
    rewritten in the rows whose every later digit is 0: those whose text
    may end before the word, found among the few that end in a 0."""
    words = rows.view(np.uint32)
    constants, schedule = _schedule(X, shortest)
    for w, value in constants:
        words[:, w] = value
    top = schedule[-1][0]
    ends = None  # the rows whose every digit after the word is 0
    for w, size, table in schedule:
        if w == top:  # the rest, which off the fast path may exceed the word
            chunk = digits
        else:
            digits, chunk = digits // size, digits
            chunk -= digits * size
        words[:, w] = table.take(chunk, mode="clip")
        if ends is None:
            ends = (chunk == 0).nonzero()[0]
        elif ends.size and table.size > size:
            chunk = chunk[ends]
            words[ends, w] = table[chunk + size]
            ends = ends[chunk == 0]


def cells(values: np.ndarray, shortest: bool = False) -> np.ndarray:
    """A ``(n, w)`` ``uint8`` array, w <= :data:`WIDTH`: row i holds the
    text of the i-th value of ``values`` in flat order, NUL-padded: ``'%.17g'
    % x``, or with ``shortest`` the float as ``json.dumps`` renders it.  Its
    columns run from the first byte that some cell writes to the last, so
    a row of positive values has no sign byte.  Python formats the values
    off the fast path, one at a time."""
    x = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    if not x.size:
        return np.empty((0, WIDTH), dtype=np.uint8)
    digits, k, fast = _significand(x, shortest)
    if isinstance(k, int):  # one exponent: laid out in place
        out = np.empty((x.size, WIDTH), dtype=np.uint8)
        _lay_out(out, digits, 16 - k, shortest)
        low = 16 - k
    else:
        # laid out one exponent X at a time, in rows sorted by X; the rows
        # off the fast path, sorted last, are written below
        key = np.where(fast, 16 - k, 15).astype(np.int8)
        del k
        order = key.argsort(kind="stable")
        bounds = key[order].searchsorted(np.arange(-4, 16)).tolist()
        del key
        digits = digits.take(order)  # take is faster than fancy indexing
        body = np.empty((x.size, WIDTH), dtype=np.uint8)
        low = 0
        for X, a, b in zip(range(-4, 15), bounds, bounds[1:]):
            if a < b:
                _lay_out(body[a:b], digits[a:b], X, shortest)
                low = min(low, X)
        del digits
        out = np.empty_like(body)
        _items(out)[order] = _items(body)
        del body, order
    end = 19 - min(low, 0)  # a row of exponent X ends by byte 18 - min(X, 0)
    negative = x < 0
    slow = (~fast).nonzero()[0]
    if not slow.size and not negative.any():
        return out[:, 1:end]
    out[:, 0] = np.where(negative, _MINUS, 0)
    if slow.size:
        text = (_json_fallback if shortest else _printf_fallback)(x[slow].tolist())
        out[slow] = np.array(text, dtype=f"S{WIDTH}").view(np.uint8).reshape(-1, WIDTH)
        end = max(end, *map(len, text))
    return out[:, :end]


def mesh_blocks(values: np.ndarray, axes: Sequence[np.ndarray], ends: bytes,
                shortest: bool = False) -> Iterator[bytearray]:
    """The ASCII rows of ``values`` sampled on the ``ij`` mesh of ``axes``
    (zero, one or two arrays of points; more raise ``ValueError``),
    :data:`BLOCK` rows at a time: row i holds the cells of the coordinates
    of the i-th value in flat order, then the cell of the value, each
    followed by its byte of ``ends``.  All axis points are rendered in one
    call, and each block of values in one."""
    if len(axes) > 2:
        raise ValueError(f"mesh_blocks writes zero, one or two axes, got {len(axes)}")
    flat = values.reshape(-1)
    if axes:
        points = _items(cells(np.concatenate(axes), shortest))
        bounds = np.cumsum([0, *map(len, axes)]).tolist()
        axes = [points[a:b] for a, b in zip(bounds, bounds[1:])]
    for start in range(0, flat.size, BLOCK):
        yield _block_text(_items(cells(flat[start:start + BLOCK], shortest)), axes, start, ends)


def _items(cells: np.ndarray) -> np.ndarray:
    """The rows of a :func:`cells` array as one item each, which copies
    faster than their bytes do."""
    return cells.view(np.dtype((np.void, cells.shape[1])))[:, 0]


def _block_text(block: np.ndarray, axes: list[np.ndarray], start: int,
                ends: bytes) -> bytearray:
    """The rows ``start``, ``start + 1``, ... of :func:`mesh_blocks`, whose
    value cells are the items ``block`` and coordinate cells are taken from
    the items ``axes``.  The cells are copied into a table of NUL-padded
    slots, each followed by its byte of ``ends``, and the NULs are squeezed
    out with ``bytearray.translate``; ``block`` is released first, so only
    the padded and the squeezed text are held at once.

    Along a row of the mesh the last axis runs through its cells and the
    first stays on one; the block is the rest of its first mesh row, whole
    mesh rows, and the start of one more."""
    size = block.size
    widths = [column.itemsize for column in (*axes, block)]
    slots = b"".join(b"\0" * width + bytes([end]) for width, end in zip(widths, ends))
    table = bytearray(slots) * size
    grid = np.frombuffer(table, dtype=np.uint8).reshape(size, len(slots))
    columns, at = [], 0
    for width in widths:
        columns.append(_items(grid[:, at:at + width]))
        at += width + 1
    columns[-1][...] = block
    del block
    if axes:
        last, n = axes[-1], len(axes[-1])
        row, at = divmod(start, n)
        head = min(size, n - at) if at else 0
        whole, tail = divmod(size - head, n)
        rows = slice(head, head + whole * n)
        columns[-2][:head] = last[at:at + head]
        columns[-2][rows].reshape(whole, n)[...] = last
        columns[-2][size - tail:] = last[:tail]
        if len(axes) == 2:
            columns[0][:head] = axes[0][row]
            after = axes[0][row + (at > 0):]  # the points of the mesh rows after the first
            columns[0][rows].reshape(whole, n)[...] = after[:whole, None]
            if tail:
                columns[0][size - tail:] = after[whole]
    return table.translate(None, b"\0")
