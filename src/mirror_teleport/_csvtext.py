"""Write a float table as CSV text, byte for byte as ``np.savetxt`` with
``fmt="%.12g"``, ``delimiter=","`` and ``comments=""`` writes it.

``np.savetxt`` applies Python's ``%`` to one row at a time, which costs about
1.4 us per cell with numpy 2.4.  A table below ``_MIN_BLOCK_CELLS`` cells is
formatted by that same ``%``, applied once to a few hundred rows, which gives
its bytes by construction at about 0.5 us per cell.  Larger tables are
formatted in blocks of rows with array arithmetic.  A positive cell x in
[1e-4, 1e3) has a decimal exponent e in [-4, 2], so ``%.12g`` prints it in
fixed notation: the 12 significant digits m = rint(x * 10**(11 - e)), with
the decimal point after place 10**0 and trailing zeros dropped.  The cell is
laid out in five place-aligned 4-byte words (20 bytes): the separator
before the cell and places 10**2 .. 10**0, then the point and places
10**-1 .. 10**-3, and three words of four places down to 10**-15.  Each
word is looked up from a digit group of m in a table that turns leading or
trailing zeros into NUL bytes where ``%g`` omits them.  One
``bytearray.translate`` per block then deletes the NULs in C.  Fidelities
are at most 1, and ``curve``'s theta_t column stays below 1e3 for fewer
than about 159 periods.  A cell the arithmetic leaves to Python fits the 19
bytes after the separator: the longest ``%.12g`` text,
``-1.23456789012e-100``, is 19 bytes.

The fast path is exact only when it can prove rint(y), y = x * 10**(11 - e),
is the correctly rounded digit string.  11 - e <= 15, so 10**(11 - e) is
exact and the product is rounded once.  Every fast y is below 1e12 < 2**40,
so its ulp is at most 2**-13 and the computed y lies within 2**-14, about
6.1e-5, of the exact x * 10**(11 - e).  A y more than 1e-4 from a rounding
tie, |y - rint(y)| < 0.4999, thus has the exact product on the same side of
that tie, and rint(y) is the digit string ``%.12g`` rounds to.  (The margin
is generous: every tie m + 1/2 below 2**40 is a float and rounding is
monotone, so the product cannot cross a tie, only land on one.  Any margin
below 1/2 is exact; one that admits |y - rint(y)| = 1/2 is not.)  A cell is
formatted by ``"%.12g" % v`` instead, which is the reference, when its
product lies within 1e-4 of a tie, when m is not a 12-digit number (e off
by one, or the digits rounding up into the next decade), or when it is
zero, negative or outside [1e-4, 1e3).

Every ``np.take`` runs with ``mode="clip"``: with the default
``mode="raise"`` numpy buffers the output to keep it unchanged on a bad
index, which costs a copy of every looked-up word.  The indices here are in
range by construction, so clipping changes no byte.  ``mode="wrap"`` is
not used: it reduces a negative index by repeated addition, so one stray
index such as a NaN cast to an integer makes it loop for minutes.
"""

from __future__ import annotations

import functools

import numpy as np

#: Tables with fewer cells are formatted by Python's ``%``, one call per
#: ``_CHUNK_ROWS`` rows.  Sending every table through the block arithmetic
#: instead raised the peak RSS of a process that wrote 32 small curves from
#: 31.8 MB to 36.8 MB: 1.0 MB of file-backed pages (``RssFile``: the code
#: of the numpy loops it is the first to use) and 3.4 MB of work arrays.
#: It saved little there, as 35 % of those cells lie below 1e-4 and take
#: the per-cell fallback anyway.
_MIN_BLOCK_CELLS = 65536

#: Rows per ``%`` call below ``_MIN_BLOCK_CELLS``.
_CHUNK_ROWS = 256

#: Rows formatted per block.  Writing the 200,001 x 5 table of
#: ``curve --grid 200000`` took 0.084 s with 4096, against 0.088 s with 2048
#: and 0.10 s with 1024 rows (more calls per cell), and 0.081 s with 8192,
#: whose work arrays are twice the size (CPU medians of 8 runs, a 2-core host).
_BLOCK_ROWS = 4096

#: Bytes per cell: five words.
_SLOT = 20

#: Exact powers of ten, 10**0 .. 10**16.
_POW10 = np.array([float(10**k) for k in range(17)])


@functools.cache
def _word_table():
    """Every 4-byte word a cell can use, and the offset of each kind.

    A digit group v < 10000 gives four places.  ``zero`` keeps every digit
    and ``trail`` drops trailing zeros.  The three-digit groups below 1000
    carry one more byte first: the decimal point (``dot``; ``dot_trail``
    drops it with the trailing zeros when the whole fraction is 0), or the
    separator before the cell (``comma``, ``newline``), followed by places
    10**2 .. 10**0 without leading zeros, so that 0 prints as ``0``.
    """
    v = np.arange(10000)[:, None]
    place = np.array([1000, 100, 10, 1])
    zero = (v // place % 10 + ord("0")).astype(np.uint8)
    units = zero * ((v >= place) | (place == 1))
    trail = zero * (v % (10 * place) != 0)

    def prefixed(words, first):
        words = words[:1000].copy()
        words[:, 0] = first
        return words

    kinds = {
        "zero": zero,
        "trail": trail,
        "dot": prefixed(zero, ord(".")),
        "dot_trail": prefixed(trail, ord(".") * (v[:1000, 0] != 0)),
        "comma": prefixed(units, ord(",")),
        "newline": prefixed(units, ord("\n")),
    }
    offsets = dict(zip(kinds, np.cumsum([0] + [len(w) for w in kinds.values()]).tolist()))
    return np.concatenate(list(kinds.values())).view(np.uint32).ravel(), offsets


class _Work:
    """Work arrays for blocks of up to ``rows`` rows of ``cols`` cells, made
    once per table; each block uses their first rows."""

    def __init__(self, rows: int, cols: int):
        self.x = np.empty((rows, cols))
        self.fast = np.empty((rows, cols), bool)
        self.masks = np.empty((2, rows, cols), bool)
        self.e = np.empty((rows, cols), np.intp)
        self.floats = np.empty((3, rows, cols))
        self.groups = np.empty((5, rows, cols))
        self.idx = np.empty((rows, cols, 5), np.intp)
        self.buf = bytearray(rows * cols * _SLOT)


def _split(value, scale, group, tmp) -> None:
    """group = value // scale and value %= scale, in place, for exact
    integers in float64."""
    np.divide(value, scale, out=group)
    np.floor(group, out=group)
    np.multiply(group, scale, out=tmp)
    value -= tmp


def _kind(group, mask, yes: int, no: int) -> None:
    """Add the word offset ``yes`` where ``mask`` holds, ``no`` elsewhere."""
    group += no
    np.add(group, yes - no, out=group, where=mask)


def _format_block(x: np.ndarray, w: _Work) -> bytes:
    """The rows of ``x`` (rows, columns), each with a leading newline.

    Every array operation writes into the work arrays ``w``: with a fresh
    set of temporaries per block, about 5 MB, the time to write a large
    table depended on the state of the allocator.
    """
    words, at = _word_table()
    n = len(x)
    fast, e, idx = w.fast[:n], w.e[:n], w.idx[:n]
    a, b = w.masks[:, :n]
    y, m, tmp = w.floats[:, :n]
    g = w.groups[:, :n]
    low, f1, f2, f3, f4 = g

    # y = x 10**(11 - e) and its digits m, where e = floor(log10(x)) for the
    # positive cells of [1e-4, 1e3), and 0 for the others.
    np.greater_equal(x, 1e-4, out=fast)
    fast &= np.less(x, 1e3, out=a)
    np.copyto(y, x)
    np.copyto(y, 1.0, where=np.logical_not(fast, out=a))
    np.log10(y, out=tmp)
    np.floor(tmp, out=tmp)
    np.subtract(11, tmp, out=e, casting="unsafe")  # 11 - e
    y *= np.take(_POW10, e, out=tmp, mode="clip")
    np.rint(y, out=m)
    # The fast cells: m has 12 digits and y is more than 1e-4 from a
    # rounding tie (see the module docstring).
    fast &= np.greater_equal(y, 1e11, out=a)
    fast &= np.less(m, 1e12, out=a)
    y -= m
    fast &= np.less(np.abs(y, out=y), 0.4999, out=a)
    slow = np.flatnonzero(np.logical_not(fast, out=a))
    # The fallback cells take the digits of 1 so that no index leaves a table.
    np.copyto(m, 1e11, where=a)
    np.copyto(e, 11, where=a)

    # m * 10**(e - 11) = low + f4 * 1e-15, both exact integers in float64,
    # then split into the digit groups.
    _split(m, np.take(_POW10, e, out=tmp, mode="clip"), low, y)
    np.subtract(15, e, out=e)
    np.multiply(m, np.take(_POW10, e, out=tmp, mode="clip"), out=f4)
    _split(f4, 1e12, f1, tmp)
    _split(f4, 1e8, f2, tmp)
    _split(f4, 1e4, f3, tmp)

    # Each group's word kind: the fraction drops its trailing zeros after
    # its last nonzero group.
    np.equal(f4, 0, out=a)
    np.equal(f3, 0, out=b)
    b &= a  # the fraction ends at f2
    _kind(f3, a, at["trail"], at["zero"])
    np.equal(f2, 0, out=a)
    a &= b  # the fraction ends at f1, or is 0
    _kind(f2, b, at["trail"], at["zero"])
    _kind(f1, a, at["dot_trail"], at["dot"])
    f4 += at["trail"]
    low += at["comma"]
    low[:, 0] += at["newline"] - at["comma"]
    for i, group in enumerate(g):
        np.copyto(idx[..., i], group, casting="unsafe")

    size = idx.size * 4
    cells = np.frombuffer(w.buf, np.uint8, size).reshape(-1, _SLOT)
    np.take(words, idx, out=cells.view(np.uint32).reshape(idx.shape), mode="clip")
    if slow.size:
        text = b"".join(
            ("%.12g" % v).encode().ljust(_SLOT - 1, b"\0") for v in x.ravel()[slow].tolist()
        )
        cells[slow, 1:] = np.frombuffer(text, np.uint8).reshape(-1, _SLOT - 1)
    block = w.buf if size == len(w.buf) else w.buf[:size]
    return block.translate(None, b"\0")


def _format_rows(part) -> bytes:
    """The rows of the column slices ``part``, each with a leading newline, by
    one Python ``%``: the formatting ``np.savetxt`` applies one row at a time."""
    row = "\n" + ",".join(["%.12g"] * len(part))
    return ((row * len(part[0])) % tuple(np.stack(part, axis=1).ravel().tolist())).encode()


def _write(fh, header: str, columns, rows: int, format_rows) -> None:
    fh.write(header.encode("latin1"))
    for lo in range(0, len(columns[0]), rows):
        fh.write(format_rows([c[lo : lo + rows] for c in columns]))
    fh.write(b"\n")


def write_blocks(fh, header: str, columns) -> None:
    """Write equal-length float ``columns`` under ``header`` to the binary
    file ``fh``, formatting blocks of rows with array arithmetic."""
    w = _Work(min(_BLOCK_ROWS, len(columns[0])), len(columns))
    _write(
        fh, header, columns, _BLOCK_ROWS,
        lambda part: _format_block(np.stack(part, axis=1, out=w.x[: len(part[0])]), w),
    )


def write_csv(path, header: str, columns) -> None:
    """Write equal-length float ``columns`` under ``header`` to ``path``."""
    with open(path, "wb") as fh:
        if len(columns) * len(columns[0]) < _MIN_BLOCK_CELLS:
            _write(fh, header, columns, _CHUNK_ROWS, _format_rows)
        else:
            write_blocks(fh, header, columns)
