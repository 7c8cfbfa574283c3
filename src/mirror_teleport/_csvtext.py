"""Write a float table as CSV text, byte for byte as ``np.savetxt`` with
``fmt="%.12g"``, ``delimiter=","`` and ``comments=""`` writes it.

``np.savetxt`` applies Python's ``%`` to one row at a time, which costs about
0.6 us per cell.  Here whole row blocks are formatted with array arithmetic.
A positive cell x in [1e-4, 1e11) has a decimal exponent e in [-4, 10], so
``%.12g`` prints it in fixed notation: the 12 significant digits
m = rint(x * 10**(11 - e)), with the decimal point after place 10**0 and
trailing zeros dropped.  The cell is laid out as seven 4-byte words: the
separator before it and places 10**10 .. 10**0, then the point and places
10**-1 .. 10**-15.  Each word is looked up from a digit group of m, in a
table that turns leading or trailing zeros into NUL bytes where ``%g`` omits
them.  One ``bytearray.translate`` per block then deletes the NULs in C.

The fast path is exact only when it can prove rint(x * 10**(11 - e)) is
the correctly rounded digit string.  10**(11 - e) is exact, so the product
is off by at most half an ulp of 1e12, about 6e-5.  A cell is formatted by
``"%.12g" % v`` instead, which is the reference, when its product lies within
1e-3 of a rounding tie, when m is not a 12-digit number (e off by one, or
the digits rounding up into the next decade), or when it is zero, negative
or outside [1e-4, 1e11).
"""

from __future__ import annotations

import functools

import numpy as np

#: Tables with fewer cells go through ``np.savetxt`` itself.  The first run
#: of the block path raises a process's peak RSS by about 4.8 MB (its word
#: table, block buffers and the code of the numpy loops it is the first to
#: use), 14 % of a process that writes small curves, while it saves about
#: 0.5 us per cell: under 40 ms below this size.
_MIN_BLOCK_CELLS = 65536

#: Rows formatted per block.  Writing the 200,001 x 5 table of
#: ``curve --grid 200000`` took 0.14 s with 4096, against 0.15-0.19 s with
#: 512-2048 rows (more calls per cell) and 0.17 s with 8192 (a 2-core host).
_BLOCK_ROWS = 4096

#: Bytes per cell: seven words.
_SLOT = 28

#: Exact powers of ten, 10**0 .. 10**16.
_POW10 = np.array([float(10**k) for k in range(17)])


@functools.cache
def _word_table():
    """Every 4-byte word a cell can use, and the offset of each kind.

    A digit group v < 10000 gives four places.  ``zero`` keeps every digit,
    ``lead`` drops leading zeros (all of v = 0), ``units`` does too but keeps
    the units digit of v = 0, and ``trail`` drops trailing zeros.  The
    three-digit groups below 1000 carry one more byte first: the decimal
    point (``dot``; ``dot_trail`` drops it with the trailing zeros when the
    whole fraction is 0), or the separator before the cell.
    """
    v = np.arange(10000)[:, None]
    place = np.array([1000, 100, 10, 1])
    zero = (v // place % 10 + ord("0")).astype(np.uint8)
    lead = zero * (v >= place)
    units = lead.copy()
    units[0, 3] = ord("0")
    trail = zero * (v % (10 * place) != 0)

    def prefixed(words, first):
        words = words[:1000].copy()
        words[:, 0] = first
        return words

    kinds = {
        "zero": zero,
        "lead": lead,
        "units": units,
        "trail": trail,
        "dot": prefixed(zero, ord(".")),
        "dot_trail": prefixed(trail, ord(".") * (v[:1000, 0] != 0)),
        "comma": prefixed(lead, ord(",")),
        "newline": prefixed(lead, ord("\n")),
    }
    offsets = dict(zip(kinds, np.cumsum([0] + [len(w) for w in kinds.values()]).tolist()))
    return np.concatenate(list(kinds.values())).view(np.uint32).ravel(), offsets


def _split(value, scale):
    """(value // scale, value % scale) for exact integers in float64."""
    group = np.floor(value / scale)
    return group, value - group * scale


def _format_block(x: np.ndarray) -> bytes:
    """The rows of ``x`` (rows, columns), each with a leading newline."""
    words, at = _word_table()
    fast = (x >= 1e-4) & (x < 1e11)
    safe = np.where(fast, x, 1.0)
    e = np.floor(np.log10(safe)).astype(np.intp)
    y = safe * _POW10[11 - e]
    m = np.rint(y)
    fast &= (y >= 1e11) & (m < 1e12) & (np.abs(y - m) < 0.499)
    # The fallback cells take the digits of 1 so that no index leaves a table.
    m = np.where(fast, m, 1e11)
    e = np.where(fast, e, 0)

    # m * 10**(e - 11) = whole + frac * 1e-15, both exact integers in float64.
    whole, frac = _split(m, _POW10[11 - e])
    frac *= _POW10[e + 4]

    hi, rest = _split(whole, 1e8)
    mid, low = _split(rest, 1e4)
    f1, rest1 = _split(frac, 1e12)
    f2, rest2 = _split(rest1, 1e8)
    f3, f4 = _split(rest2, 1e4)
    sep = np.full(x.shape[1], at["comma"])
    sep[0] = at["newline"]
    # Each group's word kind: whole drops its leading zeros up to its first
    # nonzero group, frac its trailing zeros after its last.
    groups = [
        (hi, sep),
        (mid, np.where(hi == 0, at["lead"], at["zero"])),
        (low, np.where(whole < 1e4, at["units"], at["zero"])),
        (f1, np.where(rest1 == 0, at["dot_trail"], at["dot"])),
        (f2, np.where(rest2 == 0, at["trail"], at["zero"])),
        (f3, np.where(f4 == 0, at["trail"], at["zero"])),
        (f4, at["trail"]),
    ]
    idx = np.empty(x.shape + (len(groups),), np.intp)
    for k, (group, kind) in enumerate(groups):
        idx[..., k] = group
        idx[..., k] += kind

    buf = bytearray(idx.size * 4)
    np.take(words, idx, out=np.frombuffer(buf, np.uint32).reshape(idx.shape))
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = b"".join(
            ("%.12g" % v).encode().ljust(_SLOT - 1, b"\0") for v in x.ravel()[slow].tolist()
        )
        cells = np.frombuffer(buf, np.uint8).reshape(-1, _SLOT)
        cells[slow, 1:] = np.frombuffer(text, np.uint8).reshape(-1, _SLOT - 1)
    return buf.translate(None, b"\0")


def write_blocks(fh, header: str, columns) -> None:
    """Write equal-length float ``columns`` under ``header`` to the binary
    file ``fh``, one block of rows at a time."""
    fh.write(header.encode("latin1"))
    for lo in range(0, len(columns[0]), _BLOCK_ROWS):
        fh.write(_format_block(np.stack([c[lo : lo + _BLOCK_ROWS] for c in columns], axis=1)))
    fh.write(b"\n")


def write_csv(path, header: str, columns) -> None:
    """Write equal-length float ``columns`` under ``header`` to ``path``."""
    if len(columns) * len(columns[0]) < _MIN_BLOCK_CELLS:
        np.savetxt(
            path, np.column_stack(columns), fmt="%.12g", delimiter=",", header=header, comments=""
        )
        return
    with open(path, "wb") as fh:
        write_blocks(fh, header, columns)
