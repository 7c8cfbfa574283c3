"""Write a float table as CSV text, byte for byte as ``np.savetxt`` with
``fmt="%.12g"``, ``delimiter=","`` and ``comments=""`` writes it.

``np.savetxt`` applies Python's ``%`` to one row at a time, which costs about
1.4 us per cell with numpy 2.4.  Here every table is formatted in blocks of
rows with array arithmetic.  A positive cell x in [1e-99, 1e3) has a decimal
exponent e in [-99, 2] and 12 significant digits m = rint(x * 10**k),
k = 11 - e, which ``%.12g`` prints with trailing zeros dropped: in fixed
notation for e >= -4, and as ``d.ddddddddddde-XX`` below.  The cell is laid
out in five place-aligned 4-byte words (20 bytes).  In fixed notation they
are the separator before the cell and places 10**2 .. 10**0, then the point
and places 10**-1 .. 10**-3, and three words of four places down to
10**-15.  In exponent notation the cell is laid out as if it were in
[1, 10), and the fifth word, whose places are then 0, is ``e-XX``.  Each
word is looked up from a digit group of m in a table that turns leading or
trailing zeros into NUL bytes where ``%g`` omits them.  One
``bytearray.translate`` per block then deletes the NULs in C.  Fidelities
are at most 1, and ``curve``'s theta_t column stays below 1e3 for fewer
than about 159 periods.  A cell the arithmetic leaves to Python fits the 19
bytes after the separator: the longest ``%.12g`` text,
``-1.23456789012e-100``, is 19 bytes.

The writer alone cuts a table into chunks of up to ``_CHUNK_ROWS`` rows,
and each chunk into blocks of up to ``_BLOCK_CELLS`` cells: it asks its
caller's ``columns(lo, hi)`` for rows lo up to hi.  ``curve`` computes
those rows, times included, so it never holds a full-length array: the
peak of numpy's buffers is about 1.14 MB at any ``--grid`` from 40,000 up
for the bundled 5 columns, and 1.41 MB at 13 (1.55 MB and 1.82 MB with
work arrays of 104 bytes a cell, 2.96 MB and 7.68 MB with blocks of a
whole chunk), most of it this writer's work arrays, which share their
memory across their lifetimes (see :class:`_Work`).  A table of
two or more chunks, in a process that may run on two or more CPUs
(``os.sched_getaffinity``) and has ``os.fork``, is shared with one forked
worker: it computes and formats the odd chunks and sends their text down
a pipe, and the writer formats the even ones and writes every chunk in
row order.  Past its imports, ``curve --grid 200000`` then
takes about 0.09 s instead of 0.13 s (wall medians of 12 runs in one
process, a 2-core host).  The worker shares its parent's pages until one
of them writes a page; its own pages come to about 6.3 MB and its peak
resident set to about 27 MB, so the larger of the two processes' peaks,
which is what a run's peak measures, is the parent's.  The writer
computes any chunk the worker did not send, so a chunk that fails raises
the same exception at the same row as with one process.

The fast path is exact only when it can prove that rint(y), for the
computed y = x * 10**k, is the digit string ``%.12g`` rounds the exact
product y* to.  Every fast y is below 1e12 < 2**40, so rounding the product
moves it by at most half its ulp, 2**-14, about 6.1e-5.

* For k <= 22 (e >= -11) 10**k is exact and y is rounded once:
  |y - y*| <= 6.1e-5.  (Here any margin below 1/2 is exact: every tie
  m + 1/2 below 2**40 is a float and rounding is monotone, so the product
  cannot cross a tie, only land on one.  A margin that admits
  |y - rint(y)| = 1/2 is not.)
* For k > 22 (e <= -12) 10**k is rounded too, by a relative error of at
  most 2**-53, so y is rounded twice: |y - y*| <= 1e12 * 2**-53 + 2**-14,
  about 1.72e-4, and twice-rounded products can cross a tie.
* Either way |y - y*| <= 1.72e-4 < 2e-4.  A y with |y - rint(y)| < 0.4998
  thus has y* within 0.49998 of rint(y), on the same side of every tie, and
  rint(y) is the digit string ``%.12g`` rounds to.  One margin serves
  every k.
* The same bound keeps the decade right.  A fast y >= 1e11 has
  y* > 1e11 - 2e-4.  Were y* below 1e11, its digits at exponent e - 1,
  10 y* > 1e12 - 2e-3, would round up to 1e12, which ``%.12g`` prints as
  the digits 1e11 at exponent e, as the fast path does.  A fast m < 1e12
  has y < 1e12 - 0.5002 and y* < 1e12 - 1/2, so its digits do not round
  up into the next decade.

A cell is formatted by ``"%.12g" % v`` instead, which is the reference,
when its product lies within the margin of a tie, when m is not a 12-digit
number (e off by one, or the digits rounding up into the next decade, which
for e = -5 moves the cell into fixed notation), or when it is zero,
negative or outside [1e-99, 1e3).

Every ``np.take`` runs with ``mode="clip"``: with the default
``mode="raise"`` numpy buffers the output to keep it unchanged on a bad
index, which costs a copy of every looked-up word.  The indices here are in
range by construction, so clipping changes no byte.  ``mode="wrap"`` is
not used: it reduces a negative index by repeated addition, so one stray
index such as a NaN cast to an integer makes it loop for minutes.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import struct

import numpy as np

#: Rows per chunk: what the writer asks its caller's ``columns`` for at a
#: time, what a forked worker formats and sends, and what decides the fork
#: (two or more chunks).  Halving it doubles the calls and pipe messages and
#: makes every table of 2,049 to 4,096 rows fork: the 32 seed-0
#: ``param-scan`` configs took a p90 of 5.33 ms each against 2.35 ms.
_CHUNK_ROWS = 4096

#: Cells formatted per block, at most: the size of the work arrays, 64
#: bytes a cell, about 655 kB, whatever the column count.  A chunk of the
#: bundled 5-column table is cut into two blocks of 2,048 rows.  Against
#: blocks of a whole chunk, ``curve --grid 200000``'s peak resident set fell
#: from 32.26 to 30.9 MB and its wall time moved -0.7 to +2.1 %, within
#: noise (medians of three rounds of 10 alternating pairs of fresh
#: processes, a 2-core host).  Against the same, 1,024-row blocks saved
#: 1.7 MB for +2.3-2.6 % of wall time, and 512-row blocks 2.1 MB for +5 %.
_BLOCK_CELLS = 10_240

#: Cells formatted per block, at least, unless the table is smaller.  A
#: block's numpy calls cost about 40 us whatever its size, and about 40 ns
#: a cell on top.  ``param-scan``'s tables (501 to 4,001 rows of 3 columns)
#: take one to four blocks of up to 1,024 rows instead of up to nine of 256
#: to 500: a 3,708-row table is written in about 0.57 ms instead of
#: 0.78 ms, against 0.67 ms with a floor of 2,048 cells, 0.55 ms with
#: 4,096 and 0.60 ms in one block (in-process medians, ``BENCH_29.json``).
#: Larger blocks hold more memory while such a table is written (a
#: tracemalloc peak of 362 kB for that table, 481 kB with 4,096 cells),
#: and the writer sets ``param-scan``'s peak resident set: with 4,096
#: cells it read 0.12-0.16 MB (+0.4 %) above the parent's, with this
#: floor level with it, and the benchmark's tail was no shorter within
#: noise.
_FLOOR_CELLS = 3072

#: Bytes per cell: five words.
_SLOT = 20

#: The kinds of word and how many of each, in the order of ``_word_table``,
#: and the offset of each kind in it.
_KINDS = {
    "zero": 10000, "trail": 10000, "dot": 1000, "dot_trail": 1000,
    "comma": 1000, "newline": 1000, "exp": 100,
}
_AT = dict(zip(_KINDS, itertools.accumulate(_KINDS.values(), initial=0)))

#: By k = 11 - e, for the exponent e of a cell's first digit: 10**k rounded
#: to float64 (exact for k <= 22) ...
_POW10 = np.array([float(10**k) for k in range(111)])
#: ... the place value 10**j of the units digit of the first word, j = k in
#: fixed notation (k <= 15) and 11 in exponent notation, which lays a cell
#: out as if it were in [1, 10) ...
_LEAD = np.array([float(10 ** (k if k <= 15 else 11)) for k in range(111)])
#: ... 10**(15 - j), which turns the digits after it into places
#: 10**-1 .. 10**-15 ...
_FRAC = 1e15 / _LEAD
#: ... and the offset of the fifth word: places 10**-12 .. 10**-15, which
#: are 0 in exponent notation, where the word is the exponent ``e-XX``.
_FIFTH = np.array(
    [_AT["trail"] if k <= 15 else _AT["exp"] + k - 11 for k in range(111)], np.float32
)

#: The divisors that split places 10**-1 .. 10**-15, an integer below 1e15,
#: into the digit groups of words two to five.
_GROUPS = np.array([1e12, 1e8, 1e4])[:, None, None]
#: What dropping trailing zeros adds to the offsets of words two to four.
_TRAIL = np.array(
    [_AT["dot_trail"] - _AT["dot"], _AT["trail"] - _AT["zero"], _AT["trail"] - _AT["zero"]],
    np.float32,
)[:, None, None]
#: The offsets of words two to four's kinds otherwise (the first word's is
#: ``comma`` or ``newline``, the fifth's ``_FIFTH``).
_BASE = np.array([_AT["dot"], _AT["zero"], _AT["zero"]], np.float64)[:, None, None]

#: The largest float below 1e3.
_BELOW_1E3 = math.nextafter(1e3, 0.0)


@functools.cache
def _word_table():
    """Every 4-byte word a cell can use, the kinds in the order of ``_KINDS``.

    A digit group v < 10000 gives four places.  ``zero`` keeps every digit
    and ``trail`` drops trailing zeros.  The three-digit groups below 1000
    carry one more byte first: the decimal point (``dot``; ``dot_trail``
    drops it with the trailing zeros when the whole fraction is 0), or the
    separator before the cell (``comma``, ``newline``), followed by places
    10**2 .. 10**0 without leading zeros, so that 0 prints as ``0``.
    ``exp`` holds ``e-00`` .. ``e-99``.

    The words are broadcast copies of the ten digit bytes along the axes of
    v = 1000 a + 100 b + 10 c + d, and the bytes to drop are masks of the
    same shape.  Built with integer ``//`` and ``%`` instead, the table
    paged about 0.9 MB of numpy code into the resident set of a process
    that had run 32 ``curve`` commands, code that nothing else in ``curve``
    runs; comparisons and products of bytes paged 0.3 MB.
    """
    digit = np.frombuffer(b"0123456789", np.uint8)
    nonzero = np.ones(10, bool)
    nonzero[0] = False
    zero = np.empty((10, 10, 10, 10, 4), np.uint8)
    some = np.empty(zero.shape, bool)  # the place's digit is not 0
    for i in range(4):
        zero[..., i] = digit.reshape((10,) + (1,) * (3 - i))
        some[..., i] = nonzero.reshape((10,) + (1,) * (3 - i))
    trail = np.logical_or.accumulate(some[..., ::-1], axis=-1)[..., ::-1]
    lead = np.logical_or.accumulate(some, axis=-1)
    lead[..., 3] = True
    zero, trail, lead = (w.reshape(10000, 4) for w in (zero, trail, lead))

    def kept(mask, first=None):
        words = np.zeros_like(zero)
        np.copyto(words, zero, where=mask)
        if first is None:
            return words
        words = words[:1000]
        words[:, 0] = first
        return words

    dot_trail = kept(trail, ord("."))
    dot_trail[0, 0] = 0  # the fraction is 0
    exp = np.empty((10, 10, 4), np.uint8)
    exp[..., :2] = np.frombuffer(b"e-", np.uint8)
    exp[..., 2] = digit[:, None]
    exp[..., 3] = digit
    kinds = {
        "zero": zero,
        "trail": kept(trail),
        "dot": kept(True, ord(".")),
        "dot_trail": dot_trail,
        "comma": kept(lead, ord(",")),
        "newline": kept(lead, ord("\n")),
        "exp": exp.reshape(100, 4),
    }
    return np.concatenate(list(kinds.values())).view(np.uint32).ravel()


class _Work:
    """Work arrays for blocks of up to ``rows`` rows of ``cols`` cells, made
    once per table; each block uses their first rows.

    ``words`` holds five intp words a cell.  A block of n rows uses its
    first n * cols * 5 words, as five (n, cols) planes: the stacked block x,
    the float scratch y, m and tmp, and the exponents k; once x and k are
    dead, the same planes hold the digit-group arithmetic.  Viewed as
    (n, cols, 5), the same memory is the word indices ``idx``.  ``buf``, the
    block's text, holds 20 bytes a cell; before the text is gathered into
    it, its memory holds the five digit groups' word offsets as float32
    planes, exact because every offset is an integer below
    ``_word_table().size``, 24,100 < 2**24.  Sharing is safe because
    :func:`_format_block` formats the fallback cells from x before any plane
    overwrites it, takes the last offsets from k before its plane is
    overwritten, reads every plane before it writes ``idx``, and reads the
    groups before the gather writes the text.  The writer then takes 64
    bytes a cell (40 for the words, 20 for the text, 4 for the masks), not
    104.
    """

    def __init__(self, rows: int, cols: int):
        self.rows = rows
        self.cols = cols
        self.words = np.empty(rows * cols * 5, np.intp)
        self.fast = np.empty((rows, cols), bool)
        self.masks = np.empty((3, rows, cols), bool)
        self.buf = bytearray(rows * cols * _SLOT)

    def planes(self, n: int):
        """A block of ``n`` rows' five planes as float64, x, y, m, tmp and
        the last, and that last plane as the intp exponents k."""
        planes = self.words[: n * self.cols * 5].reshape(5, n, self.cols)
        return planes.view(np.float64), planes[4]


def _format_block(x: np.ndarray, w: _Work) -> bytes:
    """The rows of ``x`` (rows, columns), each with a leading newline.

    Every array operation writes into the work arrays ``w``: with a fresh
    set of temporaries per block, about 5 MB, the time to write a large
    table depended on the state of the allocator.  ``x`` may be the x plane
    of ``w`` for its rows.
    """
    words = _word_table()
    n = len(x)
    fast = w.fast[:n]
    masks = w.masks[:, :n]
    a = masks[0]
    planes, k = w.planes(n)
    y, m, tmp = planes[1:4]

    # y = x 10**k and its digits m, where k = 11 - floor(log10(x)) for the
    # cells of [1e-99, 1e3), the others clamped into that range.
    np.fmax(x, 1e-99, out=y)
    np.fmin(y, _BELOW_1E3, out=y)
    np.equal(y, x, out=fast)
    np.log10(y, out=tmp)
    np.floor(tmp, out=tmp)
    np.subtract(11, tmp, out=k, casting="unsafe")
    y *= _POW10.take(k, out=tmp, mode="clip")
    np.rint(y, out=m)
    # The fast cells: m has 12 digits and y is further from a rounding tie
    # than the product's error (see the module docstring).
    fast &= np.greater_equal(y, 1e11, out=a)
    fast &= np.less(m, 1e12, out=a)
    y -= m
    fast &= np.less(np.abs(y, out=y), 0.4998, out=a)
    slow = np.flatnonzero(np.logical_not(fast, out=a))
    # The fallback cells' text, read from x while no plane has overwritten
    # it.
    text = b"".join(
        ("%.12g" % v).encode().ljust(_SLOT - 1, b"\0") for v in x.ravel()[slow].tolist()
    )
    # The fallback cells take the digits of 1 so that no index leaves a table.
    np.copyto(m, 1e11, where=a)
    np.copyto(k, 11, where=a)

    # m = low * lead + rest, and rest * 1e15 / lead, an integer below 1e15,
    # holds places 10**-1 .. 10**-15; all are exact in float64.  low takes
    # the x plane, and the places the k plane once the fifth word's offsets
    # are taken.  Each group's word offset goes to its float32 plane of g.
    g = np.frombuffer(w.buf, np.float32, n * w.cols * 5).reshape(5, n, w.cols)
    low = planes[0]
    lead = _LEAD.take(k, out=tmp, mode="clip")
    np.divide(m, lead, out=low)
    np.floor(low, out=low)
    m -= np.multiply(low, lead, out=y)
    np.add(low, _AT["comma"], out=g[0])
    g[0][:, 0] += _AT["newline"] - _AT["comma"]
    _FIFTH.take(k, out=g[4], mode="clip")
    q = planes[1:]
    np.multiply(m, _FRAC.take(k, out=tmp, mode="clip"), out=q[3])
    # q = (p // 1e12, p // 1e8, p // 1e4, p) for the places p, and the digit
    # groups of words two to five are q[1:] - 1e4 q[:3], taken from the last
    # so that each q[i] is read before it changes; low, now in g[0], leaves
    # its plane as the scratch.
    np.divide(q[3], _GROUPS, out=q[:3])
    np.floor(q[:3], out=q[:3])
    for i in (2, 1, 0):
        q[i + 1] -= np.multiply(q[i], 1e4, out=low)

    # Each group's word: the fraction drops its trailing zeros after its last
    # nonzero group, and in exponent notation the fifth group is 0 and its
    # word the exponent's.
    np.equal(q[1:], 0, out=masks)
    masks[1] &= masks[2]
    masks[0] &= masks[1]
    np.add(q[:3], _BASE, out=g[1:4])
    g[4] += q[3]
    # The planes are dead from here on: their memory takes what dropping the
    # trailing zeros adds (a product and a sum take about a third of the
    # time of an add with ``where=masks``), then the indices.
    trail = w.words.view(np.float32)[: n * w.cols * 3].reshape(3, n, w.cols)
    g[1:4] += np.multiply(masks, _TRAIL, out=trail)
    idx = w.words[: n * w.cols * 5].reshape(n, w.cols, 5)
    for i, group in enumerate(g):
        np.copyto(idx[..., i], group, casting="unsafe")

    size = idx.size * 4
    cells = np.frombuffer(w.buf, np.uint8, size).reshape(-1, _SLOT)
    words.take(idx, out=cells.view(np.uint32).reshape(idx.shape), mode="clip")
    if slow.size:
        cells[slow, 1:] = np.frombuffer(text, np.uint8).reshape(-1, _SLOT - 1)
    block = w.buf if size == len(w.buf) else w.buf[:size]
    return block.translate(None, b"\0")


def _block_rows(rows: int, cols: int) -> int:
    """Rows per block for a table of ``rows`` rows of ``cols`` columns: an
    eighth of its rows but at least ``_FLOOR_CELLS`` cells, cut to
    ``_BLOCK_CELLS`` cells, and at most a chunk and the table.

    The floor keeps small tables in few blocks: ``param-scan``'s take one
    to four (with a floor of 256 rows they took blocks of 256 to 500 rows,
    and with one block a table at 104 bytes a cell the benchmark's peak
    resident set rose from 33.68 to 35.02 MB).  The eighth makes a block
    grow with a larger table until, from 16,384 rows on, the cell budget
    binds at 5 columns: ``curve --grid 200000``'s blocks are 2,048 rows,
    and at 13 columns 787, so the writer's memory does not grow with the
    columns.
    """
    eighth = max(_FLOOR_CELLS // cols, rows // 8)
    return max(1, min(_BLOCK_CELLS // cols, eighth, _CHUNK_ROWS, rows))


def write_blocks(fh, header: str, rows: int, columns) -> None:
    """Write a float table of ``rows`` rows under ``header`` to the binary
    file ``fh``.

    ``columns(lo, hi)`` returns rows lo up to hi as a list of equal-length
    column slices; the writer asks for chunks of up to ``_CHUNK_ROWS`` rows
    and cuts blocks of up to ``_BLOCK_CELLS`` cells from each, so a chunk's
    rows never share a block with the next chunk's.  Raises ValueError if a
    chunk holds another number of rows.

    A table of two or more chunks, on a host that lets this process run on
    two or more CPUs, is shared with one forked worker (see :func:`_fork`):
    it computes and formats the odd chunks, and this process the even ones
    and every write, in row order.  Should the worker stop before it sends
    a chunk, because computing it raised or it was killed, this process
    computes that chunk and the rest, so a failure surfaces at the same
    row, with the same exception, as with one process.
    """
    count = -(-rows // _CHUNK_ROWS)
    # The word table is built once, before the work arrays and the fork, so
    # the arrays that build it are gone before either exists.
    _word_table()
    w = None

    def formatted(i):
        nonlocal w
        lo = i * _CHUNK_ROWS
        hi = min(lo + _CHUNK_ROWS, rows)
        chunk = columns(lo, hi)
        if len(chunk[0]) != hi - lo:
            raise ValueError(f"chunk {i} holds {len(chunk[0])} rows, not {hi - lo}")
        if w is None:
            w = _Work(_block_rows(rows, len(chunk)), len(chunk))
        for start in range(0, hi - lo, w.rows):
            part = [c[start : start + w.rows] for c in chunk]
            x = w.planes(len(part[0]))[0][0]  # the x plane, which idx reuses
            yield _format_block(np.stack(part, axis=1, out=x), w)

    fh.write(header.encode("latin1"))
    pid, pipe = _fork(count, formatted)
    try:
        for i in range(count):
            if pipe is not None and i % 2:
                text = _receive(pipe)
                if text is not None:
                    fh.write(text)
                    del text  # not held while the next chunk is formatted
                    continue
                # The worker stopped: this process takes over from chunk i.
                pipe.close()
                pipe = None
                os.waitpid(pid, 0)
            # No block is held while the next is formatted.
            fh.writelines(formatted(i))
    finally:
        if pipe is not None:
            pipe.close()
            os.waitpid(pid, 0)
    fh.write(b"\n")


#: The length prefix of a chunk's text in the worker's pipe.
_PREFIX = struct.Struct("<Q")

#: The worker's pipe buffer: the most an unprivileged process may ask of
#: Linux by default (``/proc/sys/fs/pipe-max-size``).  Kernel memory, not
#: part of either process's resident set.
_PIPE_BYTES = 1 << 20


def _fork(count: int, formatted):
    """Fork a worker that formats the odd chunks of a table of ``count``
    chunks, and return its pid and the read end of its pipe; or (0, None),
    when the table has one chunk, the host lets this process run on one
    CPU or has no ``os.fork`` or ``os.sched_getaffinity``, and the caller
    formats every chunk.

    The worker sends each chunk's text down the pipe and nothing else, and
    stops at its first exception, which the caller meets again when it
    computes that chunk itself.  Its body is one ``try``/``finally`` that
    ends in ``os._exit``: it never returns into its caller's frames, never
    flushes or closes a file its parent has open, and runs no ``atexit``
    hook.  A write blocks while the pipe is full, so beyond the pipe's at
    most ``_PIPE_BYTES`` the worker holds at most one chunk's text, and if
    the parent closes the pipe (or dies) the write fails and the worker
    exits.  The caller closes the pipe and reaps the worker.

    The process that forks must run no other thread, as ``cli`` does: it
    keeps OpenBLAS to one.
    """
    shared = count > 1 and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    if not shared or len(os.sched_getaffinity(0)) < 2:
        return 0, None
    import fcntl

    r, w = os.pipe()
    try:
        # A chunk's text (about 320 kB at 5 columns) then crosses in one
        # write and one or two reads, instead of 64 kB at a time with a
        # switch between the processes for each.
        fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    except (AttributeError, OSError):  # not Linux, or above the host's limit
        pass
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return pid, open(r, "rb")
    try:
        os.close(r)
        with open(w, "wb") as pipe:
            for i in range(1, count, 2):
                blocks = list(formatted(i))
                pipe.write(_PREFIX.pack(sum(map(len, blocks))))
                pipe.writelines(blocks)
                pipe.flush()
                del blocks  # not held while the next chunk is formatted
    finally:
        os._exit(0)


def _receive(pipe):
    """The text of the worker's next chunk from its ``pipe``, or None if the
    worker stopped before it sent all of it."""
    head = pipe.read(_PREFIX.size)
    if len(head) != _PREFIX.size:
        return None
    (size,) = _PREFIX.unpack(head)
    body = pipe.read(size)
    return body if len(body) == size else None
