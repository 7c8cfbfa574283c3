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

A table reaches the writer as a function ``chunk(i)`` that returns its
rows i * ``_BLOCK_ROWS`` up to the next chunk, each chunk cut into blocks.
``curve`` computes its columns, times included, one chunk at a time, so it
never holds a full-length array: the peak of numpy's buffers is about
3.8 MB at any ``--grid`` from 40,000 up, most of it this writer's work
arrays.  A table of two or more chunks, in a process that may run on two
or more CPUs (``os.sched_getaffinity``) and has ``os.fork``, is shared
with one forked worker: it computes and formats the odd chunks and sends
their text down a pipe, and the writer formats the even ones and writes
every chunk in row order.  Past its imports, ``curve --grid 200000`` then
takes about 0.09 s instead of 0.13 s (wall medians of 12 runs in one
process, a 2-core host).  The worker shares its parent's pages until one
of them writes a page; its own pages come to about 6.3 MB and its peak
resident set to about 27 MB, so the larger of the two processes' peaks,
which is what a run's peak measures, is the parent's.  ``write_csv``
deletes its file when anything raises part way, so a table that fails to
compute, in either process, leaves no truncated ``curve.csv``.

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
import pickle
import struct

import numpy as np

#: Rows formatted per block, at most.  Writing the 200,001 x 5 table of
#: ``curve --grid 200000`` took 0.084 s with 4096, against 0.088 s with 2048
#: and 0.10 s with 1024 rows (more calls per cell), and 0.081 s with 8192,
#: whose work arrays are twice the size (CPU medians of 8 runs, a 2-core host).
_BLOCK_ROWS = 4096

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
_FIFTH = np.array([float(_AT["trail"] if k <= 15 else _AT["exp"] + k - 11) for k in range(111)])

#: The divisors that split places 10**-1 .. 10**-15, an integer below 1e15,
#: into the digit groups of words two to five.
_GROUPS = np.array([1e12, 1e8, 1e4])[:, None, None]
#: What dropping trailing zeros adds to the offsets of words two to four.
_TRAIL = np.array(
    [_AT["dot_trail"] - _AT["dot"], _AT["trail"] - _AT["zero"], _AT["trail"] - _AT["zero"]]
)[:, None, None]
#: The offsets of the five words' kinds otherwise (the fifth word's is
#: ``_FIFTH``).
_BASE = np.array([_AT["comma"], _AT["dot"], _AT["zero"], _AT["zero"], 0.0])[:, None, None]

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
    once per table; each block uses their first rows."""

    def __init__(self, rows: int, cols: int):
        self.x = np.empty((rows, cols))
        self.fast = np.empty((rows, cols), bool)
        self.masks = np.empty((3, rows, cols), bool)
        self.k = np.empty((rows, cols), np.intp)
        self.floats = np.empty((3, rows, cols))
        self.groups = np.empty((5, rows, cols))
        self.idx = np.empty((rows, cols, 5), np.intp)
        self.buf = bytearray(rows * cols * _SLOT)


def _format_block(x: np.ndarray, w: _Work) -> bytes:
    """The rows of ``x`` (rows, columns), each with a leading newline.

    Every array operation writes into the work arrays ``w``: with a fresh
    set of temporaries per block, about 5 MB, the time to write a large
    table depended on the state of the allocator.
    """
    words = _word_table()
    n = len(x)
    fast, k, idx = w.fast[:n], w.k[:n], w.idx[:n]
    masks = w.masks[:, :n]
    a = masks[0]
    floats = w.floats[:, :n]
    y, m, tmp = floats
    g = w.groups[:, :n]
    low = g[0]

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
    # The fallback cells take the digits of 1 so that no index leaves a table.
    np.copyto(m, 1e11, where=a)
    np.copyto(k, 11, where=a)

    # m = low * lead + rest, and rest * 1e15 / lead, an integer below 1e15,
    # holds places 10**-1 .. 10**-15; all are exact in float64.  Then the
    # digit groups of words two to five.
    lead = _LEAD.take(k, out=tmp, mode="clip")
    np.divide(m, lead, out=low)
    np.floor(low, out=low)
    m -= np.multiply(low, lead, out=y)
    np.multiply(m, _FRAC.take(k, out=tmp, mode="clip"), out=g[4])
    np.divide(g[4], _GROUPS, out=g[1:4])
    np.floor(g[1:4], out=g[1:4])
    g[2:] -= np.multiply(g[1:4], 1e4, out=floats)

    # Each group's word: the fraction drops its trailing zeros after its last
    # nonzero group, and in exponent notation the fifth group is 0 and its
    # word the exponent's.
    np.equal(g[2:], 0, out=masks)
    masks[1] &= masks[2]
    masks[0] &= masks[1]
    np.add(g[1:4], _TRAIL, out=g[1:4], where=masks)
    g += _BASE
    g[4] += _FIFTH.take(k, out=tmp, mode="clip")
    low[:, 0] += _AT["newline"] - _AT["comma"]
    for i, group in enumerate(g):
        np.copyto(idx[..., i], group, casting="unsafe")

    size = idx.size * 4
    cells = np.frombuffer(w.buf, np.uint8, size).reshape(-1, _SLOT)
    words.take(idx, out=cells.view(np.uint32).reshape(idx.shape), mode="clip")
    if slow.size:
        text = b"".join(
            ("%.12g" % v).encode().ljust(_SLOT - 1, b"\0") for v in x.ravel()[slow].tolist()
        )
        cells[slow, 1:] = np.frombuffer(text, np.uint8).reshape(-1, _SLOT - 1)
    block = w.buf if size == len(w.buf) else w.buf[:size]
    return block.translate(None, b"\0")


def _block_rows(rows: int) -> int:
    """Rows per block for a table of ``rows`` rows: an eighth of them, but at
    least 256 and at most ``_BLOCK_ROWS``.

    The work arrays take 144 bytes a cell.  For a table its caller holds
    whole, blocks of an eighth of its rows keep them to about twice the
    table's own floats.  From 32,768 rows on a block is ``_BLOCK_ROWS``
    rows, about 3 MB of work arrays at 5 columns, and as ``curve`` streams
    such a table in chunks of ``_BLOCK_ROWS`` rows, each chunk is one block
    and the work arrays are most of what it holds at once.  Each block also
    costs about 65 us of numpy calls, about the time its cells take at 256
    rows of 3 columns; smaller blocks would mostly make calls.
    """
    return min(_BLOCK_ROWS, max(256, rows // 8))


def write_blocks(fh, header: str, rows: int, chunk) -> None:
    """Write a float table of ``rows`` rows under ``header`` to the binary
    file ``fh``.

    ``chunk(i)`` returns rows i * ``_BLOCK_ROWS`` up to the next chunk's
    first row as a list of equal-length column slices.  Blocks are cut from
    each chunk, so a chunk's rows never share a block with the next chunk's.
    Raises ValueError if a chunk holds another number of rows.

    A table of two or more chunks, on a host that lets this process run on
    two or more CPUs, is shared with one forked worker (see :func:`_fork`):
    it computes and formats the odd chunks, and this process the even ones
    and every write, in row order.  A chunk that raises in the worker raises
    here when its turn comes, so a failure surfaces at the same row, with
    the same exception, as with one process.
    """
    count = -(-rows // _BLOCK_ROWS)
    step = _block_rows(rows)
    w = None

    def formatted(i):
        nonlocal w
        columns = chunk(i)
        n = min(_BLOCK_ROWS, rows - i * _BLOCK_ROWS)
        if len(columns[0]) != n:
            raise ValueError(f"chunk {i} holds {len(columns[0])} rows, not {n}")
        if w is None:
            w = _Work(min(step, rows), len(columns))
        for lo in range(0, n, step):
            part = [c[lo : lo + step] for c in columns]
            yield _format_block(np.stack(part, axis=1, out=w.x[: len(part[0])]), w)

    fh.write(header.encode("latin1"))
    pid, pipe = _fork(count, formatted)
    try:
        for i in range(count):
            if pipe is not None and i % 2:
                fh.write(_receive(pipe, i))
            else:
                for block in formatted(i):
                    fh.write(block)
    finally:
        if pipe is not None:
            pipe.close()
            os.waitpid(pid, 0)
    fh.write(b"\n")


#: The length prefix of a worker's message: the length of a chunk's text,
#: or minus that of the pickled exception its chunk raised.
_PREFIX = struct.Struct("<q")

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

    The worker sends each chunk's text, or the exception computing it
    raised, down the pipe, and stops at its first exception.  Its body is
    one ``try``/``finally`` that ends in ``os._exit``: it never returns
    into its caller's frames, never flushes or closes a file its parent has
    open, and runs no ``atexit`` hook.  A write blocks while the pipe is
    full, so beyond the pipe's at most ``_PIPE_BYTES`` the worker holds at
    most one chunk's text, and if the parent closes the pipe (or dies) the
    write fails and the worker exits.  The caller closes the pipe and reaps
    the worker.

    The process that forks must run no other thread, as ``cli`` does: it
    keeps OpenBLAS to one.
    """
    shared = count > 1 and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    if not shared or len(os.sched_getaffinity(0)) < 2:
        return 0, None
    import fcntl

    _word_table()  # built once, before the fork, for both processes
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
                try:
                    blocks = list(formatted(i))
                except BaseException as exc:
                    text = pickle.dumps(exc)
                    pipe.write(_PREFIX.pack(-len(text)) + text)
                    break
                pipe.write(_PREFIX.pack(sum(map(len, blocks))))
                pipe.writelines(blocks)
                pipe.flush()
    finally:
        os._exit(0)


def _receive(pipe, i: int) -> bytes:
    """Chunk ``i``'s text from the worker's ``pipe``; raises the exception
    that computing it raised in the worker."""
    head = pipe.read(_PREFIX.size)
    (size,) = _PREFIX.unpack(head) if len(head) == _PREFIX.size else (0,)
    body = pipe.read(abs(size))
    if not body or len(body) != abs(size):
        raise ChildProcessError(f"the worker exited before it sent chunk {i}")
    if size < 0:
        raise pickle.loads(body)
    return body


def write_csv(path, header: str, rows: int, chunk) -> None:
    """Write the table of :func:`write_blocks` to ``path``.

    If anything raises once the file is open, computing a chunk or writing
    it, the partial file is deleted and the exception re-raised.
    """
    fh = open(path, "wb")
    try:
        with fh:
            write_blocks(fh, header, rows, chunk)
    except BaseException:
        os.remove(path)
        raise
