"""The bulk route of JSONL prediction logs: the block parser of canonical
rows, the block loop that runs it, and the split of a large log between
this process and a forked child.

A block of canonical K-class rows parses to one (rows, K+1) float64
array, the label last. The route is all or nothing: :func:`read_log`
returns the blocks of a log whose every line is canonical, or None, and
then the per-line route of :mod:`calibkit.data` reads the whole log.

The numbers of a block are read by :func:`decimals`, which gives the
float64 that ``float`` gives for each token without running a decimal
to binary conversion per token (Clinger's fast path, widened by x86
extended precision). A token's digits, without its ``.``, are read as an
int64 w and its decimal exponent q comes from the position of the ``.``
and from any ``e`` part. Then x = w * P10[q] in ``np.longdouble``, where
P10[q] is the longdouble nearest to 10**q for q in [-342, 308]. Each of
the two roundings is within 2**-64 of its exact value, so x is within
about 2**-63 of the token's exact value, and the float64 that x rounds to
is the correct one unless a midpoint between two adjacent doubles lies
within |x| * 2**-61 of x: then the two ends of that band round to
different doubles. Such a token goes to ``float``, and so does one whose
w saturates at the int64 maximum, whose q is outside the table or whose
result is subnormal, infinite or 0 from a non-zero w. On a logful of
probabilities that is about 0.2% of the tokens. The kernel needs a
longdouble with a 64-bit significand (x86 extended precision); elsewhere
a block's numbers parse with ``np.fromstring``, which rounds correctly
too.

A log of at least ``SPLIT_BYTES`` (32 MiB), read by a process that may
run on two or more CPUs, is cut at the first line start at or after its
byte midpoint. Before this process reads the head, it forks a child that
runs :func:`serve`: it reads the K-class canonical rows of the log from
the cut with the same block loop, keeps its blocks in memory and writes
them to a pipe once, at the end, all raw in native byte order: the int64
row count n, or -1 when a line of the tail is not canonical, then the
n x (K+1) float64 values of its blocks, the label last in each row. The
child leaves through ``os._exit`` on every path, 0 after a full write and
1 on any exception, so it runs no exit handler and never returns into
the caller's code. Writing only at the end keeps the child from blocking
on a full pipe while this process is still busy with the head.

This process forks only when it has one OS thread (on Linux, one entry in
``/proc/self/task``): a thread, such as an OpenBLAS worker, does not
survive a fork, and a lock it holds would stay locked in the child. The
CLI qualifies, as it loads numpy with one OpenBLAS thread unless the
user sets ``OPENBLAS_NUM_THREADS``. A process that does not, or whose
``pipe`` or ``fork`` fails, reads the whole log itself, and so does one
whose child exits non-zero or writes output of the wrong length. Between
head blocks this process checks the pipe without waiting: a child that
has declined its tail (-1) ends the bulk route at once. The child is
waited for on every path, and killed first unless it has finished, so
no process outlives :func:`read_log`.
"""

import functools
import os
import re
import select
import signal
import sys

import numpy as np

# The canonical JSONL row is ROW_HEAD, K numbers joined by ", ", ROW_MID,
# the label and ROW_END.
ROW_HEAD, ROW_MID, ROW_END = b'{"probs": [', b'], "label": ', b"}\n"
# A non-negative JSON number. A "-" is never canonical: JSON -0 loads as
# the int 0 (+0.0) while float("-0") is -0.0. No atomic groups or
# possessive quantifiers: re has them only from Python 3.11 on. The grammar
# is unambiguous, so a failed match backtracks only within one token. The
# "|)" branches match faster than "?" groups in Python's re.
NUMBER = rb"(?:0|[1-9][0-9]*)(?:\.[0-9]+|)(?:[eE][+-]?[0-9]+|)"
BLOCK_BYTES = 1 << 20
# About twice the size at which two processes start to beat one on two CPUs.
SPLIT_BYTES = 32 << 20

# Whether np.longdouble has a 64-bit significand, as x86 extended precision does.
EXTENDED = np.finfo(np.longdouble).nmant == 63
# The decimal exponents of the P10 table. A 19-digit w times 10**-342 is
# subnormal, and any w >= 1 times 10**309 overflows.
P10_LO, P10_HI = -342, 308
INT64_MAX = np.iinfo(np.int64).max
FLOAT64 = np.finfo(np.float64)
# Reads a token's exponent as a token of its own: "35e-07" as "35,-07".
EXPONENT_TO_COMMA = bytes.maketrans(b"eE", b",,")
# The answer written for a declined tail.
DECLINED = np.int64(-1).tobytes()


def canonical_row(k: int) -> re.Pattern:
    """A regex that one canonical K-class row matches in full."""
    return re.compile(re.escape(ROW_HEAD) + b", ".join([NUMBER] * k) + re.escape(ROW_MID)
                      + rb"(?:0|[1-9][0-9]*)" + re.escape(ROW_END))


@functools.cache
def powers_of_ten() -> np.ndarray:
    """P10: the longdouble nearest to 10**q for q in [P10_LO, P10_HI],
    rounded half to even from exact integers."""
    mantissas, exponents = [], []
    for q in range(P10_LO, P10_HI + 1):
        num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
        # num / den * 2**shift lies in [2**63, 2**64) before rounding.
        shift = 63 - num.bit_length() + den.bit_length()
        num, den = (num << shift, den) if shift >= 0 else (num, den << -shift)
        if num < den << 63:
            num, shift = num << 1, shift + 1
        m, rem = divmod(num, den)
        m += 2 * rem > den or (2 * rem == den and m & 1)
        mantissas.append(m)
        exponents.append(-shift)
    # Two 32-bit halves: each is exact in float64, and their sum in longdouble.
    m = np.array(mantissas, object)
    high = np.array(m >> 32, np.float64).astype(np.longdouble)
    low = np.array(m & 0xFFFFFFFF, np.float64).astype(np.longdouble)
    return np.ldexp(high * 2.0 ** 32 + low, np.array(exponents))


def decimals(text: bytes) -> np.ndarray | None:
    """The comma-separated non-negative JSON numbers of ``text`` as
    float64, each the value ``float`` gives for its token, or None if
    their digits do not parse to one int64 per token. See the module
    docstring for the kernel, its error bound and its fallback."""
    if not EXTENDED:
        return np.fromstring(text, sep=",")
    b = np.frombuffer(text, np.uint8)
    marks = np.flatnonzero(b < ord("0"))  # each ",", "." and exponent sign
    kind = b[marks]
    ends = np.append(marks[kind == ord(",")], b.size)  # where each token ends
    exps = np.flatnonzero(b > ord("9")) if b"e" in text or b"E" in text else ends[:0]
    owner = np.searchsorted(ends, exps)  # the token of each e
    stop = ends.copy()  # where each token's digits stop: at its end or at its e
    stop[owner] = exps
    # Each exponent is read as a token of its own, after its token's
    # digits, so the one of the j-th e is at index owner + j + 1.
    ints = np.fromstring(text.translate(EXPONENT_TO_COMMA, b"."), np.int64, sep=",")
    if ints.size != ends.size + exps.size:
        return None
    at = owner + np.arange(1, exps.size + 1)
    w = np.delete(ints, at)
    q = np.zeros(ends.size, np.int64)
    # Clipped, so that a saturated exponent cannot wrap when the fraction's digits are taken off.
    q[owner] = np.clip(ints[at], -1 << 32, 1 << 32)
    dots = kind == ord(".")
    token = np.cumsum(kind == ord(","))[dots]
    q[token] -= stop[token] - marks[dots] - 1
    fast = np.clip(q, P10_LO, P10_HI)
    x = w * powers_of_ten()[fast - P10_LO]
    band = x * 2.0 ** -61
    with np.errstate(over="ignore", under="ignore"):
        f = (x - band).astype(np.float64)
        slow = f != (x + band).astype(np.float64)
    slow |= (fast != q) | (w == INT64_MAX)
    slow |= (w != 0) & ~((f >= FLOAT64.tiny) & (f <= FLOAT64.max))
    for i in np.flatnonzero(slow).tolist():
        f[i] = float(text[ends[i - 1] + 1 if i else 0:ends[i]])
    return f


def parse_block(lines: list[bytes], k: int, pattern: re.Pattern) -> np.ndarray | None:
    """The (rows, K+1) numbers of a block of canonical K-class rows, the
    label last, or None if a line does not match ``pattern``, a number
    overflows or a label is >= K: the per-line route reports those from
    its own row checks.

    A function of its own so that the block's buffers are freed before
    the caller allocates more."""
    if not lines[-1].endswith(b"\n"):  # a final line without its LF
        lines[-1] += b"\n"
    if not all(map(pattern.fullmatch, lines)):
        return None
    text = (b"".join(lines)[len(ROW_HEAD):-len(ROW_END)]
            .replace(ROW_END + ROW_HEAD, b",").replace(ROW_MID, b","))
    values = decimals(text)
    if values is None or values.size != len(lines) * (k + 1):
        return None
    values = values.reshape(-1, k + 1)
    # Checked here, before the int cast that a label past int64 would overflow.
    return values if np.isfinite(values).all() and (values[:, k] < k).all() else None


def read(fh, stop: int | None, k: int, declined=None) -> list[np.ndarray] | None:
    """The blocks of canonical K-class rows of a binary file from its
    position up to byte ``stop`` (a line start; None reads to the end),
    or None at the first block that is not canonical, or once the
    callable ``declined`` returns True before a block. Each block holds
    about BLOCK_BYTES of lines and ends at a line end."""
    pattern = canonical_row(k)
    parts = []
    while (offset := fh.tell()) != stop:
        if declined is not None and declined():
            return None
        lines = fh.readlines(BLOCK_BYTES if stop is None else min(BLOCK_BYTES, stop - offset))
        if not lines:
            break
        if stop is not None and (end := fh.tell()) > stop:
            # readlines reads on to the first line end past its hint
            while end > stop:
                end -= len(lines.pop())
            fh.seek(end)
        values = parse_block(lines, k, pattern)
        if values is None:
            return None
        parts.append(values)
    return parts


def cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def threads() -> int:
    """The number of OS threads of this process, or 0 where they cannot
    be counted."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return 0


def split_point(fh) -> int | None:
    """The byte offset where a child takes over a log's tail: the first
    line start at or after the midpoint. None when the log is below
    SPLIT_BYTES, when this process may use only one CPU, or when no line
    starts after the midpoint."""
    size = os.fstat(fh.fileno()).st_size
    if size < SPLIT_BYTES or cpus() < 2:
        return None
    fh.seek(size // 2 - 1)  # the first line holds K >= 2 commas, so size >= 3
    fh.readline()
    cut = fh.tell()
    fh.seek(0)
    return cut if cut < size else None


def fork_tail(path, cut: int, k: int):
    """The pid of a forked child that serves the log's tail from byte
    ``cut`` into a pipe, and the pipe's read end as a binary file; None
    when this process may not fork (see the module docstring) or ``pipe``
    or ``fork`` fails."""
    if not hasattr(os, "fork") or threads() != 1:
        return None
    try:
        r, w = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with open(w, "wb") as out:
                serve(path, cut, k, out)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb")


def read_log(path) -> list[np.ndarray] | None:
    """The blocks of a JSONL log whose rows are all canonical, or None. A
    log of at least SPLIT_BYTES on two or more CPUs is read in two
    processes (see the module docstring)."""
    with open(path, "rb") as fh:
        # K-1 commas between the numbers, one before "label"
        k = fh.readline().count(b",")
        if k < 2:
            return None
        fh.seek(0)
        cut = split_point(fh)
        child = None if cut is None else fork_tail(path, cut, k)
        if child is None:
            return read(fh, None, k)
        pid, pipe = child
        out = status = None

        def finished(timeout: float | None) -> bool:
            """Whether the child has written its output, read here once it
            begins, and has exited; then it is reaped."""
            nonlocal out, status, pid
            if out is None and select.select([pipe], [], [], timeout)[0]:
                out = pipe.read()
                status, pid = os.waitpid(pid, 0)[1], None
            return out is not None

        def declined() -> bool:
            """Whether the child has declined its tail, without waiting."""
            return finished(0) and (status, out) == (0, DECLINED)

        try:
            head = read(fh, cut, k, declined)
            if head is None:
                return None
            finished(None)
            if declined():
                return None
            n = int.from_bytes(out[:8], sys.byteorder, signed=True)
            if status == 0 and n >= 0 and len(out) == 8 + n * (k + 1) * 8:
                return head + [np.frombuffer(out, np.float64, offset=8).reshape(n, k + 1)]
            tail = read(fh, None, k)  # the child failed
            return None if tail is None else head + tail
        finally:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            pipe.close()


def serve(path, start: int, k: int, out) -> None:
    """The child's work: write the K-class canonical rows of the log at
    ``path`` from byte ``start`` (a line start) to the binary stream
    ``out``, in the wire format of the module docstring."""
    with open(path, "rb") as log:
        log.seek(start)
        parts = read(log, None, k)
    out.write(np.int64(-1 if parts is None else sum(map(len, parts))).tobytes())
    for values in parts or ():
        out.write(values)
    out.flush()
