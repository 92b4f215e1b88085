"""The bulk route of JSONL prediction logs: the block parser of canonical
rows, the block loop that runs it, and the split of a large log between
this process and a helper program.

A block of canonical K-class rows parses to one (rows, K+1) float64
array, the label last. :func:`read_log` returns a log's blocks up to its
first block that is not canonical, and that block's offset, where the
per-line route of :mod:`calibkit.data` resumes.

A log of at least ``SPLIT_BYTES`` (32 MiB), read by a process that may
run on two or more CPUs, is cut at the first line start at or after its
byte midpoint. Before this process reads the head, it starts this module
as a program,

    python _bulk.py PATH START K

which reads the K-class canonical rows of PATH from byte START (a line
start) with the same block loop. It imports only the standard library
and numpy, not the calibkit package, so that it starts fast. It keeps
its blocks in memory and writes them to stdout once, at the end, all raw
in native byte order: the int64 row count n, the int64 offset of its
first block that is not canonical (-1 when every line parsed), then the
n x (K+1) float64 values of its blocks, the label last in each row.
Writing only at the end keeps the helper from blocking on a full pipe
while this process is still busy with the head. A helper that cannot
start, exits non-zero or writes output of the wrong length leaves the
tail to this process. The helper is waited for on every path, and killed
first unless it has finished, so no process outlives :func:`read_log`.
"""

import os
import re
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


def canonical_row(k: int) -> re.Pattern:
    """A regex that one canonical K-class row matches in full."""
    return re.compile(re.escape(ROW_HEAD) + b", ".join([NUMBER] * k) + re.escape(ROW_MID)
                      + rb"(?:0|[1-9][0-9]*)" + re.escape(ROW_END))


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
    values = np.fromstring(text, sep=",")
    if values.size != len(lines) * (k + 1):
        return None
    values = values.reshape(-1, k + 1)
    # Checked here, before the int cast that a label past int64 would overflow.
    return values if np.isfinite(values).all() and (values[:, k] < k).all() else None


def read(fh, stop: int | None, k: int) -> tuple[list[np.ndarray], int | None]:
    """The blocks of canonical K-class rows of a binary file from its
    position up to byte ``stop`` (a line start; None reads to the end),
    and the offset of the first block that is not canonical, or None.
    Each block holds about BLOCK_BYTES of lines and ends at a line end."""
    pattern = canonical_row(k)
    parts = []
    while (offset := fh.tell()) != stop:
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
            return parts, offset
        parts.append(values)
    return parts, None


def cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def split_point(fh) -> int | None:
    """The byte offset where a helper takes over a log's tail: the first
    line start at or after the midpoint. None when the log is below
    SPLIT_BYTES, when this process may use only one CPU or does not
    know its interpreter, or when no line starts after the midpoint."""
    size = os.fstat(fh.fileno()).st_size
    if size < SPLIT_BYTES or cpus() < 2 or not sys.executable:
        return None
    fh.seek(size // 2 - 1)  # the first line holds K >= 2 commas, so size >= 3
    fh.readline()
    cut = fh.tell()
    fh.seek(0)
    return cut if cut < size else None


def _helper_tail(helper, k: int) -> tuple[list[np.ndarray], int | None] | None:
    """The blocks and resume offset that a helper wrote, or None when it
    failed: it exited non-zero or its output has the wrong length."""
    out = helper.communicate()[0]
    if helper.returncode != 0 or len(out) < 16:
        return None
    n, resume = np.frombuffer(out, np.int64, count=2).tolist()
    if n < 0 or resume < -1 or len(out) != 16 + n * (k + 1) * 8:
        return None
    values = np.frombuffer(out, np.float64, offset=16).reshape(n, k + 1)
    return [values], None if resume == -1 else resume


def read_log(path) -> tuple[list[np.ndarray], int | None]:
    """The blocks of a JSONL log's canonical rows up to its first block
    that is not canonical, and that block's offset (None when every row
    was read). A log of at least SPLIT_BYTES on two or more CPUs is read
    in two processes (see the module docstring)."""
    with open(path, "rb") as fh:
        # K-1 commas between the numbers, one before "label"
        k = fh.readline().count(b",")
        if k < 2:
            return [], 0
        fh.seek(0)
        cut = split_point(fh)
        if cut is None:
            return read(fh, None, k)
        import subprocess  # here, not at the top: it adds 4 ms to every command's start

        try:  # started first, so that it overlaps the head's parse
            helper = subprocess.Popen([sys.executable, __file__, os.fspath(path), str(cut), str(k)],
                                      stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                      stderr=subprocess.DEVNULL,
                                      # The helper makes no BLAS call, and an idle OpenBLAS
                                      # worker thread spins for about 0.13 s of CPU.
                                      env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
        except OSError:
            helper = None
        try:
            head, resume = read(fh, cut, k)
            if resume is not None:
                return head, resume
            tail = None if helper is None else _helper_tail(helper, k)
            if tail is None:  # no helper, or it failed: read the tail here
                tail = read(fh, None, k)
            return head + tail[0], tail[1]
        finally:
            if helper is not None:
                helper.kill()
                helper.wait()
                helper.stdout.close()


if __name__ == "__main__":
    with open(sys.argv[1], "rb") as log:
        log.seek(int(sys.argv[2]))
        parts, resume = read(log, None, int(sys.argv[3]))
    out = sys.stdout.buffer
    out.write(np.array([sum(map(len, parts)), -1 if resume is None else resume], np.int64).tobytes())
    for values in parts:
        out.write(values)
    out.flush()
