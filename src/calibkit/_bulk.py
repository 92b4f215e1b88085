"""The block parser of canonical JSONL prediction rows, and the helper
program that runs it on the tail of a large log.

This module imports only the standard library and numpy, so that the
helper starts without importing the calibkit package. Run as a program,

    python _bulk.py PATH START K

it parses the K-class canonical rows of PATH from byte START (a line
start) to the end, or up to the first block that is not canonical (a
line that is not a canonical row, a number that overflows or a label
>= K). It keeps the rows in memory and writes them to stdout once, at
the end: two int64, the row count n and the byte offset of that block
(-1 when every line parsed), then the n x K float64 probabilities and
the n int64 labels, all raw in native byte order. Writing only at the
end keeps the helper from blocking on a full pipe while the reader is
still busy with its own half.
"""

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


def canonical_row(k: int) -> re.Pattern:
    """A regex that one canonical K-class row matches in full."""
    return re.compile(re.escape(ROW_HEAD) + b", ".join([NUMBER] * k) + re.escape(ROW_MID)
                      + rb"(?:0|[1-9][0-9]*)" + re.escape(ROW_END))


def blocks(fh, stop: int | None, block_bytes: int):
    """(offset, lines) for each block of about ``block_bytes`` of a binary
    file, from its position up to byte ``stop`` (a line start; None reads
    to the end). Each block ends at a line end."""
    while (offset := fh.tell()) != stop:
        lines = fh.readlines(block_bytes if stop is None else min(block_bytes, stop - offset))
        if not lines:
            return
        if stop is not None and (end := fh.tell()) > stop:
            # readlines reads on to the first line end past its hint
            while end > stop:
                end -= len(lines.pop())
            fh.seek(end)
        yield offset, lines


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


def _main(path: str, start: int, k: int) -> None:
    pattern = canonical_row(k)
    parts, stop = [], -1
    with open(path, "rb") as fh:
        fh.seek(start)
        for offset, lines in blocks(fh, None, BLOCK_BYTES):
            values = parse_block(lines, k, pattern)
            if values is None:
                stop = offset
                break
            parts.append(values)
    out = sys.stdout.buffer
    out.write(np.array([sum(map(len, parts)), stop], np.int64).tobytes())
    for values in parts:
        out.write(values[:, :k].tobytes())
    for values in parts:
        out.write(values[:, k].astype(np.int64).tobytes())
    out.flush()


if __name__ == "__main__":
    _main(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))
