"""The package's three ways to write a file. None fsyncs: each survives the
process dying, not the host losing power.

`append_line` grows a journal (`builds.jsonl`, `history/<name>.jsonl`, a
store's `records.jsonl`) by one `O_APPEND` write, so writers sharing it never
split each other's lines, and a line torn by a crash stays a line of its own.
`appending` grows a binary file (a store's `vectors.bin`) by one write that an
exception undoes. Every other file is written whole through `replacing`, so a
reader finds the old file or the new one.
"""

import contextlib
import fcntl
import os
import threading
from pathlib import Path


def append_line(path, data: bytes) -> None:
    """Append `data`, whole `\\n`-terminated lines, to `path` in one write. After a
    torn last line the write starts with `\\n`, so the fragment keeps its own
    line and parses as nothing. Empty `data` writes nothing."""
    if not data:
        return
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)  # the size can show a write in flight: take turns
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            data = b"\n" + data
        written = os.write(fd, data)
    finally:
        os.close(fd)
    if written != len(data):
        raise OSError(f"short write to {path}: {written} of {len(data)} bytes")


@contextlib.contextmanager
def appending(path, data: bytes):
    """Append `data` to the existing `path` in one write, then run the block; an
    exception in either, Ctrl-C included, cuts `path` back to its old length."""
    fd = os.open(path, os.O_WRONLY | os.O_APPEND)
    try:
        size = os.fstat(fd).st_size
        try:
            written = os.write(fd, data)
            if written != len(data):
                raise OSError(f"short write to {path}: {written} of {len(data)} bytes")
            yield
        except BaseException:
            os.ftruncate(fd, size)
            raise
    finally:
        os.close(fd)


@contextlib.contextmanager
def replacing(path):
    """A binary file on a temporary sibling that replaces `path` when the
    block ends cleanly; on any exception, Ctrl-C included, it is removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:  # name the target, not the temporary a reader never sees
            raise OSError(exc.errno, exc.strerror, str(path)) from None
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
