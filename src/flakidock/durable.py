"""The package's two ways to write a file. Neither fsyncs: both survive the
process dying, not the host losing power.

`append_line` grows a journal (`builds.jsonl`, `history/<name>.jsonl`) by one
`O_APPEND` write, so writers sharing it never split each other's lines, and a
line torn by a crash stays a line of its own. Every other file is written
whole through `replacing`, so a reader finds the old file or the new one.
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
def replacing(path):
    """A binary file on a temporary sibling that replaces `path` when the
    block ends cleanly; on any exception, Ctrl-C included, it is removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
