"""Every way the package writes a file or reads a journal back, and its rule for
input files. No write fsyncs: each survives the process dying, not the host losing power.

`append_line` grows a journal (`builds.jsonl`, `history/<name>.jsonl`, a
store's `records.jsonl`) by one `O_APPEND` write, so writers sharing it never
split each other's lines, and a line torn by a crash stays a line of its own.
`append_objects` is the one writer of build and history lines, as sorted-key ASCII JSON.
`appending` grows a binary file (a store's `vectors.bin`) by one write that an
exception undoes. Every other file is written whole through `replacing`, so a
reader finds the old file or the new one.

`read_lines` reads a journal back; `newest_line` finds its newest accepted line
in a fixed tail. Both split on `\\n` only, as `append_line` writes: an unended
last fragment is a line, kept one by the next append. A torn line, or one with
no JSON object, reads as None; a missing file is an empty journal.
"""

import contextlib
import fcntl
import json
import os
import threading
from pathlib import Path

from .errors import FlakiDockError


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


def append_objects(path, objects) -> None:
    """Append each object as a line of JSON, in one write; a lone surrogate becomes an escape."""
    append_line(path, "".join(json.dumps(o, sort_keys=True) + "\n" for o in objects).encode("ascii"))


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


def read_lines(path) -> list[dict | None]:
    """Each line's JSON object, or None, in line order."""
    try:
        return [_object(line) for line in _split(Path(path).read_bytes())]  # its errors name the file
    except FileNotFoundError:
        return []


def newest_line(path, accept, tail_bytes: int) -> tuple[dict | None, bool]:
    """The newest object among the whole lines of the last `tail_bytes` that
    `accept` takes, or None; and whether that tail was the whole file. Lines
    are tried newest first, so `accept` sees none older than its match."""
    try:
        with open(path, "rb") as fh:
            start = max(0, fh.seek(0, os.SEEK_END) - tail_bytes)
            fh.seek(max(0, start - 1))  # the byte before the tail tells whether its first line is whole
            tail = fh.read().partition(b"\n")[2] if start else fh.read()
    except FileNotFoundError:
        return None, True
    found = (entry for entry in map(_object, reversed(_split(tail))) if entry is not None and accept(entry))
    return next(found, None), not start


def read_input(path, errors: str | None = "strict"):
    """The file's UTF-8 text, decoded with `errors` and every `\\r` kept, or its bytes when `errors` is None."""
    try:
        return path.read_bytes() if errors is None else path.read_bytes().decode("utf-8", errors)
    except FileNotFoundError:
        raise FlakiDockError(f"no such file: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise FlakiDockError(f"cannot read {path}: {exc}") from exc


def _split(data: bytes) -> list[bytes]:
    return data.removesuffix(b"\n").split(b"\n") if data else []  # no line after a final newline


def _object(line: bytes) -> dict | None:
    try:
        entry = json.loads(line.decode("utf-8", errors="replace"))
    except (ValueError, RecursionError):  # a line nested past the parser's depth holds no object either
        return None
    return entry if isinstance(entry, dict) else None
