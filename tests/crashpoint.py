"""Run a flakidock command in a process that dies at a chosen durable write.

    python crashpoint.py WHEN K COUNT_FILE ARG...

`flakidock.durable` makes every `os.write` and `os.replace` of the package.
This launcher gives that module an `os` whose k-th such call (counted from 1)
ends the process with `os._exit(KILLED)`, as a crash or `kill -9` would:

- `before` dies instead of making the call;
- `after` makes the call, then dies;
- `torn` writes all but the last 5 bytes, then dies, leaving the last line
  torn (a replace dies as for `before`).

With K = 0 nothing dies, and the calls made are written to COUNT_FILE at
exit, one name (`write` or `replace`) each. ARG... are the CLI's arguments, or `-c CODE` to run
Python code instead.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import flakidock

KILLED = 137
# The directory the package under test is imported from; the launcher imports it from there too.
IMPORT_ROOT = Path(flakidock.__file__).resolve().parents[1]


class CrashingOs:
    """`os` for flakidock.durable: counts its writes and replaces, and dies at the k-th."""

    def __init__(self, when: str, k: int):
        self.when, self.k, self.calls = when, k, []

    def __getattr__(self, name):
        return getattr(os, name)

    def _syscall(self, call, *args):
        self.calls.append(call.__name__)
        if len(self.calls) != self.k:
            return call(*args)
        if self.when == "after":
            call(*args)
        elif self.when == "torn" and call is os.write:
            fd, data = args
            os.write(fd, data[:-5])
        os._exit(KILLED)

    def write(self, fd, data):
        return self._syscall(os.write, fd, data)

    def replace(self, src, dst):
        return self._syscall(os.replace, src, dst)


def run(args: list[str], cwd: Path, when: str = "before", k: int = 0) -> tuple[subprocess.CompletedProcess, list | None]:
    """Run ARG... under the launcher in `cwd`; returns the process and, when it
    ran through, the names of its durable calls in order (else None)."""
    count_file = Path(cwd) / ".crashpoint-calls"
    count_file.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(IMPORT_ROOT), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, __file__, when, str(k), str(count_file), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    calls = count_file.read_text().split() if count_file.exists() else None
    count_file.unlink(missing_ok=True)
    return proc, calls


def main(argv: list[str]) -> None:
    when, k, count_file, *args = argv
    from flakidock import durable

    durable.os = crashing = CrashingOs(when, int(k))
    try:
        if args[0] == "-c":
            exec(compile(args[1], "<crashpoint>", "exec"), {})
        else:
            from flakidock.cli import main as cli

            cli.main(args, prog_name="flakidock")
    finally:
        Path(count_file).write_text(" ".join(crashing.calls))


if __name__ == "__main__":
    main(sys.argv[1:])
