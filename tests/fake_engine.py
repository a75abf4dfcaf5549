"""A stand-in for the container engine CLI, for runs of the real driver.

    python fake_engine.py build [--no-cache] -f DOCKERFILE CONTEXT
    python fake_engine.py prune COUNTER_FILE

`build` plays the next entry of `CONTEXT/schedule.json`, a JSON list whose
last entry repeats, and counts its builds in `CONTEXT/builds.count`:

- `{"log": TEXT, "exit_code": N}` prints TEXT (UTF-8) as it is, "\\r" progress
  frames and "\\r\\n" line ends included, and exits with N;
- `{"hang": PID_FILE}` forks a child that writes its pid to PID_FILE and
  sleeps, then sleeps itself: both outlive any build timeout a test sets.

A missing `-f` file exits 125, as an engine refuses one. `prune` appends a
line to COUNTER_FILE. Only the stdlib is imported, so a build starts fast.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

SCHEDULE = "schedule.json"
COUNT = "builds.count"
HANG_S = 60.0


def build(args: list[str]) -> int:
    dockerfile, context = Path(args[args.index("-f") + 1]), Path(args[-1])
    if not dockerfile.is_file():
        print(f"unable to prepare context: {dockerfile}: no such file", file=sys.stderr)
        return 125
    counter = context / COUNT
    index = len(counter.read_text().splitlines()) if counter.exists() else 0
    with open(counter, "a") as fh:
        fh.write(f"{index}\n")
    schedule = json.loads((context / SCHEDULE).read_text(encoding="utf-8"))
    entry = schedule[min(index, len(schedule) - 1)]
    if "hang" in entry:
        if os.fork() == 0:  # the child stays in the build's process group
            Path(entry["hang"]).write_text(f"{os.getpid()}\n")
        time.sleep(HANG_S)
        return 0
    sys.stdout.buffer.write(entry["log"].encode("utf-8"))
    return entry["exit_code"]


def prune(args: list[str]) -> int:
    with open(args[0], "a") as fh:
        fh.write("prune\n")
    return 0


if __name__ == "__main__":
    command, *rest = sys.argv[1:]
    sys.exit({"build": build, "prune": prune}[command](rest))
