"""`detect`, `monitor` and `repair` end to end through the real driver.

Each run is `python -m flakidock.cli --driver real` in a fresh interpreter,
with `tests/fake_engine.py` as the engine CLI and no `docker` on PATH; a
`repair` run's generator is a `tests/loopback.py` server. A run
must leave the journals of a simulated run of the same schedule, once the
timing fields (and a build record's driver id) are dropped, run the
documented cleanup cadence, and leave no process of a timed-out build behind.
"""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from flakidock.cli import main

from crashpoint import IMPORT_ROOT
from loopback import Loopback
from support import fenced, template_raw_logs

FAKE_ENGINE = Path(__file__).with_name("fake_engine.py")
TIMEOUT = 3.0  # seconds per build: far past a fake build's start-up
_LOGS = template_raw_logs(10)  # one log per failure family
SUCCESS_LOG = "#1 [internal] load build definition\n#1 DONE 0.0s\n#2 [1/1] RUN true\n#2 DONE 0.1s\n"


def _success():
    return {"log": SUCCESS_LOG, "exit_code": 0}


def _failure(family: int):
    return {"log": _LOGS[family], "exit_code": 1}


def _outcome(entry: dict) -> dict:
    """The simulated driver's outcome for a schedule entry."""
    if "hang" in entry:
        return {"status": "timeout"}  # the hanging build prints nothing before its timeout
    status = "success" if entry["exit_code"] == 0 else "failure"
    return {"status": status, "log": entry["log"], "exit_code": entry["exit_code"]}


def _project(root: Path, name: str, schedule: list[dict]) -> Path:
    """A context whose Dockerfile names the project, and its schedule."""
    context = root / name
    context.mkdir(parents=True)
    (context / "Dockerfile").write_text(f"FROM busybox\nRUN echo {name}\n")
    (context / "schedule.json").write_text(json.dumps(schedule))
    return context


def _config(tmp_path: Path, clean_every: int) -> tuple[Path, Path]:
    """A config file that runs the fake engine for builds and cleanups, and the cleanup counter."""
    engine = f"{shlex.quote(sys.executable)} {shlex.quote(str(FAKE_ENGINE))}"
    counter = tmp_path / "cleanups.txt"
    config = tmp_path / "flakidock.conf"
    config.write_text(
        f"build_command = {engine} build {{no_cache}} -f {{dockerfile}} {{context}}\n"
        f"clean_commands = {engine} prune {shlex.quote(str(counter))}\n"
        f"clean_every = {clean_every}\ntimeout = {TIMEOUT}\n"
    )
    return config, counter


def _real(tmp_path: Path, config: Path, args: list[str]) -> tuple[int, dict]:
    """The CLI in a fresh interpreter with the real driver; PATH holds no engine."""
    empty_bin, temp = tmp_path / "bin", tmp_path / "tmp"
    empty_bin.mkdir(exist_ok=True)
    temp.mkdir(exist_ok=True)
    env = dict(os.environ, PATH=str(empty_bin), TMPDIR=str(temp),
               PYTHONPATH=os.pathsep.join(filter(None, [str(IMPORT_ROOT), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "flakidock.cli", "--config", str(config), "--driver", "real",
         "--state-dir", str(tmp_path / "real"), "--json", *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert list(temp.iterdir()) == []  # every build's Dockerfile was removed
    return proc.returncode, json.loads(proc.stdout)


def _simulated(tmp_path: Path, config: Path, scripts: list[dict], args: list[str]) -> tuple[int, dict]:
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"builds": scripts}))
    result = CliRunner().invoke(main, ["--config", str(config), "--driver", f"simulated:{scenario}",
                                       "--state-dir", str(tmp_path / "simulated"), "--json", *args])
    return result.exit_code, json.loads(result.output)


def _lines(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def _untimed(value, dropped=("started_at", "duration")):
    """`value` without the `dropped` keys, at any depth."""
    if isinstance(value, dict):
        return {k: _untimed(v, dropped) for k, v in value.items() if k not in dropped}
    return [_untimed(v, dropped) for v in value] if isinstance(value, list) else value


def _gone(pid: int) -> bool:
    """Whether no process has `pid`; a zombie awaiting its reaper counts as gone."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return False


def _gone_soon(pid: int) -> bool:
    """Whether no process has `pid` within 5 s: its reaper may not have run yet."""
    deadline = time.monotonic() + 5.0
    while not _gone(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    return _gone(pid)


def test_detect_through_the_real_driver_matches_a_simulated_run(tmp_path):
    config, counter = _config(tmp_path, clean_every=2)
    for name, schedule, code in [("steady", [_success()], 0), ("flaky", [_success(), _failure(0)], 2)]:
        dockerfile = _project(tmp_path / "projects", name, schedule) / "Dockerfile"
        real_code, real = _real(tmp_path, config, ["detect", str(dockerfile)])
        sim_code, sim = _simulated(tmp_path, config, [{"match": None, "outcomes": [_outcome(e) for e in schedule]}],
                                   ["detect", str(dockerfile)])
        assert real_code == sim_code == code, real
        assert _untimed(real) == _untimed(sim)
        (journal,) = (tmp_path / "real" / "builds").glob("*/builds.jsonl")
        simulated = tmp_path / "simulated" / "builds" / journal.parent.name / "builds.jsonl"
        dropped = ("started_at", "duration", "driver_id")
        assert _untimed(_lines(journal), dropped) == _untimed(_lines(simulated), dropped)
        assert {line["driver_id"] for line in _lines(journal)} == {"real"}
        journal.unlink()
    # Each run builds twice and cleans up after its second build.
    assert counter.read_text().splitlines() == ["prune"] * 2


def test_a_journaled_log_keeps_the_carriage_returns_the_engine_printed(tmp_path):
    config, _ = _config(tmp_path, clean_every=2)
    # BuildKit redraws a progress line by ending each frame in "\r".
    frames = {"log": "#5 [2/2] RUN fetch\n#5 0.1 10%\r#5 0.4 50%\r#5 0.9 error: fetch failed\r\n", "exit_code": 1}
    schedule = [_success(), frames]
    dockerfile = _project(tmp_path / "projects", "progress", schedule) / "Dockerfile"
    real_code, real = _real(tmp_path, config, ["detect", str(dockerfile)])
    sim_code, sim = _simulated(tmp_path, config, [{"match": None, "outcomes": [_outcome(e) for e in schedule]}],
                               ["detect", str(dockerfile)])
    assert real_code == sim_code == 2, real
    assert _untimed(real) == _untimed(sim)
    (journal,) = (tmp_path / "real" / "builds").glob("*/builds.jsonl")
    simulated = tmp_path / "simulated" / "builds" / journal.parent.name / "builds.jsonl"
    logs = [line["log"] for line in _lines(journal)]
    assert logs == [line["log"] for line in _lines(simulated)] == [SUCCESS_LOG, frames["log"]]


def test_monitor_through_the_real_driver_matches_a_simulated_run(tmp_path):
    rounds, clean_every = 5, 3
    pid_file = tmp_path / "hung.pid"
    schedules = {
        "steady": [_success()],
        # A failure, one the infrastructure filter excludes, a build past its timeout, a pass.
        "flaky": [_success(), _failure(2), _failure(9), {"hang": str(pid_file)}, _success()],
    }
    config, counter = _config(tmp_path, clean_every)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("".join(f"{name} {_project(tmp_path / 'projects', name, schedule)}\n"
                                for name, schedule in schedules.items()))
    started = time.monotonic()
    real_code, real = _real(tmp_path, config, ["monitor", str(manifest), "--rounds", str(rounds)])
    assert time.monotonic() - started >= TIMEOUT  # the hanging build ran to its timeout
    scripts = [{"match": f"echo {name}", "outcomes": [_outcome(e) for e in schedule]}
               for name, schedule in schedules.items()]
    sim_code, sim = _simulated(tmp_path, config, scripts, ["monitor", str(manifest), "--rounds", str(rounds)])
    assert real_code == sim_code == 0, real
    assert real == sim
    assert real["projects"]["flaky"] == {
        "builds": 5, "failures": 3, "excluded": 1, "errors": [], "flaky_candidate": True}
    for name in schedules:
        history = _untimed(_lines(tmp_path / "real" / "history" / f"{name}.jsonl"))
        assert history == _untimed(_lines(tmp_path / "simulated" / "history" / f"{name}.jsonl"))
        assert len(history) == rounds
    statuses = [line["status"] for line in _lines(tmp_path / "real" / "history" / "flaky.jsonl")]
    assert statuses == ["success", "failure", "failure", "timeout", "success"]
    builds = rounds * len(schedules)
    assert len(counter.read_text().splitlines()) == real["cleanups_performed"] == builds // clean_every
    pid = int(pid_file.read_text())
    assert _gone_soon(pid), f"the timed-out build's child {pid} is still running"


@pytest.mark.parametrize("schedule, status, verdict, code", [
    ([_failure(0), _success()], 200, "repaired", 0),
    # The hanging build's child writes its pid to hung.pid in the CLI's working directory.
    ([_failure(0), {"hang": "hung.pid"}, _success()], 200, "repaired", 0),
    ([_failure(0)], 200, "unresolved", 3),
    ([_failure(0)], 500, "aborted-provider", 1),
], ids=["repaired", "repaired-after-a-timeout", "unresolved", "aborted-provider"])
def test_repair_through_the_real_driver_matches_a_simulated_run(tmp_path, schedule, status, verdict, code):
    config, counter = _config(tmp_path, clean_every=2)
    fixed = "FROM busybox\nRUN echo fixed\n"
    reply = {"choices": [{"message": {"role": "assistant", "content": fenced(fixed)}}]}
    context = _project(tmp_path / "projects", "repair", schedule)
    dockerfile, repaired = context / "Dockerfile", context / "Dockerfile.repaired"
    with Loopback(status, reply) as server:
        with open(config, "a") as fh:
            fh.write(f"generation_provider = http\ngeneration_url = {server.url}/v1\ngeneration_model = m\n")
        real_code, real = _real(tmp_path, config, ["repair", str(dockerfile)])
        assert (repaired.read_text() if repaired.exists() else None) == (fixed if verdict == "repaired" else None)
        repaired.unlink(missing_ok=True)  # the simulated run writes it again
        sim_code, sim = _simulated(tmp_path, config, [{"match": None, "outcomes": [_outcome(e) for e in schedule]}],
                                   ["repair", str(dockerfile)])
    assert real_code == sim_code == code, real
    assert _untimed(real, ("session_dir",)) == _untimed(sim, ("session_dir",))
    (session,) = (tmp_path / "real" / "sessions").iterdir()
    simulated = tmp_path / "simulated" / "sessions" / session.name
    files = sorted(path.name for path in session.iterdir())
    assert files == sorted(path.name for path in simulated.iterdir())
    for name in files:
        if name == "builds.jsonl":
            dropped = ("started_at", "duration", "driver_id")
            assert _untimed(_lines(session / name), dropped) == _untimed(_lines(simulated / name), dropped)
        else:
            assert (session / name).read_text(encoding="utf-8") == (simulated / name).read_text(encoding="utf-8")
    ending = json.loads((session / "verdict.json").read_text(encoding="utf-8"))
    assert ending["verdict"] == verdict
    if verdict == "aborted-provider":
        assert ending["abort_reason"].startswith("generation request failed: HTTP Error 500")
    prompts = sum(name.startswith("prompt-") for name in files)
    assert [path for path, _, _ in server.requests] == ["/v1/chat/completions"] * 2 * prompts  # once per run
    builds = len((context / "builds.count").read_text().splitlines())
    assert {line["driver_id"] for line in _lines(session / "builds.jsonl")} == {"real"}
    assert len(_lines(session / "builds.jsonl")) == builds
    assert (counter.read_text().splitlines() if counter.exists() else []) == ["prune"] * (builds // 2)
    if any("hang" in entry for entry in schedule):
        pid = int((tmp_path / "hung.pid").read_text())
        assert _gone_soon(pid), f"the timed-out build's child {pid} is still running"
