from __future__ import annotations

import json
import logging
import os
import shlex
import signal
import sys
import tempfile
import threading
import time
from dataclasses import FrozenInstanceError, asdict
from pathlib import Path

import pytest

from flakidock.build_engine import (
    STATUS_FAILURE,
    STATUS_SUCCESS,
    STATUS_TIMEOUT,
    BuildEngine,
    BuildRecord,
    BuildScript,
    HygienePolicy,
    RealCliDriver,
    ScriptedOutcome,
    SimulatedDriver,
)
from flakidock.config import load_config
from flakidock.dockerfile_model import parse_dockerfile
from flakidock.durable import read_lines
from flakidock.errors import EngineError

from support import ALPINE_PIP, ALPINE_PIP_LOG, driver_for, driver_with_scripts, outcome


@pytest.fixture
def doc():
    return parse_dockerfile(ALPINE_PIP)


def _engine(driver, clean_every=4, timeout=1800.0, state_dir=None):
    return BuildEngine(driver, HygienePolicy(clean_every=clean_every, timeout=timeout), state_dir)


class TestBuildOnce:
    def test_scripted_failure_with_log(self, doc, tmp_path):
        driver = driver_for([outcome(STATUS_FAILURE, ALPINE_PIP_LOG, exit_code=1)])
        record = _engine(driver).build_once(doc, tmp_path)
        assert record.status == STATUS_FAILURE
        assert record.exit_code == 1
        assert "error: externally-managed-environment" in record.log

    def test_scripted_success_normalizes_exit_zero(self, doc, tmp_path):
        driver = driver_for([outcome(STATUS_SUCCESS, "done")])
        record = _engine(driver).build_once(doc, tmp_path)
        assert record.status == STATUS_SUCCESS
        assert record.exit_code == 0

    def test_sleep_past_timeout_becomes_timeout(self, doc, tmp_path):
        driver = driver_for([outcome(STATUS_SUCCESS, "slow", duration=9999.0)])
        engine = _engine(driver, timeout=60.0)
        record = engine.build_once(doc, tmp_path)
        assert record.status == STATUS_TIMEOUT
        assert record.duration >= 60.0

    def test_explicit_timeout_status_honors_invariant(self, doc, tmp_path):
        driver = driver_for([outcome(STATUS_TIMEOUT, "killed", duration=1.0)])
        engine = _engine(driver, timeout=120.0)
        record = engine.build_once(doc, tmp_path)
        assert record.status == STATUS_TIMEOUT
        assert record.duration >= 120.0

    def test_engine_error_distinguished_from_failure(self, doc, tmp_path):
        driver = driver_for([outcome("engine-error", "daemon unreachable")])
        with pytest.raises(EngineError) as excinfo:
            _engine(driver).build_once(doc, tmp_path)
        assert [r.status for r in excinfo.value.records] == ["engine-error"]

    def test_hash_is_stable_content_digest(self, doc, tmp_path):
        driver = driver_for([outcome(STATUS_SUCCESS)])
        record = _engine(driver).build_once(doc, tmp_path)
        assert record.dockerfile_hash == doc.content_hash
        assert len(record.dockerfile_hash) == 64

    def test_deterministic_replay(self, doc, tmp_path):
        script = [outcome(STATUS_SUCCESS, "one"), outcome(STATUS_FAILURE, "two", exit_code=2)]
        logs_a = [
            _engine(driver_for(list(script))).run_build_series(doc, tmp_path, 3)[i].log
            for i in range(3)
        ]
        logs_b = [
            _engine(driver_for(list(script))).run_build_series(doc, tmp_path, 3)[i].log
            for i in range(3)
        ]
        assert logs_a == logs_b == ["one", "two", "two"]  # last outcome repeats


class TestSeries:
    def test_cadence_four_builds_one_cleanup(self, doc, tmp_path):
        driver = driver_for([outcome(STATUS_SUCCESS)])
        engine = _engine(driver, clean_every=4)
        engine.run_build_series(doc, tmp_path, 4)
        assert driver.cleanups == 1

    def test_single_build_no_cleanup(self, doc, tmp_path):
        driver = driver_for([outcome(STATUS_SUCCESS)])
        engine = _engine(driver, clean_every=4)
        engine.run_build_series(doc, tmp_path, 1)
        assert driver.cleanups == 0

    def test_nine_builds_two_cleanups(self, doc, tmp_path):
        driver = driver_for([outcome(STATUS_SUCCESS)])
        engine = _engine(driver, clean_every=4)
        engine.run_build_series(doc, tmp_path, 9)
        assert driver.cleanups == 2  # after builds 4 and 8

    @pytest.mark.parametrize("count", range(1, 13))
    def test_cadence_floor_rule(self, doc, tmp_path, count):
        driver = driver_for([outcome(STATUS_SUCCESS)])
        engine = _engine(driver, clean_every=4)
        engine.run_build_series(doc, tmp_path, count)
        assert driver.cleanups == count // 4

    def test_records_in_execution_order(self, doc, tmp_path):
        driver = driver_for([outcome(STATUS_SUCCESS, f"b{i}") for i in range(5)])
        records = _engine(driver).run_build_series(doc, tmp_path, 5)
        assert [r.log for r in records] == ["b0", "b1", "b2", "b3", "b4"]
        stamps = [r.started_at for r in records]
        assert stamps == sorted(stamps)

    def test_stop_on_failure_skips_remaining(self, doc, tmp_path):
        driver = driver_for([outcome(STATUS_FAILURE, "boom", exit_code=1)])
        records = _engine(driver).run_build_series(doc, tmp_path, 5, stop_on_failure=True)
        assert len(records) == 1
        assert driver.builds_run == 1

    def test_engine_error_propagates_with_prior_records(self, doc, tmp_path):
        driver = driver_for(
            [outcome(STATUS_SUCCESS, "ok"), outcome("engine-error", "disk full")]
        )
        with pytest.raises(EngineError) as excinfo:
            _engine(driver).run_build_series(doc, tmp_path, 3)
        assert len(excinfo.value.records) == 2
        assert excinfo.value.records[0].status == STATUS_SUCCESS

    def test_cleanup_failure_does_not_abort_series(self, doc, tmp_path):
        class FlakyCleanDriver(SimulatedDriver):
            def clean(self):
                super().clean()
                raise EngineError("prune exploded")

        driver = FlakyCleanDriver([BuildScript(None, [outcome(STATUS_SUCCESS)])])
        records = _engine(driver, clean_every=2).run_build_series(doc, tmp_path, 4)
        assert len(records) == 4

    def test_zero_count_allowed(self, doc, tmp_path):
        driver = driver_for([outcome(STATUS_SUCCESS)])
        assert _engine(driver).run_build_series(doc, tmp_path, 0) == []
        assert driver.cleanups == 0


class TestCleanEnvironment:
    def test_cleanup_counter_increments(self, tmp_path):
        driver = driver_for([outcome(STATUS_SUCCESS)])
        engine = _engine(driver)
        engine.clean_environment()
        assert driver.cleanups == 1

    def test_two_calls_increment_twice(self, tmp_path):
        driver = driver_for([outcome(STATUS_SUCCESS)])
        engine = _engine(driver)
        engine.clean_environment()
        engine.clean_environment()
        assert driver.cleanups == 2


class TestScenarioScripts:
    def test_marker_selects_script(self, tmp_path):
        driver = driver_with_scripts(
            {
                None: [outcome(STATUS_FAILURE, "original boom", exit_code=1)],
                "venv": [outcome(STATUS_SUCCESS, "fixed build")],
            }
        )
        original = parse_dockerfile("FROM alpine\nRUN pip3 install x\n")
        candidate = parse_dockerfile("FROM alpine\nRUN python3 -m venv venv\n")
        engine = _engine(driver)
        assert engine.build_once(original, tmp_path).status == STATUS_FAILURE
        assert engine.build_once(candidate, tmp_path).status == STATUS_SUCCESS

    def test_scenario_file_round_trip(self, tmp_path):
        scenario = {
            "builds": [
                {"match": None, "outcomes": [{"status": "failure", "log": "x", "exit_code": 3}]},
                {"match": "fixed", "outcomes": [{"status": "success", "log": "y"}]},
            ]
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        driver = load_config(overrides={"driver": f"simulated:{path}"}).engine.driver
        doc = parse_dockerfile("FROM a\nRUN fixed thing\n")
        assert driver.build(doc.raw_text, tmp_path, no_cache=True, timeout=60).status == "success"

    def test_a_file_scripting_both_roles_is_parsed_once(self, tmp_path, monkeypatch):
        payload = {"builds": [{"match": None, "outcomes": [{"status": "success"}]}], "responses": ["canned"]}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(payload))
        real_loads, parses = json.loads, []

        def counting_loads(*args, **kwargs):
            parses.append(real_loads(*args, **kwargs))
            return parses[-1]

        monkeypatch.setattr(json, "loads", counting_loads)  # json.load parses through json.loads too
        config = load_config(overrides={"driver": f"simulated:{path}", "generation_provider": f"scripted:{path}"})
        assert parses.count(payload) == 1
        assert config.providers.generator.generate("p") == "canned"
        assert config.engine.driver.build("FROM a\n", tmp_path, no_cache=True, timeout=60).status == "success"

    @pytest.mark.parametrize(
        "make",
        [lambda: ScriptedOutcome("sucess"), lambda: ScriptedOutcome("success", duration=float("nan")),
         lambda: BuildScript(None, []), lambda: ScriptedOutcome("failure", log=5),
         lambda: BuildScript(7, [ScriptedOutcome("success")]),
         lambda: ScriptedOutcome("failure", exit_code="oops"), lambda: ScriptedOutcome("failure", exit_code=True),
         lambda: ScriptedOutcome("success", duration="5"), lambda: ScriptedOutcome("success", duration=None),
         lambda: ScriptedOutcome("success", duration=True), lambda: SimulatedDriver([])],
        ids=["unknown-status", "nan-duration", "no-outcomes", "log-not-str", "match-not-str",
             "exit-code-not-int", "exit-code-bool", "duration-str", "duration-null", "duration-bool", "no-scripts"],
    )
    def test_script_built_in_code_is_checked_as_a_file_is(self, make):
        # A script need not come from a file: the types check what they hold.
        with pytest.raises(ValueError):
            make()

    def test_script_cannot_be_changed_after_its_checks(self):
        outcome = ScriptedOutcome("success")
        with pytest.raises(FrozenInstanceError):
            outcome.duration = float("nan")
        script = BuildScript(None, [outcome])  # a list is held as a tuple
        assert script.outcomes == (outcome,)
        with pytest.raises(FrozenInstanceError):
            script.outcomes = []


def _journal(directory) -> list[dict | None]:
    """The records of `directory`'s build journal, in line order."""
    return read_lines(directory / "builds.jsonl")


class TestPersistence:
    def test_records_and_logs_persisted_by_hash(self, doc, tmp_path):
        driver = driver_for([outcome(STATUS_FAILURE, "boom log", exit_code=1)])
        engine = _engine(driver, state_dir=tmp_path / "state")
        records = engine.run_build_series(doc, tmp_path, 2)
        build_dir = tmp_path / "state" / "builds" / doc.content_hash
        assert [p.name for p in build_dir.iterdir()] == ["builds.jsonl"]
        lines = _journal(build_dir)
        assert len(lines) == 2
        assert lines[0]["status"] == STATUS_FAILURE
        assert lines[0]["log"] == "boom log"
        assert [BuildRecord(**line) for line in lines] == records

    def test_explicit_persist_dir_wins(self, doc, tmp_path):
        driver = driver_for([outcome(STATUS_SUCCESS)])
        engine = _engine(driver, state_dir=tmp_path / "state")
        target = tmp_path / "session" / "builds"
        engine.build_once(doc, tmp_path, persist_dir=target)
        assert [p.name for p in target.iterdir()] == ["builds.jsonl"]
        assert len(_journal(target)) == 1
        assert not (tmp_path / "state" / "builds").exists()

    def test_lone_surrogate_log_persists_as_one_line(self, doc, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"builds": [
            {"match": None, "outcomes": [{"status": "failure", "log": "boom \ud800 here"}]},
        ]}))
        engine = _engine(load_config(overrides={"driver": f"simulated:{scenario}"}).engine.driver)
        record = engine.build_once(doc, tmp_path, persist_dir=tmp_path / "builds")
        raw = (tmp_path / "builds" / "builds.jsonl").read_bytes()
        assert raw.isascii() and raw.count(b"\n") == 1
        assert _journal(tmp_path / "builds") == [asdict(record)]
        assert record.log == "boom \ud800 here"

    def test_int_duration_journals_as_a_float(self, doc, tmp_path):
        scenario = tmp_path / "scenario.json"
        outcomes = [{"status": "success", "duration": 5}]
        scenario.write_text(json.dumps({"builds": [{"match": None, "outcomes": outcomes}]}))
        engine = _engine(load_config(overrides={"driver": f"simulated:{scenario}"}).engine.driver)
        engine.build_once(doc, tmp_path, persist_dir=tmp_path / "builds")
        assert '"duration": 5.0,' in (tmp_path / "builds" / "builds.jsonl").read_text()

    def test_a_record_after_a_torn_line_starts_its_own_line(self, doc, tmp_path):
        engine = _engine(driver_for([outcome(STATUS_FAILURE, "boom log", exit_code=1)]))
        target = tmp_path / "builds"
        records = engine.run_build_series(doc, tmp_path, 2, persist_dir=target)
        journal = target / "builds.jsonl"
        journal.write_bytes(journal.read_bytes()[:-5])  # the second line torn, as by a crash mid-write
        record = engine.build_once(doc, tmp_path, persist_dir=target)
        # Build 3's number is its line number: the fragment keeps line 2.
        assert read_lines(journal) == [asdict(records[0]), None, asdict(record)]
        assert journal.read_bytes().endswith(b"}\n")

    def test_engines_sharing_a_directory_get_distinct_numbers(self, doc, tmp_path):
        target = tmp_path / "builds"
        builds, workers = 40, 4  # more threads than a small CI host has cores
        pad = "x" * 65_536  # one write per line: a split write would interleave
        engines = [
            _engine(driver_for([outcome(STATUS_SUCCESS, f"w{w}-b{i}{pad}") for i in range(builds)]))
            for w in range(workers)
        ]
        errors = []

        def work(engine):
            try:
                for _ in range(builds):
                    engine.build_once(doc, tmp_path, persist_dir=target)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(e,)) for e in engines]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        lines = _journal(target)
        assert len(lines) == builds * workers
        assert sorted(line["log"] for line in lines) == sorted(
            f"w{w}-b{i}{pad}" for w in range(workers) for i in range(builds)
        )

    def test_persist_time_per_record_flat_in_directory_size(self, doc, tmp_path):
        record = _engine(driver_for([outcome(STATUS_SUCCESS, "ok")])).build_once(doc, tmp_path)
        line = json.dumps(asdict(record), sort_keys=True) + "\n"
        targets = {}
        for existing in (100, 4_000):
            target = targets[existing] = tmp_path / f"existing-{existing}"
            target.mkdir()
            (target / "builds.jsonl").write_text(line * existing)
        timings = {existing: [] for existing in targets}
        for _ in range(3):  # sizes alternate, so that host noise reaches both
            for existing, target in targets.items():
                engine = _engine(driver_for([outcome(STATUS_SUCCESS, "ok")]))
                start = time.perf_counter()
                for _ in range(200):
                    engine.build_once(doc, tmp_path, persist_dir=target)
                timings[existing].append((time.perf_counter() - start) / 200)
        assert [len(_journal(t)) for t in targets.values()] == [100 + 600, 4_000 + 600]
        small, large = min(timings[100]), min(timings[4_000])
        # An append costs the same at any journal length; a per-record read or scan would not.
        assert large / small < 2, (small, large)


class TestHygienePolicy:
    def test_defaults_match_contract(self):
        policy = HygienePolicy()
        assert policy.clean_every == 4
        assert policy.timeout == 1800.0
        assert policy.no_cache is True

    @pytest.mark.parametrize("kwargs", [{"clean_every": 0}, {"timeout": 0.0}, {"timeout": -5.0}])
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            HygienePolicy(**kwargs)


def _python(code: str, *args: str) -> str:
    """A build template that runs `code` under this interpreter with `args`
    (template fields such as "{context}" among them)."""
    return " ".join([shlex.quote(sys.executable), "-c", shlex.quote(code), *args])


class TestRealCliDriver:
    """The real driver, with `python3 -c` programs standing in for the engine."""

    @pytest.fixture
    def context(self, tmp_path, monkeypatch):
        """A project directory holding a Dockerfile; temporary files go to
        `tmp_path / "tmp"`, so each test can see that none is left."""
        (tmp_path / "tmp").mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        project = tmp_path / "project"
        project.mkdir()
        (project / "Dockerfile").write_text(ALPINE_PIP)
        yield project
        assert list((tmp_path / "tmp").iterdir()) == []

    def test_context_holds_only_the_project_files(self, context):
        driver = RealCliDriver(_python("import os, sys; print(sorted(os.listdir(sys.argv[1])))", "{context}"))
        outcome = driver.build("FROM busybox\n", context, no_cache=True, timeout=60)
        assert (outcome.status, outcome.exit_code) == (STATUS_SUCCESS, 0)
        assert outcome.log == "['Dockerfile']\n"

    @pytest.mark.parametrize("inside", [".", "tmp"], ids=["context-is-tmp", "tmp-in-context"])
    def test_temporary_directory_in_the_context_is_engine_error(self, context, monkeypatch, inside):
        temp_dir = context / inside
        temp_dir.mkdir(exist_ok=True)
        monkeypatch.setattr(tempfile, "tempdir", str(temp_dir))
        code = "import os, sys; print(sorted(f for _, _, fs in os.walk(sys.argv[1]) for f in fs))"
        driver = RealCliDriver(_python(code, "{context}"))
        try:
            outcome = driver.build("FROM busybox\n", context, no_cache=True, timeout=60)
        except EngineError as exc:
            assert str(temp_dir.resolve()) in str(exc) and str(context.resolve()) in str(exc)
        else:
            pytest.fail(f"built with the candidate in the context: {outcome.log}")
        assert [p.name for p in context.rglob("*") if p.is_file()] == ["Dockerfile"]

    def test_the_engine_reads_the_candidate_outside_the_context(self, context):
        code = "import sys; print(sys.argv[1:-1]); print(open(sys.argv[-1]).read(), end='')"
        driver = RealCliDriver(_python(code, "{no_cache}", "{dockerfile}"))
        for no_cache, flags in ((True, "['--no-cache']"), (False, "[]")):
            outcome = driver.build("FROM busybox\nRUN true\n", context, no_cache=no_cache, timeout=60)
            assert outcome.status == STATUS_SUCCESS, outcome.log
            assert outcome.log == flags + "\nFROM busybox\nRUN true\n"

    def test_failure_keeps_exit_code_and_merged_output(self, context):
        code = "import sys; print('out', flush=True); print('err', file=sys.stderr); sys.exit(3)"
        outcome = RealCliDriver(_python(code)).build("FROM busybox\n", context, no_cache=True, timeout=60)
        assert (outcome.status, outcome.exit_code, outcome.log) == (STATUS_FAILURE, 3, "out\nerr\n")

    def test_timeout_keeps_partial_output_and_removes_the_file(self, context):
        code = "import sys, time; print(sys.argv[1], flush=True); time.sleep(30)"
        driver = RealCliDriver(_python(code, "{dockerfile}"))
        outcome = driver.build("FROM busybox\n", context, no_cache=True, timeout=0.5)
        assert (outcome.status, outcome.exit_code) == (STATUS_TIMEOUT, None)
        assert outcome.duration >= 0.5
        written = Path(outcome.log.strip())
        assert written.name.endswith(".Dockerfile") and not written.exists()

    def test_missing_executable_is_engine_error(self, context):
        driver = RealCliDriver(str(context / "no-such-engine") + " build -f {dockerfile} {context}")
        with pytest.raises(EngineError, match="cannot invoke build command"):
            driver.build("FROM busybox\n", context, no_cache=True, timeout=60)

    def test_a_timeout_kills_the_build_commands_children(self, context, tmp_path):
        pid_file = tmp_path / "child.pid"
        code = ("import os, sys, time\n"
                "if os.fork() == 0:\n"
                "    open(sys.argv[1] + '.part', 'w').write(str(os.getpid()))\n"
                "    os.rename(sys.argv[1] + '.part', sys.argv[1])\n"
                "time.sleep(20)\n")
        driver = RealCliDriver(_python(code, shlex.quote(str(pid_file))))
        try:
            outcome = driver.build("FROM busybox\n", context, no_cache=True, timeout=1.0)
            assert outcome.status == STATUS_TIMEOUT
            pid = int(pid_file.read_text())
            deadline = time.monotonic() + 5
            while _running(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _running(pid), "the build command's child outlived its timeout"
        finally:  # leave no survivor behind, whatever the outcome
            if pid_file.exists() and _running(pid := int(pid_file.read_text())):
                os.kill(pid, signal.SIGKILL)

    @pytest.mark.parametrize("exit_code", [0, 1])
    def test_cleanup_output_that_is_not_utf8_ends_no_series(self, context, doc, caplog, exit_code):
        prune = _python(f"import sys; sys.stdout.buffer.write(b'\\xff'); sys.exit({exit_code})")
        engine = _engine(RealCliDriver(_python("print('ok')"), (prune,)), clean_every=1)
        with caplog.at_level(logging.WARNING, logger="flakidock.build_engine"):
            records = engine.run_build_series(doc, context, 2)
        assert [record.status for record in records] == [STATUS_SUCCESS] * 2
        assert engine.cleanups_performed == (2 if exit_code == 0 else 0)
        assert ("cleanup failed (continuing the series): cleanup command exited 1" in caplog.text) == bool(exit_code)

    def test_doubled_braces_reach_the_command_as_one(self, context):
        driver = RealCliDriver(_python("import sys; print(sys.argv[1])", "{{x}}"))
        assert driver.build("FROM busybox\n", context, no_cache=True, timeout=60).log == "{x}\n"


@pytest.mark.parametrize("template, error", [
    ("docker build {dockerfle} {context}", "KeyError: 'dockerfle'"),
    ("sh -c 'echo ${HOME}' {dockerfile}", "KeyError: 'HOME'"),
    ("docker build -f {dockerfile} {context", "ValueError: "),
    ("docker build -f '{dockerfile} {context}", "No closing quotation"),
    ("docker build {no_cache[0]} {context}", "IndexError: "),  # no_cache may be empty
    (" ", "no command"),
])
def test_a_build_command_that_makes_no_command_line_is_refused(template, error):
    with pytest.raises(ValueError) as refused:
        RealCliDriver(template)
    assert str(refused.value).startswith(f"build_command {template!r}: ") and error in str(refused.value)


@pytest.mark.parametrize("command, error", [("echo 'x", "No closing quotation"), ("", "no command")])
def test_a_cleanup_command_that_makes_no_command_line_is_refused(command, error):
    with pytest.raises(ValueError) as refused:
        RealCliDriver(clean_commands=("true", command))
    assert str(refused.value) == f"clean_commands entry {command!r}: {error}"


def _running(pid: int) -> bool:
    """Whether `pid` is a live process. On Linux a killed process that its new
    parent has not reaped yet lingers as a zombie: it does not count."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    if not Path("/proc/self/stat").exists():
        return True
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
