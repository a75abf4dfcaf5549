from __future__ import annotations

import json
import sys
import threading
import time
from dataclasses import asdict

import pytest

from flakidock.build_engine import (
    STATUS_FAILURE,
    STATUS_SUCCESS,
    STATUS_TIMEOUT,
    BuildEngine,
    BuildRecord,
    BuildScript,
    HygienePolicy,
    SimulatedDriver,
)
from flakidock.dockerfile_model import parse_dockerfile
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
        assert excinfo.value.record is not None
        assert excinfo.value.record.status == "engine-error"

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
                from flakidock.build_engine import DriverFailure
                raise DriverFailure("prune exploded")

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
        driver = SimulatedDriver.from_file(path)
        doc = parse_dockerfile("FROM a\nRUN fixed thing\n")
        assert driver.build(doc.raw_text, tmp_path, no_cache=True, timeout=60).status == "success"


def _journal(directory) -> list[dict]:
    """The records of `directory`'s build journal, in line order."""
    return [json.loads(line) for line in (directory / "builds.jsonl").read_text().split("\n")[:-1]]


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
        engine = _engine(SimulatedDriver.from_file(scenario))
        record = engine.build_once(doc, tmp_path, persist_dir=tmp_path / "builds")
        raw = (tmp_path / "builds" / "builds.jsonl").read_bytes()
        assert raw.isascii() and raw.count(b"\n") == 1
        assert _journal(tmp_path / "builds") == [asdict(record)]
        assert record.log == "boom \ud800 here"

    def test_a_record_after_a_torn_line_starts_its_own_line(self, doc, tmp_path):
        engine = _engine(driver_for([outcome(STATUS_FAILURE, "boom log", exit_code=1)]))
        target = tmp_path / "builds"
        engine.run_build_series(doc, tmp_path, 2, persist_dir=target)
        journal = target / "builds.jsonl"
        journal.write_bytes(journal.read_bytes()[:-5])  # the second line torn, as by a crash mid-write
        record = engine.build_once(doc, tmp_path, persist_dir=target)
        lines = journal.read_text().split("\n")
        # Build 3's number is its line number: the fragment keeps line 2.
        assert len(lines) == 4 and lines[-1] == ""
        assert json.loads(lines[0])["log"] == "boom log"
        with pytest.raises(ValueError):
            json.loads(lines[1])
        assert json.loads(lines[2]) == asdict(record)

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
