from __future__ import annotations

import contextlib
import fcntl
import hashlib
import json
import logging
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from click.testing import CliRunner

from flakidock import demo_store
from flakidock.build_engine import HygienePolicy, SimulatedDriver
from flakidock.cli import main
from flakidock.config import RunConfig, ValidationPolicy, load_config
from flakidock.demo_store import builtin_store_path, load_store, save_store
from flakidock.dockerfile_model import parse_dockerfile
from flakidock.errors import ConfigError
from flakidock.providers import HashingEmbeddingProvider, HttpChatProvider, HttpEmbeddingProvider

from loopback import Loopback
from support import (
    ALPINE_PIP,
    ALPINE_PIP_LOG,
    ALPINE_PIP_REPAIRED,
    ERROR_TYPE_LOGS,
    fenced,
    template_raw_logs,
)


@pytest.fixture
def runner():
    return CliRunner()


def _write_scenario(path: Path, builds, responses=None) -> Path:
    payload = {"builds": builds}
    if responses is not None:
        payload["responses"] = responses
    path.write_text(json.dumps(payload))
    return path


def _base_args(tmp_path: Path, scenario: Path | None = None, as_json=True):
    args = ["--state-dir", str(tmp_path / "state")]
    if scenario is not None:
        args += ["--driver", f"simulated:{scenario}"]
    if as_json:
        args.append("--json")
    return args


def _detect_args(tmp_path: Path, scenario: Path | None = None, state_dir: Path | None = None):
    """`detect` on ALPINE_PIP, a command that writes state; builds succeed
    unless `scenario` says otherwise."""
    project = tmp_path / "p"
    project.mkdir(exist_ok=True)
    (project / "Dockerfile").write_text(ALPINE_PIP)
    if scenario is None:
        scenario = _write_scenario(
            tmp_path / "s.json", [{"match": None, "outcomes": [{"status": "success"}]}]
        )
    state = state_dir if state_dir is not None else tmp_path / "state"
    return ["--state-dir", str(state), "--driver", f"simulated:{scenario}", "--json",
            "detect", str(project / "Dockerfile")]


@pytest.fixture
def flaky_setup(tmp_path):
    """A Dockerfile plus a scripted world: original fails, venv repair passes."""
    project = tmp_path / "project"
    project.mkdir()
    dockerfile = project / "Dockerfile"
    dockerfile.write_text(ALPINE_PIP)
    scenario = _write_scenario(
        tmp_path / "scenario.json",
        builds=[
            {"match": "venv", "outcomes": [{"status": "success", "log": "ok"}]},
            {"match": None, "outcomes": [{"status": "failure", "log": ALPINE_PIP_LOG, "exit_code": 1}]},
        ],
        responses=[fenced(ALPINE_PIP_REPAIRED)],
    )
    return dockerfile, scenario


class TestDetect:
    def test_non_flaky_exit_zero(self, runner, tmp_path):
        project = tmp_path / "p"
        project.mkdir()
        (project / "Dockerfile").write_text(ALPINE_PIP)
        scenario = _write_scenario(
            tmp_path / "s.json", [{"match": None, "outcomes": [{"status": "success"}]}]
        )
        result = runner.invoke(
            main, _base_args(tmp_path, scenario) + ["detect", str(project / "Dockerfile")]
        )
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["verdict"] == "non-flaky"

    def test_runs_append_to_one_journal_named_by_the_files_sha256(self, runner, tmp_path):
        # The name is the hash of the file's bytes, so it stays valid across parser changes.
        args = _detect_args(tmp_path)
        for _ in range(2):
            assert runner.invoke(main, args).exit_code == 0
        (journal,) = (tmp_path / "state" / "builds").glob("*/builds.jsonl")
        assert journal.parent.name == hashlib.sha256((tmp_path / "p" / "Dockerfile").read_bytes()).hexdigest()
        assert journal.read_text().count("\n") == 4

    def test_flaky_exit_two_with_excerpt(self, runner, tmp_path):
        project = tmp_path / "p"
        project.mkdir()
        (project / "Dockerfile").write_text(ALPINE_PIP)
        scenario = _write_scenario(
            tmp_path / "s.json",
            [{"match": None, "outcomes": [{"status": "failure", "log": ALPINE_PIP_LOG, "exit_code": 1}]}],
        )
        result = runner.invoke(
            main, _base_args(tmp_path, scenario) + ["detect", str(project / "Dockerfile")]
        )
        assert result.exit_code == 2, result.output
        report = json.loads(result.output)
        assert report["verdict"] == "flaky"
        assert "error: externally-managed-environment" in report["excerpt"]

    def test_missing_file_exit_one(self, runner, tmp_path):
        scenario = _write_scenario(
            tmp_path / "s.json", [{"match": None, "outcomes": [{"status": "success"}]}]
        )
        result = runner.invoke(
            main, _base_args(tmp_path, scenario) + ["detect", str(tmp_path / "absent")]
        )
        assert result.exit_code == 1
        assert "no such file" in json.loads(result.output)["error"]

    def test_directory_as_dockerfile_exit_one(self, runner, tmp_path):
        args = _detect_args(tmp_path)
        (tmp_path / "adir").mkdir()
        result = runner.invoke(main, args[:-1] + [str(tmp_path / "adir")])
        assert result.exit_code == 1, result.output
        assert f"cannot read {tmp_path / 'adir'}" in json.loads(result.output)["error"]

    def test_unmatched_failure_reports_log_tail(self, runner, tmp_path):
        log = "#5 [1/1] RUN make\n#5 0.4 the mirror went away\n"
        scenario = _write_scenario(
            tmp_path / "s.json",
            [{"match": None, "outcomes": [{"status": "failure", "log": log, "exit_code": 1}]}],
        )
        result = runner.invoke(main, _detect_args(tmp_path, scenario))
        assert result.exit_code == 2, result.output
        assert json.loads(result.output)["excerpt"] == log

    @pytest.mark.parametrize("log", ["", " \n\t\n"], ids=["empty", "blank"])
    def test_failure_without_text_reports_the_placeholder(self, runner, tmp_path, log):
        scenario = _write_scenario(
            tmp_path / "s.json",
            [{"match": None, "outcomes": [{"status": "failure", "log": log, "exit_code": 1}]}],
        )
        result = runner.invoke(main, _detect_args(tmp_path, scenario))
        assert result.exit_code == 2, result.output
        assert json.loads(result.output)["excerpt"] == "(empty build output)"


class TestMalformedScenarios:
    def test_outcome_without_status(self, runner, tmp_path):
        scenario = _write_scenario(tmp_path / "s.json", [{"match": None, "outcomes": [{"log": "x"}]}])
        result = runner.invoke(main, _detect_args(tmp_path, scenario))
        assert result.exit_code == 1
        error = json.loads(result.output)["error"]
        assert str(scenario) in error and "status" in error

    def test_unknown_status_rejected(self, runner, tmp_path):
        scenario = _write_scenario(
            tmp_path / "s.json", [{"match": None, "outcomes": [{"status": "sucess"}]}]
        )
        result = runner.invoke(main, _detect_args(tmp_path, scenario))
        assert result.exit_code == 1, result.output
        error = json.loads(result.output)["error"]
        assert f"{scenario}: malformed scenario file" in error and "'sucess'" in error

    def test_script_without_outcomes_rejected(self, runner, tmp_path):
        scenario = _write_scenario(tmp_path / "s.json", [{"match": None, "outcomes": []}])
        result = runner.invoke(main, _detect_args(tmp_path, scenario))
        assert result.exit_code == 1, result.output
        error = json.loads(result.output)["error"]
        assert error.startswith(f"{scenario}: malformed scenario file: ") and "outcomes" in error

    @pytest.mark.parametrize("duration", [float("nan"), float("inf"), "5", True])
    def test_non_finite_duration_rejected(self, runner, tmp_path, duration):
        scenario = _write_scenario(
            tmp_path / "s.json", [{"match": None, "outcomes": [{"status": "failure", "duration": duration}]}]
        )
        result = runner.invoke(main, _detect_args(tmp_path, scenario))
        assert result.exit_code == 1, result.output
        error = json.loads(result.output)["error"]
        assert error.startswith(f"{scenario}: malformed scenario file: ") and "duration" in error
        assert not (tmp_path / "state" / "builds").exists()

    @pytest.mark.parametrize(
        "builds, key",
        [([{"match": None, "outcomes": [{"status": "failure", "log": "error: x", "exit-code": 3}]}], "exit-code"),
         ([{"macth": "x", "outcomes": [{"status": "success"}]}], "macth")],
        ids=["outcome-key", "entry-key"],
    )
    def test_unknown_key_rejected(self, runner, tmp_path, builds, key):
        # A typo would otherwise replay as the default: exit_code 1, or the default script.
        scenario = _write_scenario(tmp_path / "s.json", builds)
        result = runner.invoke(main, _detect_args(tmp_path, scenario))
        assert result.exit_code == 1, result.output
        error = json.loads(result.output)["error"]
        assert error.startswith(f"{scenario}: malformed scenario file: ") and repr(key) in error
        assert not (tmp_path / "state" / "builds").exists()

    def test_scenario_not_json(self, runner, tmp_path):
        scenario = tmp_path / "s.json"
        scenario.write_text("builds: [")
        result = runner.invoke(main, _detect_args(tmp_path, scenario))
        assert result.exit_code == 1
        assert str(scenario) in json.loads(result.output)["error"]

    @pytest.mark.parametrize("exit_code", ["oops", True])
    def test_exit_code_that_is_not_an_int_rejected(self, runner, tmp_path, exit_code):
        scenario = _write_scenario(
            tmp_path / "s.json",
            [{"match": None, "outcomes": [{"status": "failure", "log": "error: x", "exit_code": exit_code}]}],
        )
        result = runner.invoke(main, _detect_args(tmp_path, scenario))
        assert result.exit_code == 1, result.output
        assert json.loads(result.output)["error"] == (
            f"{scenario}: malformed scenario file: exit_code is {type(exit_code).__name__}, not int or null"
        )
        assert not (tmp_path / "state" / "builds").exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [("driver", "simulated", "a build script has no outcomes"),
         ("generation_provider", "scripted", "response is int, not str")],
        ids=["driver", "generation_provider"],
    )
    def test_load_config_reads_the_scenario_file(self, tmp_path, key, value, message):
        scenario = _write_scenario(tmp_path / "s.json", [{"match": None, "outcomes": []}], responses=[5])
        with pytest.raises(ConfigError) as raised:
            load_config(overrides={key: f"{value}:{scenario}"})
        assert str(raised.value) == f"{scenario}: malformed scenario file: {message}"

    @pytest.mark.parametrize("path", ["", "adir"])
    def test_driver_scenario_must_be_a_file(self, runner, tmp_path, path):
        (tmp_path / "adir").mkdir()
        value = f"simulated:{tmp_path / path if path else ''}"
        args = _detect_args(tmp_path)
        args[args.index("--driver") + 1] = value
        result = runner.invoke(main, args)
        assert result.exit_code == 1, result.output
        assert json.loads(result.output)["error"] == f"driver must name a scenario file, got {value!r}"

    def test_generation_scenario_must_be_a_file(self, runner, tmp_path):
        log = tmp_path / "x.log"
        log.write_text("> [1/1] RUN x\nerror: y\n")
        result = runner.invoke(
            main,
            ["--config", str(_config_with_generator(tmp_path, tmp_path)),
             "--state-dir", str(tmp_path / "state"), "--json", "preprocess", str(log)],
        )
        assert result.exit_code == 1, result.output
        assert json.loads(result.output)["error"] == (
            f"generation_provider must name a scenario file, got 'scripted:{tmp_path}'"
        )

    def test_generation_scenario_without_responses(self, runner, tmp_path):
        responses = tmp_path / "responses.json"
        responses.write_text(json.dumps({"responses": []}))
        log = tmp_path / "x.log"
        log.write_text("> [1/1] RUN x\nerror: y\n")
        result = runner.invoke(
            main,
            ["--config", str(_config_with_generator(tmp_path, responses)),
             "--state-dir", str(tmp_path / "state"), "--json", "preprocess", str(log)],
        )
        assert result.exit_code == 1
        assert "responses" in json.loads(result.output)["error"]


class TestRepair:
    def test_one_shot_scripted_repair(self, runner, tmp_path, flaky_setup):
        dockerfile, scenario = flaky_setup
        result = runner.invoke(
            main,
            _base_args(tmp_path, scenario) + [
                "--config", str(_config_with_generator(tmp_path, scenario)),
                "repair", str(dockerfile),
            ],
        )
        assert result.exit_code == 0, result.output
        summary = json.loads(result.output)
        assert summary["verdict"] == "repaired"
        assert summary["attempts_used"] == 1
        repaired = dockerfile.with_name("Dockerfile.repaired")
        assert repaired.read_text() == ALPINE_PIP_REPAIRED

    def test_triple_identical_failure_exit_three(self, runner, tmp_path):
        project = tmp_path / "project"
        project.mkdir()
        dockerfile = project / "Dockerfile"
        dockerfile.write_text(ALPINE_PIP)
        bad = "FROM busybox\n# candidate-bad\nRUN broken\n"
        scenario = _write_scenario(
            tmp_path / "scenario.json",
            builds=[
                {"match": "candidate-bad", "outcomes": [{"status": "failure", "log": ERROR_TYPE_LOGS["X"], "exit_code": 1}]},
                {"match": None, "outcomes": [{"status": "failure", "log": ALPINE_PIP_LOG, "exit_code": 1}]},
            ],
            responses=[fenced(bad)],
        )
        result = runner.invoke(
            main,
            _base_args(tmp_path, scenario) + [
                "--config", str(_config_with_generator(tmp_path, scenario)),
                "repair", str(dockerfile),
            ],
        )
        assert result.exit_code == 3, result.output
        summary = json.loads(result.output)
        assert summary["verdict"] == "unresolved"
        assert summary["attempts_used"] == 3

    def test_non_flaky_input_notes_and_exits_zero(self, runner, tmp_path):
        project = tmp_path / "project"
        project.mkdir()
        dockerfile = project / "Dockerfile"
        dockerfile.write_text(ALPINE_PIP)
        scenario = _write_scenario(
            tmp_path / "scenario.json",
            builds=[{"match": None, "outcomes": [{"status": "success"}]}],
            responses=["unused"],
        )
        result = runner.invoke(
            main,
            _base_args(tmp_path, scenario) + [
                "--config", str(_config_with_generator(tmp_path, scenario)),
                "repair", str(dockerfile),
            ],
        )
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["note"] == "non-flaky"

    def test_dry_run_prints_prompt_without_generation(self, runner, tmp_path, flaky_setup):
        dockerfile, scenario = flaky_setup
        result = runner.invoke(
            main,
            _base_args(tmp_path, scenario, as_json=False)
            + ["repair", str(dockerfile), "--dry-run"],
        )
        assert result.exit_code == 0, result.output
        assert "### Flaky Dockerfile" in result.output
        assert "error: externally-managed-environment" in result.output

    @pytest.mark.parametrize("log", ["", " \n\t\n", ALPINE_PIP_LOG], ids=["empty", "blank", "error"])
    def test_dry_run_prompt_is_attempt_one_prompt(self, runner, tmp_path, log):
        project = tmp_path / "project"
        project.mkdir()
        dockerfile = project / "Dockerfile"
        dockerfile.write_text(ALPINE_PIP)
        scenario = _write_scenario(
            tmp_path / "scenario.json",
            builds=[
                {"match": "venv", "outcomes": [{"status": "success", "log": "ok"}]},
                {"match": None, "outcomes": [{"status": "failure", "log": log, "exit_code": 1}]},
            ],
            responses=[fenced(ALPINE_PIP_REPAIRED)],
        )
        args = _base_args(tmp_path, scenario) + [
            "--config", str(_config_with_generator(tmp_path, scenario)), "repair", str(dockerfile),
        ]
        dry = runner.invoke(main, args + ["--dry-run"])
        assert dry.exit_code == 0, dry.output
        assert not (tmp_path / "state" / "sessions").exists()
        full = runner.invoke(main, args)
        assert full.exit_code == 0, full.output
        (session_dir,) = (tmp_path / "state" / "sessions").iterdir()
        dry_run = json.loads(dry.output)
        assert dry_run["prompt"] == (session_dir / "prompt-1.txt").read_text(encoding="utf-8")
        query = json.loads((session_dir / "query.json").read_text(encoding="utf-8"))
        assert dry_run["retrieved"] == [r["id"] for r in query["retrieved"]]

    @pytest.mark.parametrize("failing", [None, "venv"], ids=["detection", "validation"])
    def test_engine_abort_reports_the_engine_message(self, runner, tmp_path, failing):
        project = tmp_path / "project"
        project.mkdir()
        dockerfile = project / "Dockerfile"
        dockerfile.write_text(ALPINE_PIP)
        builds = [{"match": failing, "outcomes": [{"status": "engine-error", "log": "daemon gone"}]}]
        if failing is not None:  # the original fails; the engine breaks under the candidate
            builds.append({"match": None, "outcomes": [{"status": "failure", "log": ALPINE_PIP_LOG, "exit_code": 1}]})
        scenario = _write_scenario(tmp_path / "scenario.json", builds, responses=[fenced(ALPINE_PIP_REPAIRED)])
        args = _base_args(tmp_path, scenario) + [
            "--config", str(_config_with_generator(tmp_path, scenario)), "repair", str(dockerfile),
        ]
        if failing is None:
            dry = runner.invoke(main, args + ["--dry-run"])
            assert dry.exit_code == 1
            assert json.loads(dry.output)["error"] == "session aborted: engine-aborted: daemon gone"
        full = runner.invoke(main, args)
        assert full.exit_code == 1
        assert json.loads(full.output)["error"] == "session aborted: engine-aborted: daemon gone"
        (session_dir,) = (tmp_path / "state" / "sessions").iterdir()
        verdict = json.loads((session_dir / "verdict.json").read_text(encoding="utf-8"))
        assert (verdict["verdict"], verdict["abort_reason"]) == ("engine-aborted", "daemon gone")

    def test_prompt_over_budget_aborts_with_a_verdict(self, runner, tmp_path, flaky_setup):
        dockerfile, scenario = flaky_setup
        config = tmp_path / "flakidock.conf"
        config.write_text(f"generation_provider = scripted:{scenario}\nprompt_budget = 100\n")
        args = _base_args(tmp_path, scenario) + ["--config", str(config), "repair", str(dockerfile)]
        dry = runner.invoke(main, args + ["--dry-run"])  # a dry run has no session to end
        assert dry.exit_code == 1, dry.output
        reason = json.loads(dry.output)["error"]
        assert reason.startswith("prompt exceeds the 100-token budget")
        full = runner.invoke(main, args)
        assert full.exit_code == 1, full.output
        assert json.loads(full.output)["error"] == f"session aborted: aborted-budget: {reason}"
        (session_dir,) = (tmp_path / "state" / "sessions").iterdir()
        verdict = json.loads((session_dir / "verdict.json").read_text(encoding="utf-8"))
        assert (verdict["verdict"], verdict["abort_reason"], verdict["attempts_used"]) == ("aborted-budget", reason, 0)
        assert not (session_dir / "prompt-1.txt").exists()

    @staticmethod
    def _repair_against_chat_reply(runner, tmp_path, flaky_setup, content):
        """`repair` with an HTTP generator that answers `content`; it must
        abort as aborted-provider with its verdict.json. Returns the session dir."""
        dockerfile, scenario = flaky_setup
        reply = {"choices": [{"message": {"role": "assistant", "content": content}}]}
        with Loopback(body=reply) as server:
            config = tmp_path / "flakidock.conf"
            config.write_text(f"generation_provider = http\ngeneration_url = {server.url}/v1\ngeneration_model = m\n")
            result = runner.invoke(
                main, _base_args(tmp_path, scenario) + ["--config", str(config), "repair", str(dockerfile)]
            )
        assert [path for path, _, _ in server.requests] == ["/v1/chat/completions"]
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
        (error,) = json.loads(result.output).values()
        assert error.startswith("session aborted: aborted-provider: unexpected chat response shape")
        (session_dir,) = (tmp_path / "state" / "sessions").iterdir()
        verdict = json.loads((session_dir / "verdict.json").read_text(encoding="utf-8"))
        assert verdict["verdict"] == "aborted-provider" and verdict["attempts_used"] == 0
        assert error == f"session aborted: aborted-provider: {verdict['abort_reason']}"
        assert (session_dir / "prompt-1.txt").exists()
        return session_dir

    def test_provider_failure_aborts_with_the_provider_message(self, runner, tmp_path, flaky_setup):
        self._repair_against_chat_reply(runner, tmp_path, flaky_setup, None)

    def test_reply_without_utf8_form_aborts_with_a_verdict(self, runner, tmp_path, flaky_setup):
        # A lone surrogate, a legal JSON escape, has no UTF-8 form to persist.
        session_dir = self._repair_against_chat_reply(runner, tmp_path, flaky_setup, fenced("FROM \ud800\n"))
        assert not (session_dir / "response-1.txt").exists()

    def test_scripted_response_without_utf8_form_fails_before_any_build(self, runner, tmp_path, flaky_setup):
        dockerfile, scenario = flaky_setup
        payload = json.loads(scenario.read_text())
        payload["responses"] = [fenced("FROM \ud800\n")]
        scenario.write_text(json.dumps(payload))  # the surrogate is written as an escape
        result = runner.invoke(
            main,
            _base_args(tmp_path, scenario)
            + ["--config", str(_config_with_generator(tmp_path, scenario)), "repair", str(dockerfile)],
        )
        assert result.exit_code == 1, result.output
        assert json.loads(result.output)["error"].startswith(f"{scenario}: malformed scenario file:")
        assert not (tmp_path / "state" / "builds").exists()
        assert not (tmp_path / "state" / "sessions").exists()

    def test_session_artifacts_persisted(self, runner, tmp_path, flaky_setup):
        dockerfile, scenario = flaky_setup
        state = tmp_path / "state"
        result = runner.invoke(
            main,
            _base_args(tmp_path, scenario) + [
                "--config", str(_config_with_generator(tmp_path, scenario)),
                "repair", str(dockerfile),
            ],
        )
        assert result.exit_code == 0, result.output
        sessions = list((state / "sessions").iterdir())
        assert len(sessions) == 1
        assert (sessions[0] / "prompt-1.txt").exists()
        assert (sessions[0] / "verdict.json").exists()

    @pytest.mark.parametrize("dry_run", [False, True])
    def test_store_of_another_dim_fails_before_any_build(self, runner, tmp_path, flaky_setup, monkeypatch, dry_run):
        dockerfile, scenario = flaky_setup
        store = load_store(builtin_store_path(), HashingEmbeddingProvider(dim=64))
        save_store(store, tmp_path / "store64" / "records.jsonl")
        builds = []
        build = SimulatedDriver.build
        monkeypatch.setattr(SimulatedDriver, "build", lambda *a, **k: builds.append(a) or build(*a, **k))
        result = runner.invoke(
            main,
            _base_args(tmp_path, scenario) + [
                "--config", str(_config_with_generator(tmp_path, scenario)),
                "repair", str(dockerfile), "--store", str(tmp_path / "store64" / "records.jsonl"),
            ] + (["--dry-run"] if dry_run else []),
        )
        assert result.exit_code == 1, result.output
        assert json.loads(result.output) == {"error": "store dim 64 vs query dim 256"}
        assert builds == []
        assert not (tmp_path / "state" / "sessions").exists()


def _config_with_generator(tmp_path: Path, scenario: Path) -> Path:
    config = tmp_path / "flakidock.conf"
    config.write_text(f"generation_provider = scripted:{scenario}\n")
    return config


class TestCluster:
    def test_ten_identical_logs_one_cluster(self, runner, tmp_path):
        logs = tmp_path / "logs"
        logs.mkdir()
        for i in range(10):
            (logs / f"{i:02d}.log").write_text(ALPINE_PIP_LOG)
        result = runner.invoke(main, _base_args(tmp_path) + ["cluster", str(logs)])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert len(report["clusters"]) == 1
        assert report["reduction"] == pytest.approx(0.9)

    def test_single_log_zero_reduction(self, runner, tmp_path):
        logs = tmp_path / "logs"
        logs.mkdir()
        (logs / "only.log").write_text(ALPINE_PIP_LOG)
        result = runner.invoke(main, _base_args(tmp_path) + ["cluster", str(logs)])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert len(report["clusters"]) == 1
        assert report["reduction"] == 0.0

    def test_template_corpus_reduction(self, runner, tmp_path):
        logs = tmp_path / "logs"
        logs.mkdir()
        for i, text in enumerate(template_raw_logs(100)):
            (logs / f"{i:03d}.log").write_text(text)
        result = runner.invoke(main, _base_args(tmp_path) + ["cluster", str(logs)])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["reduction"] >= 0.85
        members = [m for c in report["clusters"] for m in c["members"]]
        assert len(members) == 100

    def test_missing_directory_exit_one(self, runner, tmp_path):
        result = runner.invoke(main, _base_args(tmp_path) + ["cluster", str(tmp_path / "nope")])
        assert result.exit_code == 1

    def test_empty_logs_form_one_cluster(self, runner, tmp_path):
        # Both read "(empty build output)"; neither is told apart by its file name.
        logs = tmp_path / "logs"
        logs.mkdir()
        (logs / "a.log").write_text("")
        (logs / "b.log").write_text(" \n\n")
        result = runner.invoke(main, _base_args(tmp_path) + ["cluster", str(logs)])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["clusters"] == [{"id": 0, "members": ["a.log", "b.log"]}]


class TestMonitor:
    def _manifest(self, tmp_path, projects) -> Path:
        lines = []
        for name, dockerfile_text in projects:
            ctx = tmp_path / name
            ctx.mkdir()
            (ctx / "Dockerfile").write_text(dockerfile_text)
            lines.append(f"{name} {ctx}")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("\n".join(lines) + "\n")
        return manifest

    def test_one_failing_project_flagged(self, runner, tmp_path):
        manifest = self._manifest(
            tmp_path,
            [("steady", "FROM busybox\n# steady\n"), ("shaky", "FROM busybox\n# shaky\n")],
        )
        scenario = _write_scenario(
            tmp_path / "s.json",
            [
                {"match": "steady", "outcomes": [{"status": "success"}]},
                {"match": "shaky", "outcomes": [{"status": "failure", "log": ERROR_TYPE_LOGS["X"], "exit_code": 1}]},
            ],
        )
        result = runner.invoke(
            main, _base_args(tmp_path, scenario) + ["monitor", str(manifest), "--rounds", "1"]
        )
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["flaky_candidates"] == ["shaky"]

    def test_directory_as_manifest_exit_one(self, runner, tmp_path):
        scenario = _write_scenario(
            tmp_path / "s.json", [{"match": None, "outcomes": [{"status": "success"}]}]
        )
        (tmp_path / "adir").mkdir()
        result = runner.invoke(
            main, _base_args(tmp_path, scenario) + ["monitor", str(tmp_path / "adir"), "--rounds", "1"]
        )
        assert result.exit_code == 1, result.output
        assert f"cannot read {tmp_path / 'adir'}" in json.loads(result.output)["error"]

    def test_non_utf8_manifest_exit_one(self, runner, tmp_path):
        scenario = _write_scenario(
            tmp_path / "s.json", [{"match": None, "outcomes": [{"status": "success"}]}]
        )
        manifest = tmp_path / "manifest.txt"
        manifest.write_bytes(b"caf\xe9 " + str(tmp_path).encode() + b"\n")
        result = runner.invoke(
            main, _base_args(tmp_path, scenario) + ["monitor", str(manifest), "--rounds", "1"]
        )
        assert result.exit_code == 1, result.output
        assert f"cannot read {manifest}" in json.loads(result.output)["error"]

    def test_zero_rounds_no_builds(self, runner, tmp_path):
        manifest = self._manifest(tmp_path, [("only", "FROM busybox\n")])
        scenario = _write_scenario(
            tmp_path / "s.json", [{"match": None, "outcomes": [{"status": "success"}]}]
        )
        result = runner.invoke(
            main, _base_args(tmp_path, scenario) + ["monitor", str(manifest), "--rounds", "0"]
        )
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["projects"]["only"]["builds"] == 0
        assert not (tmp_path / "state" / "history" / "only.jsonl").exists() or (
            (tmp_path / "state" / "history" / "only.jsonl").read_text() == ""
        )

    def test_cleanup_cadence_once_per_series(self, runner, tmp_path):
        manifest = self._manifest(
            tmp_path,
            [("p1", "FROM busybox\n#1\n"), ("p2", "FROM busybox\n#2\n"), ("p3", "FROM busybox\n#3\n")],
        )
        scenario = _write_scenario(
            tmp_path / "s.json", [{"match": None, "outcomes": [{"status": "success"}]}]
        )
        result = runner.invoke(
            main, _base_args(tmp_path, scenario) + ["monitor", str(manifest), "--rounds", "4"]
        )
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["cleanups_performed"] == 3

    def test_cleanup_cadence_counts_across_series(self, runner, tmp_path):
        manifest = self._manifest(
            tmp_path,
            [("p1", "FROM busybox\n#1\n"), ("p2", "FROM busybox\n#2\n"), ("p3", "FROM busybox\n#3\n")],
        )
        scenario = _write_scenario(
            tmp_path / "s.json", [{"match": None, "outcomes": [{"status": "success"}]}]
        )
        result = runner.invoke(
            main, _base_args(tmp_path, scenario) + ["monitor", str(manifest), "--rounds", "3"]
        )
        assert result.exit_code == 0, result.output
        # Nine builds of one engine: cleanups after the 4th and the 8th.
        assert json.loads(result.output)["cleanups_performed"] == 2

    def test_excluded_failures_not_flagged(self, runner, tmp_path):
        manifest = self._manifest(tmp_path, [("hostsick", "FROM busybox\n")])
        scenario = _write_scenario(
            tmp_path / "s.json",
            [{"match": None, "outcomes": [{"status": "failure", "log": "write /x: no space left on device", "exit_code": 1}]}],
        )
        result = runner.invoke(
            main, _base_args(tmp_path, scenario) + ["monitor", str(manifest), "--rounds", "1"]
        )
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["flaky_candidates"] == []
        assert report["projects"]["hostsick"]["excluded"] == 1

    def test_successful_builds_are_not_preprocessed(self, runner, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "flakidock.cli.preprocess_log", lambda *args, **kwargs: calls.append(args)
        )
        manifest = self._manifest(tmp_path, [("steady", "FROM busybox\n")])
        scenario = _write_scenario(
            tmp_path / "s.json", [{"match": None, "outcomes": [{"status": "success", "log": "error: noise"}]}]
        )
        result = runner.invoke(
            main, _base_args(tmp_path, scenario) + ["monitor", str(manifest), "--rounds", "3"]
        )
        assert result.exit_code == 0, result.output
        assert calls == []
        lines = (tmp_path / "state" / "history" / "steady.jsonl").read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            entry = json.loads(line)
            assert set(entry) == {"status", "started_at", "duration", "exclusion", "dockerfile_hash"}
            assert entry["status"] == "success" and entry["exclusion"] is None
            assert line == json.dumps(entry, sort_keys=True)

    def test_only_the_current_dockerfile_counts(self, runner, tmp_path):
        manifest = self._manifest(tmp_path, [("proj", "FROM busybox\n# v1\n")])
        scenario = _write_scenario(
            tmp_path / "s.json",
            [
                {"match": "v1", "outcomes": [{"status": "failure", "log": ERROR_TYPE_LOGS["X"], "exit_code": 1}]},
                {"match": "v2", "outcomes": [{"status": "success"}]},
            ],
        )

        def run(rounds):
            result = runner.invoke(
                main, _base_args(tmp_path, scenario) + ["monitor", str(manifest), "--rounds", str(rounds)]
            )
            assert result.exit_code == 0, result.output
            return json.loads(result.output)

        assert run(1)["flaky_candidates"] == ["proj"]
        # --rounds 0 still reads the Dockerfile and counts its history.
        assert run(0)["projects"]["proj"]["failures"] == 1
        (tmp_path / "proj" / "Dockerfile").write_text("FROM busybox\n# v2\n")
        report = run(1)
        assert report["projects"]["proj"]["failures"] == 0
        assert report["flaky_candidates"] == []

    def test_history_lines_without_a_hash_count_for_nothing(self, runner, tmp_path):
        manifest = self._manifest(tmp_path, [("proj", "FROM busybox\n")])
        history = tmp_path / "state" / "history"
        history.mkdir(parents=True)
        old = {"status": "failure", "started_at": "2024-01-01T00:00:00+00:00", "duration": 1.0, "exclusion": None}
        (history / "proj.jsonl").write_text(json.dumps(old, sort_keys=True) + "\n")
        scenario = _write_scenario(
            tmp_path / "s.json", [{"match": None, "outcomes": [{"status": "success"}]}]
        )
        result = runner.invoke(
            main, _base_args(tmp_path, scenario) + ["monitor", str(manifest), "--rounds", "1"]
        )
        assert result.exit_code == 0, result.output
        entry = json.loads(result.output)["projects"]["proj"]
        assert (entry["failures"], entry["flaky_candidate"]) == (0, False)

    def test_history_lines_that_are_not_build_records_count_for_nothing(self, runner, tmp_path):
        manifest = self._manifest(tmp_path, [("proj", "FROM busybox\n")])
        content_hash = parse_dockerfile(b"FROM busybox\n").content_hash
        history = tmp_path / "state" / "history"
        history.mkdir(parents=True)
        torn = json.dumps({"dockerfile_hash": content_hash, "status": "failure"}, sort_keys=True)[:-5]
        no_status = json.dumps({"dockerfile_hash": content_hash})
        (history / "proj.jsonl").write_text(f"{torn}\n[1]\n{no_status}\n")
        scenario = _write_scenario(
            tmp_path / "s.json",
            [{"match": None, "outcomes": [{"status": "failure", "log": ERROR_TYPE_LOGS["X"], "exit_code": 1}]}],
        )
        result = runner.invoke(
            main, _base_args(tmp_path, scenario) + ["monitor", str(manifest), "--rounds", "1"]
        )
        assert result.exit_code == 0, result.output
        entry = json.loads(result.output)["projects"]["proj"]
        assert (entry["builds"], entry["failures"], entry["flaky_candidate"]) == (1, 1, True)

    def test_a_torn_history_line_does_not_take_the_next_record(self, runner, tmp_path):
        manifest = self._manifest(tmp_path, [("proj", "FROM busybox\n")])
        scenario = _write_scenario(
            tmp_path / "s.json",
            [{"match": None, "outcomes": [{"status": "failure", "log": ERROR_TYPE_LOGS["X"], "exit_code": 1}]}],
        )
        args = _base_args(tmp_path, scenario) + ["monitor", str(manifest), "--rounds", "2"]
        assert runner.invoke(main, args).exit_code == 0
        history = tmp_path / "state" / "history" / "proj.jsonl"
        history.write_bytes(history.read_bytes()[:-20])  # the second line torn, as by a crash mid-write
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["projects"]["proj"]["failures"] == 3
        lines = history.read_text().split("\n")
        assert len(lines) == 5 and lines[-1] == ""  # the fragment keeps a line of its own

    def test_unreadable_dockerfile_counts_nothing_even_at_zero_rounds(self, runner, tmp_path):
        manifest = self._manifest(tmp_path, [("proj", "FROM busybox\n")])
        scenario = _write_scenario(
            tmp_path / "s.json", [{"match": None, "outcomes": [{"status": "failure", "log": "error: x"}]}]
        )
        args = _base_args(tmp_path, scenario) + ["monitor", str(manifest), "--rounds"]
        assert runner.invoke(main, args + ["1"]).exit_code == 0
        (tmp_path / "proj" / "Dockerfile").unlink()
        result = runner.invoke(main, args + ["0"])
        assert result.exit_code == 0, result.output
        entry = json.loads(result.output)["projects"]["proj"]
        assert entry["errors"] and (entry["failures"], entry["excluded"]) == (0, 0)
        assert not entry["flaky_candidate"]

    @pytest.mark.parametrize("name", ["a/b", "../x", "..", ".", "a\0b"])
    def test_project_name_must_be_one_path_component(self, runner, tmp_path, name):
        ctx = tmp_path / "ctx"
        ctx.mkdir()
        (ctx / "Dockerfile").write_text("FROM busybox\n")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"# projects\n{name} {ctx}\n")
        scenario = _write_scenario(
            tmp_path / "s.json", [{"match": None, "outcomes": [{"status": "success"}]}]
        )
        result = runner.invoke(
            main, _base_args(tmp_path, scenario) + ["monitor", str(manifest), "--rounds", "1"]
        )
        assert result.exit_code == 1, result.output
        assert json.loads(result.output)["error"].startswith(f"{manifest}:2: ")
        assert not (tmp_path / "state" / "x.jsonl").exists()

    def test_project_errors_recorded_and_run_continues(self, runner, tmp_path):
        ctx = tmp_path / "broken"
        ctx.mkdir()  # no Dockerfile inside
        good = tmp_path / "good"
        good.mkdir()
        (good / "Dockerfile").write_text("FROM busybox\n")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"broken {ctx}\ngood {good}\n")
        scenario = _write_scenario(
            tmp_path / "s.json", [{"match": None, "outcomes": [{"status": "success"}]}]
        )
        result = runner.invoke(
            main, _base_args(tmp_path, scenario) + ["monitor", str(manifest), "--rounds", "1"]
        )
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["projects"]["broken"]["errors"]
        assert report["projects"]["good"]["builds"] == 1

    def test_project_dockerfile_errors_read_as_in_detect(self, runner, tmp_path):
        missing, unreadable, empty = tmp_path / "missing", tmp_path / "unreadable", tmp_path / "empty"
        missing.mkdir()
        (unreadable / "Dockerfile").mkdir(parents=True)
        empty.mkdir()
        (empty / "Dockerfile").write_text("")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"missing {missing}\nunreadable {unreadable}\nempty {empty}\n")
        scenario = _write_scenario(
            tmp_path / "s.json", [{"match": None, "outcomes": [{"status": "success"}]}]
        )
        result = runner.invoke(
            main, _base_args(tmp_path, scenario) + ["monitor", str(manifest), "--rounds", "1"]
        )
        assert result.exit_code == 0, result.output
        projects = json.loads(result.output)["projects"]
        assert projects["missing"]["errors"] == [f"no such file: {missing / 'Dockerfile'}"]
        (error,) = projects["unreadable"]["errors"]
        assert error.startswith(f"cannot read {unreadable / 'Dockerfile'}: ")
        assert projects["empty"]["errors"] == [f"cannot parse {empty / 'Dockerfile'}: no instructions found"]

    def test_builds_before_an_engine_error_are_kept(self, runner, tmp_path):
        manifest = self._manifest(tmp_path, [("proj", "FROM busybox\n")])
        scenario = _write_scenario(
            tmp_path / "s.json",
            [{"match": None, "outcomes": [{"status": "success"}, {"status": "engine-error", "log": "daemon gone"}]}],
        )
        result = runner.invoke(
            main, _base_args(tmp_path, scenario) + ["monitor", str(manifest), "--rounds", "2"]
        )
        assert result.exit_code == 0, result.output
        entry = json.loads(result.output)["projects"]["proj"]
        assert entry["builds"] == 2 and entry["errors"] == ["daemon gone"]
        # The engine error is written to the history but counts as no failure.
        assert (entry["failures"], entry["flaky_candidate"]) == (0, False)
        lines = (tmp_path / "state" / "history" / "proj.jsonl").read_text().splitlines()
        assert [json.loads(line)["status"] for line in lines] == ["success", "engine-error"]


class TestDataset:
    def test_validate_builtin_store(self, runner, tmp_path):
        result = runner.invoke(
            main, _base_args(tmp_path) + ["dataset", "validate", str(builtin_store_path())]
        )
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["valid"] is True

    def test_stats_reports_majors(self, runner, tmp_path):
        result = runner.invoke(
            main, _base_args(tmp_path) + ["dataset", "stats", str(builtin_store_path())]
        )
        assert result.exit_code == 0, result.output
        stats = json.loads(result.output)
        assert stats["records"] == 7
        assert stats["categories"]["DEP"]["count"] == 1

    def test_add_then_validate_round_trip(self, runner, tmp_path):
        dockerfile = tmp_path / "Dockerfile"
        dockerfile.write_text(ALPINE_PIP)
        log = tmp_path / "build.log"
        log.write_text(ALPINE_PIP_LOG)
        repair = tmp_path / "Dockerfile.fixed"
        repair.write_text(ALPINE_PIP_REPAIRED)
        store = tmp_path / "store" / "records.jsonl"
        add = runner.invoke(
            main,
            _base_args(tmp_path) + [
                "dataset", "add", str(store),
                "--id", "alpine-venv",
                "--dockerfile", str(dockerfile),
                "--log", str(log),
                "--category", "ENV/Environment Management Issues",
                "--repair", str(repair),
                "--iterations", "2",
            ],
        )
        assert add.exit_code == 0, add.output
        check = runner.invoke(main, _base_args(tmp_path) + ["dataset", "validate", str(store)])
        assert check.exit_code == 0, check.output
        assert json.loads(check.output)["records"] == 1

    def test_invalid_store_names_offender(self, runner, tmp_path):
        store = tmp_path / "records.jsonl"
        header = json.dumps({"schema": "flakidock-demo-store", "version": 1})
        bad = json.dumps(
            {
                "id": "bad-one",
                "static_part": "FROM a\n",
                "dynamic_part": "error: x",
                "category": "DEP",
                "repairs": ["FROM b\n"],
                "iterations": [0],
            }
        )
        store.write_text(header + "\n" + bad + "\n")
        result = runner.invoke(main, _base_args(tmp_path) + ["dataset", "validate", str(store)])
        assert result.exit_code == 1
        assert "bad-one" in json.loads(result.output)["error"]

    @pytest.mark.parametrize("iterations", ["x", "2,", "2,1.5"])
    def test_add_non_integer_iterations_names_the_option(self, runner, tmp_path, iterations):
        for name, text in [("Dockerfile", ALPINE_PIP), ("build.log", ALPINE_PIP_LOG), ("fixed", ALPINE_PIP_REPAIRED)]:
            (tmp_path / name).write_text(text)
        store = tmp_path / "store" / "records.jsonl"
        result = runner.invoke(
            main,
            _base_args(tmp_path) + [
                "dataset", "add", str(store), "--id", "a", "--category", "MISC",
                "--dockerfile", str(tmp_path / "Dockerfile"), "--log", str(tmp_path / "build.log"),
                "--repair", str(tmp_path / "fixed"), "--iterations", iterations,
            ],
        )
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
        assert json.loads(result.output) == {
            "error": f"--iterations must be comma-separated integers, got {iterations!r}"
        }
        assert not store.exists()

    @pytest.mark.parametrize(
        "option, value",
        [("--category", "BOGUS"), ("--category", "MISC/x"), ("--iterations", "2,x")],
    )
    def test_add_rejects_its_options_before_the_store_loads(self, runner, tmp_path, monkeypatch, option, value):
        for name, text in [("Dockerfile", ALPINE_PIP), ("build.log", ALPINE_PIP_LOG), ("fixed", ALPINE_PIP_REPAIRED)]:
            (tmp_path / name).write_text(text)
        store = tmp_path / "store" / "records.jsonl"

        def add(*extra):
            return runner.invoke(main, _base_args(tmp_path) + [
                "dataset", "add", str(store), "--id", f"a{len(extra)}", "--category", "MISC",
                "--dockerfile", str(tmp_path / "Dockerfile"), "--log", str(tmp_path / "build.log"),
                "--repair", str(tmp_path / "fixed"), *extra,
            ])

        assert add().exit_code == 0
        if option == "--category":
            with pytest.raises(ValueError) as expected:
                demo_store.FlakinessCategory.from_string(value)
            message = str(expected.value)
        else:
            message = f"--iterations must be comma-separated integers, got {value!r}"
        loads = []
        monkeypatch.setattr(demo_store, "load_store", lambda *a, real=demo_store.load_store: loads.append(a) or real(*a))
        result = add(option, value)
        assert result.exit_code == 1, result.output
        assert json.loads(result.output) == {"error": message}
        assert loads == []

    @pytest.mark.parametrize("option", ["--dockerfile", "--log", "--repair"])
    def test_add_missing_input_file_exits_1_and_leaves_the_store(self, runner, tmp_path, monkeypatch, option):
        for name, text in [("Dockerfile", ALPINE_PIP), ("build.log", ALPINE_PIP_LOG), ("fixed", ALPINE_PIP_REPAIRED)]:
            (tmp_path / name).write_text(text)
        store = tmp_path / "store" / "records.jsonl"

        def add(record_id, **missing):
            inputs = {"--dockerfile": "Dockerfile", "--log": "build.log", "--repair": "fixed", **missing}
            return runner.invoke(main, _base_args(tmp_path) + [
                "dataset", "add", str(store), "--id", record_id, "--category", "MISC",
                *(arg for key, name in inputs.items() for arg in (key, str(tmp_path / name))),
            ])

        assert add("a").exit_code == 0
        before = {p.name: p.read_bytes() for p in store.parent.iterdir()}
        loads = []
        monkeypatch.setattr(demo_store, "load_store", lambda *a, real=demo_store.load_store: loads.append(a) or real(*a))
        result = add("b", **{option: "missing"})
        assert result.exit_code == 1, result.output
        assert json.loads(result.output) == {"error": f"no such file: {tmp_path / 'missing'}"}
        assert loads == []
        assert {p.name: p.read_bytes() for p in store.parent.iterdir()} == before

    @pytest.mark.parametrize("text", ["", " \n\t\n"], ids=["empty", "blank"])
    def test_add_blank_log_names_the_file(self, runner, tmp_path, text):
        for name, body in [("Dockerfile", ALPINE_PIP), ("build.log", text), ("fixed", ALPINE_PIP_REPAIRED)]:
            (tmp_path / name).write_text(body)
        store = tmp_path / "store" / "records.jsonl"
        result = runner.invoke(
            main,
            _base_args(tmp_path) + [
                "dataset", "add", str(store), "--id", "a", "--category", "MISC",
                "--dockerfile", str(tmp_path / "Dockerfile"), "--log", str(tmp_path / "build.log"),
                "--repair", str(tmp_path / "fixed"),
            ],
        )
        assert result.exit_code == 1, result.output
        assert json.loads(result.output) == {"error": f"{tmp_path / 'build.log'}: empty build log"}
        assert not store.exists()

    def test_add_log_without_failure_text_leaves_the_store(self, runner, tmp_path):
        # No rule hit, and the last 2000 characters are blank: the excerpt would be a placeholder.
        for name, body in [("Dockerfile", ALPINE_PIP), ("build.log", ALPINE_PIP_LOG),
                           ("blank-tail.log", "x" + " " * 2001), ("fixed", ALPINE_PIP_REPAIRED)]:
            (tmp_path / name).write_text(body)
        store = tmp_path / "store" / "records.jsonl"

        def add(record_id, log):
            return runner.invoke(main, _base_args(tmp_path) + [
                "dataset", "add", str(store), "--id", record_id, "--category", "MISC",
                "--dockerfile", str(tmp_path / "Dockerfile"), "--log", str(tmp_path / log),
                "--repair", str(tmp_path / "fixed"),
            ])

        assert add("a", "build.log").exit_code == 0
        before = {p.name: p.read_bytes() for p in store.parent.iterdir()}
        result = add("b", "blank-tail.log")
        assert result.exit_code == 1, result.output
        assert json.loads(result.output) == {
            "error": f"{tmp_path / 'blank-tail.log'}: no failure text: no rule hit and a blank last 2000 characters"
        }
        assert {p.name: p.read_bytes() for p in store.parent.iterdir()} == before

    def test_lone_backslash_repair_validates(self, runner, tmp_path):
        store = tmp_path / "records.jsonl"
        header = json.dumps({"schema": "flakidock-demo-store", "version": 1})
        record = json.dumps(
            {
                "id": "trailing-backslash",
                "static_part": "FROM a\n",
                "dynamic_part": "error: x",
                "category": "DEP",
                "repairs": ["RUN x\n\\\n\n"],
                "iterations": [1],
            }
        )
        store.write_text(header + "\n" + record + "\n")
        result = runner.invoke(main, _base_args(tmp_path) + ["dataset", "validate", str(store)])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output) == {"records": 1, "valid": True}


class TestPreprocessCommand:
    def _preprocess(self, runner, tmp_path, lines: list[str]) -> dict:
        log = tmp_path / "build.log"
        log.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, _base_args(tmp_path) + ["preprocess", str(log)])
        assert result.exit_code == 0, result.output
        return json.loads(result.output)

    def test_coloured_log_gives_a_fixed_excerpt(self, runner, tmp_path):
        # The banner and ERROR line are kept without their escapes, the ERROR line
        # anchors its second, the warning: line is vetoed as an anchor but kept as
        # a neighbour, and the line of the next second is dropped.
        got = self._preprocess(runner, tmp_path, [
            "\x1b[1m#5 [2/2] RUN make\x1b[0m", "#5 0.100 compiling", "#5 0.400 \x1b[31mERROR: boom\x1b[0m",
            "#5 0.700 warning: deprecated failed flag", "#5 1.200 done",
        ])
        want = {
            "excerpt": "#5 [2/2] RUN make\n#5 0.100 compiling\n#5 0.400 ERROR: boom\n"
                       "#5 0.700 warning: deprecated failed flag",
            "total_lines_in": 5,
            "total_lines_out": 3,
            "rule_hits": {"substr:error": 1},
        }
        assert {k: got[k] for k in want} == want

    def test_capped_excerpt_keeps_the_first_and_last_60_lines(self, runner, tmp_path):
        # The preamble hit comes first, and each stage header is written once.
        got = self._preprocess(runner, tmp_path, [
            "error: preamble hit", "> [1/2] RUN a", *(f"error a{i}" for i in range(70)),
            "> [2/2] RUN b", *(f"error b{i}" for i in range(70)),
        ])
        assert (got["stages"], got["total_lines_in"], got["total_lines_out"]) == (2, 143, 120)
        lines = got["excerpt"].split("\n")
        assert lines[:3] == ["error: preamble hit", "> [1/2] RUN a", "error a0"]
        assert lines[60:63] == ["error a58", "> [2/2] RUN b", "error b10"]
        assert lines[-1] == "error b69" and len(lines) == 122

    def test_capped_timed_excerpt_ends_its_head_and_starts_its_tail_inside_a_second(self, runner, tmp_path):
        # Two stages of 7 lines a second, an error opening each second except
        # every fourth: the head ends inside second 10 of the first stage and
        # the tail starts inside second 28 of the second.
        lines = []
        for stage, label in ((5, "1/2] RUN a"), (6, "2/2] RUN b")):
            lines.append(f"#{stage} [{label}")
            for i in range(140):
                second = (stage - 5) * 20 + i // 7
                text = f"error: unit {i} failed" if i % 7 == 0 and second % 4 != 3 else f"step {i}"
                lines.append(f"#{stage} {second}.{100 + (i % 7) * 100:03d} {text}")
        got = self._preprocess(runner, tmp_path, lines)
        assert (got["stages"], got["total_lines_in"], got["total_lines_out"]) == (2, 282, 120)
        assert got["rule_hits"] == {"substr:error": 30, "substr:failed": 30}
        lines = got["excerpt"].split("\n")
        assert lines[58:63] == ["#5 10.200 step 71", "#5 10.300 step 72", "#5 10.400 step 73",
                                "#6 [2/2] RUN b", "#6 28.400 step 59"]
        assert lines[-1] == "#6 38.700 step 132" and len(lines) == 122

    def test_prints_excerpt(self, runner, tmp_path):
        log = tmp_path / "build.log"
        log.write_text(ALPINE_PIP_LOG)
        result = runner.invoke(main, _base_args(tmp_path, as_json=False) + ["preprocess", str(log)])
        assert result.exit_code == 0, result.output
        assert "error: externally-managed-environment" in result.output

    def test_json_shape(self, runner, tmp_path):
        log = tmp_path / "build.log"
        log.write_text(ALPINE_PIP_LOG)
        result = runner.invoke(main, _base_args(tmp_path) + ["preprocess", str(log)])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["total_lines_out"] <= payload["total_lines_in"]
        assert payload["rule_hits"]

    def test_directory_as_log_exit_one(self, runner, tmp_path):
        (tmp_path / "adir").mkdir()
        result = runner.invoke(main, _base_args(tmp_path) + ["preprocess", str(tmp_path / "adir")])
        assert result.exit_code == 1, result.output
        assert f"cannot read {tmp_path / 'adir'}" in json.loads(result.output)["error"]

    def test_timestamp_too_large_for_a_float_is_untimed(self, runner, tmp_path):
        log = tmp_path / "build.log"
        log.write_text("#5 [1/1] RUN x\n#5 " + "9" * 400 + ".0 error: boom\n")
        result = runner.invoke(main, _base_args(tmp_path) + ["preprocess", str(log)])
        assert result.exit_code == 0, result.output
        assert "error: boom" in json.loads(result.output)["excerpt"]


@contextlib.contextmanager
def _held_lock(path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_RDWR | os.O_CREAT)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        yield
    finally:
        os.close(fd)


class TestLocking:
    def test_live_lock_blocks(self, runner, tmp_path):
        with _held_lock(tmp_path / "state" / ".lock"):
            result = runner.invoke(main, _detect_args(tmp_path))
        assert result.exit_code == 1
        assert "locked" in json.loads(result.output)["error"]

    def test_live_lock_blocks_monitor(self, runner, tmp_path):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("")
        scenario = _write_scenario(
            tmp_path / "s.json", [{"match": None, "outcomes": [{"status": "success"}]}]
        )
        with _held_lock(tmp_path / "state" / ".lock"):
            result = runner.invoke(
                main, _base_args(tmp_path, scenario) + ["monitor", str(manifest), "--rounds", "1"]
            )
        assert result.exit_code == 1
        assert "locked" in json.loads(result.output)["error"]

    def test_leftover_pid_file_does_not_block(self, runner, tmp_path):
        state = tmp_path / "state"
        state.mkdir(parents=True)
        (state / ".lock").write_text("999999999")
        result = runner.invoke(main, _detect_args(tmp_path))
        assert result.exit_code == 0, result.output

    def test_killed_holder_does_not_block(self, runner, tmp_path):
        lock = tmp_path / "state" / ".lock"
        lock.parent.mkdir(parents=True)
        holder = subprocess.Popen(
            [sys.executable, "-c",
             "import fcntl, os, sys, time\n"
             "fd = os.open(sys.argv[1], os.O_RDWR | os.O_CREAT)\n"
             "fcntl.flock(fd, fcntl.LOCK_EX)\n"
             "print('locked', flush=True)\n"
             "time.sleep(60)\n",
             str(lock)],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            assert holder.stdout.readline().strip() == "locked"
            assert runner.invoke(main, _detect_args(tmp_path)).exit_code == 1
        finally:
            holder.kill()  # SIGKILL: no cleanup code runs in the holder
            holder.wait(timeout=10)
            holder.stdout.close()
        result = runner.invoke(main, _detect_args(tmp_path))
        assert result.exit_code == 0, result.output

    def test_lock_released_after_run(self, runner, tmp_path):
        result = runner.invoke(main, _detect_args(tmp_path))
        assert result.exit_code == 0, result.output
        with _held_lock(tmp_path / "state" / ".lock"):  # raises if still held
            pass

    @pytest.mark.parametrize("command", ["preprocess", "cluster", "validate", "stats"])
    def test_read_only_commands_take_no_lock(self, runner, tmp_path, command):
        (tmp_path / "logs").mkdir()
        log = tmp_path / "logs" / "x.log"
        log.write_text("error: y\n")
        (tmp_path / "plain").write_text("a regular file")
        before = sorted(tmp_path.rglob("*"))
        args = {
            "preprocess": ["preprocess", str(log)],
            "cluster": ["cluster", str(tmp_path / "logs")],
            "validate": ["dataset", "validate", str(builtin_store_path())],
            "stats": ["dataset", "stats", str(builtin_store_path())],
        }[command]
        result = runner.invoke(
            main, ["--state-dir", str(tmp_path / "plain" / "state"), "--json"] + args
        )
        assert result.exit_code == 0, result.output
        assert sorted(tmp_path.rglob("*")) == before

    def test_writing_command_reports_unusable_state_dir(self, runner, tmp_path):
        (tmp_path / "plain").write_text("a regular file")
        result = runner.invoke(main, _detect_args(tmp_path, state_dir=tmp_path / "plain" / "state"))
        assert result.exit_code == 1
        assert "plain" in json.loads(result.output)["error"]


class TestGlobalFlags:
    def test_rules_flag_overrides_builtin_set(self, runner, tmp_path):
        rules = tmp_path / "custom.rules"
        rules.write_text("substr:KABLAM\n")
        log = tmp_path / "build.log"
        log.write_text("> [1/1] RUN x\nerror: ignored by custom rules\nKABLAM happened\n")
        result = runner.invoke(
            main, _base_args(tmp_path) + ["--rules", str(rules), "preprocess", str(log)]
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert "KABLAM happened" in payload["excerpt"]
        assert "substr:error" not in payload["rule_hits"]

    @pytest.mark.parametrize("content", [b"regex:(unclosed\n", b"\xff\n"], ids=["bad-regex", "not-utf8"])
    @pytest.mark.parametrize("status", ["success", "failure"], ids=["non-flaky", "flaky"])
    def test_rules_file_that_does_not_parse_fails_before_any_build(self, runner, tmp_path, content, status):
        rules = tmp_path / "bad.rules"
        rules.write_bytes(content)
        scenario = _write_scenario(
            tmp_path / "s.json", [{"match": None, "outcomes": [{"status": status, "log": "error: x"}]}]
        )
        result = runner.invoke(main, ["--rules", str(rules)] + _detect_args(tmp_path, scenario))
        assert result.exit_code == 1, result.output
        assert json.loads(result.output)["error"].startswith(f"rules file {rules}: ")
        assert not (tmp_path / "state" / "builds").exists()

    def test_engine_error_exits_one(self, runner, tmp_path):
        project = tmp_path / "p"
        project.mkdir()
        (project / "Dockerfile").write_text(ALPINE_PIP)
        scenario = _write_scenario(
            tmp_path / "s.json",
            [{"match": None, "outcomes": [{"status": "engine-error", "log": "daemon gone"}]}],
        )
        result = runner.invoke(
            main, _base_args(tmp_path, scenario) + ["detect", str(project / "Dockerfile")]
        )
        assert result.exit_code == 1
        assert "daemon gone" in json.loads(result.output)["error"]

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_config_file_that_cannot_be_read(self, runner, tmp_path, kind):
        config = tmp_path / "flakidock.conf"
        if kind == "directory":
            config.mkdir()
        elif kind == "not-utf8":
            config.write_bytes(b"retrieval_k = 2 # \xff\n")
        result = runner.invoke(main, ["--config", str(config)] + _detect_args(tmp_path))
        assert result.exit_code == 1, result.output
        error = json.loads(result.output)["error"]
        if kind == "missing":
            assert error == f"no such file: {config}"
        else:
            assert error.startswith(f"cannot read {config}: ")
        assert not (tmp_path / "state" / "builds").exists()

    def test_unknown_config_key_rejected(self, runner, tmp_path):
        config = tmp_path / "bad.conf"
        config.write_text("tpyo_key = 1\n")
        log = tmp_path / "x.log"
        log.write_text("error: y\n")
        result = runner.invoke(
            main,
            ["--config", str(config), "--state-dir", str(tmp_path / "state"), "--json",
             "preprocess", str(log)],
        )
        assert result.exit_code == 1
        assert "tpyo_key" in json.loads(result.output)["error"]

    @pytest.mark.parametrize(
        "setting",
        ["clean_every = 0", "timeout = 0", "timeout = -5", "build_iterations = 0",
         "failure_threshold = 0", "max_total_attempts = 0", "feedback_similarity = 1.0",
         "feedback_similarity = 0"],
    )
    def test_policy_value_out_of_range_rejected(self, runner, tmp_path, setting):
        config = tmp_path / "bad.conf"
        config.write_text(setting + "\n")
        log = tmp_path / "x.log"
        log.write_text("error: y\n")
        result = runner.invoke(
            main,
            ["--config", str(config), "--state-dir", str(tmp_path / "state"), "--json",
             "preprocess", str(log)],
        )
        assert result.exit_code == 1
        assert setting.split()[0] in json.loads(result.output)["error"]

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_timeout_rejected(self, runner, tmp_path, value):
        config = tmp_path / "bad.conf"
        config.write_text(f"build_command = echo {{context}}\nclean_commands = true\ntimeout = {value}\n")
        dockerfile = tmp_path / "Dockerfile"
        dockerfile.write_text(ALPINE_PIP)
        result = runner.invoke(
            main,
            ["--config", str(config), "--state-dir", str(tmp_path / "state"), "--json",
             "detect", str(dockerfile)],
        )
        assert result.exit_code == 1, result.output
        assert json.loads(result.output)["error"] == f"timeout must be a finite number > 0, got {value}"
        assert not (tmp_path / "state" / "builds").exists()

    @pytest.mark.parametrize(
        "key",
        ["prompt_budget", "max_response_tokens", "embedding_dim", "sentence_dim", "embedding_token_limit"],
    )
    def test_size_key_below_one_rejected(self, runner, tmp_path, key):
        config = tmp_path / "bad.conf"
        config.write_text(f"{key} = 0\n")
        result = runner.invoke(main, ["--config", str(config)] + _detect_args(tmp_path))
        assert result.exit_code == 1, result.output
        assert json.loads(result.output)["error"] == f"{key} must be >= 1, got 0"
        assert not (tmp_path / "state" / "builds").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("embedding_provider", "htttp"), ("sentence_provider", "HTTP"),
         ("generation_provider", "scripted"), ("generation_provider", "scripted:"),
         ("generation_provider", "openai")],
    )
    def test_unknown_provider_kind_rejected(self, runner, tmp_path, key, value):
        config = tmp_path / "bad.conf"
        config.write_text(f"{key} = {value}\n")
        log = tmp_path / "x.log"
        log.write_text("error: y\n")
        result = runner.invoke(
            main,
            ["--config", str(config), "--state-dir", str(tmp_path / "state"), "--json",
             "preprocess", str(log)],
        )
        assert result.exit_code == 1, result.output
        error = json.loads(result.output)["error"]
        assert key in error and repr(value) in error

    def test_config_file_values_applied(self, runner, tmp_path):
        config = tmp_path / "flakidock.conf"
        config.write_text("retrieval_k = 5\ncluster_threshold = 0.7\n")
        logs = tmp_path / "logs"
        logs.mkdir()
        (logs / "a.log").write_text(ALPINE_PIP_LOG)
        result = runner.invoke(
            main,
            ["--config", str(config), "--state-dir", str(tmp_path / "state"), "--json",
             "cluster", str(logs)],
        )
        assert result.exit_code == 0, result.output

    def test_every_key_takes_the_type_of_its_default(self, tmp_path):
        rules = tmp_path / "custom.rules"
        rules.write_text("substr:boom\n")
        values = {
            "state_dir": tmp_path / "st", "driver": "real", "build_command": "podman build {context}",
            "clean_commands": "a; b", "clean_every": "5", "timeout": "30", "no_cache": "no",
            "build_iterations": "3", "failure_threshold": "4", "max_total_attempts": "6",
            "feedback_similarity": "0.5", "cluster_threshold": "0.6", "retrieval_k": "2",
            "store": tmp_path / "records.jsonl", "rules": rules,
            "embedding_provider": "http", "embedding_url": "http://localhost:1",
            "embedding_model": "e", "embedding_auth_env": "E_TOKEN", "embedding_dim": "8",
            "embedding_token_limit": "100", "sentence_provider": "http",
            "sentence_url": "http://localhost:2", "sentence_model": "s",
            "sentence_auth_env": "S_TOKEN", "sentence_dim": "4", "generation_provider": "http",
            "generation_url": "http://localhost:3", "generation_model": "g",
            "generation_auth_env": "G_TOKEN", "prompt_budget": "900", "max_response_tokens": "50",
        }
        assert set(values) == {f.name for f in fields(RunConfig)}
        path = tmp_path / "all.conf"
        path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
        config = load_config(path)
        for f in fields(RunConfig):
            value = getattr(config, f.name)
            if f.name == "rules":
                assert isinstance(value, Path)
            else:
                assert type(value) is type(f.default), f.name
        assert (config.clean_commands, config.timeout, config.no_cache) == (("a", "b"), 30.0, False)
        assert (config.rules, config.state_dir, config.retrieval_k) == (rules, tmp_path / "st", 2)

    def test_defaults_are_those_of_the_classes_they_build(self):
        config = load_config()
        assert config.engine.policy == HygienePolicy()
        assert config.validation == ValidationPolicy()
        built = load_config(overrides={"embedding_provider": "http", "generation_provider": "http"}).providers
        embedder, generator = HttpEmbeddingProvider("", "", ""), HttpChatProvider("", "", "")
        assert (built.query_embedder.dim, built.query_embedder.token_limit) == (embedder.dim, embedder.token_limit)
        assert built.generator.max_tokens == generator.max_tokens

    @pytest.mark.parametrize(
        "overrides, message",
        [({"retrieval_k": "3"}, "retrieval_k: expected int, got '3'"),
         ({"timeout": "30"}, "timeout: expected float, got '30'"),
         ({"feedback_similarity": "0.5"}, "feedback_similarity: expected float, got '0.5'"),
         ({"retrieval_k": True}, "retrieval_k: expected int, got True"),
         ({"no_cache": "false"}, "no_cache: expected bool, got 'false'"),
         ({"no_cache": 0}, "no_cache: expected bool, got 0"),
         ({"retreival_k": 5}, "unknown key 'retreival_k'")],
        ids=repr,
    )
    def test_override_of_another_type_rejected(self, overrides, message):
        with pytest.raises(ConfigError) as raised:
            load_config(overrides=overrides)
        assert str(raised.value) == message

    def test_overrides_of_the_field_type_kept(self, tmp_path):
        config = load_config(overrides={"state_dir": str(tmp_path / "st"), "rules": None, "timeout": 30,
                                        "no_cache": True, "retrieval_k": 5})
        assert (config.state_dir, config.rules, config.timeout, config.no_cache, config.retrieval_k) == (
            tmp_path / "st", None, 30.0, True, 5)
        assert type(config.timeout) is float

    def test_repair_without_generator_exits_one(self, runner, tmp_path):
        project = tmp_path / "p"
        project.mkdir()
        (project / "Dockerfile").write_text(ALPINE_PIP)
        scenario = _write_scenario(
            tmp_path / "s.json",
            [{"match": None, "outcomes": [{"status": "failure", "log": "error: x", "exit_code": 1}]}],
        )
        result = runner.invoke(
            main, _base_args(tmp_path, scenario) + ["repair", str(project / "Dockerfile")]
        )
        assert result.exit_code == 1
        assert "generation provider" in json.loads(result.output)["error"]


class TestDatasetEdgeCases:
    def test_add_into_existing_empty_directory(self, runner, tmp_path):
        store_dir = tmp_path / "index"
        store_dir.mkdir()
        dockerfile = tmp_path / "Dockerfile"
        dockerfile.write_text(ALPINE_PIP)
        log = tmp_path / "build.log"
        log.write_text(ALPINE_PIP_LOG)
        repair = tmp_path / "Dockerfile.fixed"
        repair.write_text(ALPINE_PIP_REPAIRED)
        result = runner.invoke(
            main,
            _base_args(tmp_path) + [
                "dataset", "add", str(store_dir),
                "--id", "first", "--dockerfile", str(dockerfile),
                "--log", str(log), "--category", "MISC", "--repair", str(repair),
            ],
        )
        assert result.exit_code == 0, result.output
        assert (store_dir / "records.jsonl").exists()
        assert (store_dir / "vectors.bin").exists()

    def test_duplicate_add_rejected(self, runner, tmp_path):
        dockerfile = tmp_path / "Dockerfile"
        dockerfile.write_text(ALPINE_PIP)
        log = tmp_path / "build.log"
        log.write_text(ALPINE_PIP_LOG)
        repair = tmp_path / "Dockerfile.fixed"
        repair.write_text(ALPINE_PIP_REPAIRED)
        store = tmp_path / "records.jsonl"
        args = _base_args(tmp_path) + [
            "dataset", "add", str(store),
            "--id", "dup", "--dockerfile", str(dockerfile),
            "--log", str(log), "--category", "MISC", "--repair", str(repair),
        ]
        assert runner.invoke(main, args).exit_code == 0
        second = runner.invoke(main, args)
        assert second.exit_code == 1
        assert "duplicate" in json.loads(second.output)["error"]

    def test_unknown_subcategory_warned_once(self, runner, tmp_path, caplog):
        dockerfile = tmp_path / "Dockerfile"
        dockerfile.write_text(ALPINE_PIP)
        log = tmp_path / "build.log"
        log.write_text(ALPINE_PIP_LOG)
        repair = tmp_path / "Dockerfile.fixed"
        repair.write_text(ALPINE_PIP_REPAIRED)
        with caplog.at_level(logging.WARNING, logger="flakidock.demo_store"):
            result = runner.invoke(
                main,
                _base_args(tmp_path) + [
                    "dataset", "add", str(tmp_path / "records.jsonl"),
                    "--id", "made-up", "--dockerfile", str(dockerfile),
                    "--log", str(log), "--category", "DEP/Made Up", "--repair", str(repair),
                ],
            )
        assert result.exit_code == 0, result.output
        assert sum("unknown subcategory" in r.getMessage() for r in caplog.records) == 1


def _repair_args(tmp_path: Path, flaky_setup) -> list[str]:
    """`repair` of the flaky_setup Dockerfile, which the scripted generator repairs."""
    dockerfile, scenario = flaky_setup
    return _base_args(tmp_path, scenario) + [
        "--config", str(_config_with_generator(tmp_path, scenario)), "repair", str(dockerfile),
    ]


def _monitor_args(tmp_path: Path) -> list[str]:
    project = tmp_path / "proj"
    project.mkdir()
    (project / "Dockerfile").write_text("FROM busybox\n")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"proj {project}\n")
    scenario = _write_scenario(tmp_path / "s.json", [{"match": None, "outcomes": [{"status": "success"}]}])
    return _base_args(tmp_path, scenario) + ["monitor", str(manifest), "--rounds", "1"]


def _builds_is_a_file(tmp_path, _):
    (tmp_path / "state").mkdir()
    (tmp_path / "state" / "builds").write_text("")
    return _detect_args(tmp_path), "builds"


def _history_is_a_file(tmp_path, _):
    (tmp_path / "state").mkdir()
    (tmp_path / "state" / "history").write_text("")
    return _monitor_args(tmp_path), "history"


def _history_file_is_a_directory(tmp_path, _):
    (tmp_path / "state" / "history" / "proj.jsonl").mkdir(parents=True)
    return _monitor_args(tmp_path), "proj.jsonl"


def _repaired_is_a_directory(tmp_path, flaky_setup):
    (tmp_path / "project" / "Dockerfile.repaired").mkdir()
    return _repair_args(tmp_path, flaky_setup), "Dockerfile.repaired"


def _sessions_is_a_file(tmp_path, flaky_setup):
    (tmp_path / "state").mkdir()
    (tmp_path / "state" / "sessions").write_text("")
    return _repair_args(tmp_path, flaky_setup), "sessions"


def _records_is_a_directory(tmp_path, _):
    (tmp_path / "store" / "records.jsonl").mkdir(parents=True)
    return _base_args(tmp_path) + ["dataset", "stats", str(tmp_path / "store")], "records.jsonl"


def _records_not_utf8(tmp_path, _):
    store = tmp_path / "records.jsonl"
    header = json.dumps({"schema": "flakidock-demo-store", "version": 1})
    store.write_bytes(header.encode() + b'\n{"id": "caf\xe9"}\n')  # latin-1
    return _base_args(tmp_path) + ["dataset", "validate", str(store)], f"{store}: not UTF-8"


class TestErrorBoundary:
    """An operational error in any command exits 1 with exactly one `--json`
    error object on stdout and no traceback."""

    @pytest.mark.parametrize(
        "case",
        [_builds_is_a_file, _history_is_a_file, _history_file_is_a_directory, _repaired_is_a_directory,
         _sessions_is_a_file, _records_is_a_directory, _records_not_utf8],
        ids=lambda case: case.__name__.lstrip("_"),
    )
    def test_operational_error_is_the_error_object(self, runner, tmp_path, flaky_setup, case):
        args, named = case(tmp_path, flaky_setup)
        result = runner.invoke(main, args)
        assert isinstance(result.exception, SystemExit), result.exc_info  # not an uncaught error
        assert result.exit_code == 1, result.output
        assert "Traceback" not in result.output
        payload = json.loads(result.stdout)
        assert list(payload) == ["error"] and named in payload["error"]
