from __future__ import annotations

import json
import os
from pathlib import Path

import pytest
from click.testing import CliRunner

from flakidock.cli import main
from flakidock.demo_store import builtin_store_path

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
            assert set(entry) == {"status", "started_at", "duration", "exclusion"}
            assert entry["status"] == "success" and entry["exclusion"] is None
            assert line == json.dumps(entry, sort_keys=True)

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

    def test_timestamp_too_large_for_a_float_is_untimed(self, runner, tmp_path):
        log = tmp_path / "build.log"
        log.write_text("#5 [1/1] RUN x\n#5 " + "9" * 400 + ".0 error: boom\n")
        result = runner.invoke(main, _base_args(tmp_path) + ["preprocess", str(log)])
        assert result.exit_code == 0, result.output
        assert "error: boom" in json.loads(result.output)["excerpt"]


class TestLocking:
    def test_live_lock_blocks(self, runner, tmp_path):
        state = tmp_path / "state"
        state.mkdir(parents=True)
        (state / ".lock").write_text(str(os.getpid()))  # this test process is alive
        log = tmp_path / "x.log"
        log.write_text("error: y\n")
        result = runner.invoke(main, _base_args(tmp_path) + ["preprocess", str(log)])
        assert result.exit_code == 1
        assert "locked" in json.loads(result.output)["error"]

    def test_stale_lock_reclaimed(self, runner, tmp_path):
        state = tmp_path / "state"
        state.mkdir(parents=True)
        (state / ".lock").write_text("999999999")
        log = tmp_path / "x.log"
        log.write_text("error: y\n")
        result = runner.invoke(main, _base_args(tmp_path) + ["preprocess", str(log)])
        assert result.exit_code == 0, result.output

    def test_lock_released_after_run(self, runner, tmp_path):
        log = tmp_path / "x.log"
        log.write_text("error: y\n")
        runner.invoke(main, _base_args(tmp_path) + ["preprocess", str(log)])
        assert not (tmp_path / "state" / ".lock").exists()


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
