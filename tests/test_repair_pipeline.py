from __future__ import annotations

import dataclasses
import itertools
import json
from collections import Counter

import numpy as np
import pytest

from flakidock.build_engine import (
    STATUS_FAILURE,
    STATUS_SUCCESS,
    BuildEngine,
    HygienePolicy,
)
from flakidock.demo_store import DemonstrationIndex, builtin_store_path, load_store
from flakidock import repair_pipeline
from flakidock.dockerfile_model import parse_dockerfile
from flakidock.durable import read_lines, replacing
from flakidock.errors import BudgetExhausted, FlakiDockError, ProviderUnavailable, UnparseableResponse
from flakidock.log_preprocess import preprocess_log
from flakidock.providers import (
    EmbeddingProvider,
    HashingEmbeddingProvider,
    ScriptedTextProvider,
    TextGenerationProvider,
)
from flakidock.repair_pipeline import (
    COT_GUIDANCE,
    EXAMPLE_HEADER,
    FEEDBACK_HEADER,
    FEEDBACK_OUTPUT_LABEL,
    QUERY_HEADER,
    TASK_DESCRIPTION,
    UNPARSEABLE_FEEDBACK,
    VERDICT_BUDGET_ABORTED,
    VERDICT_ENGINE_ABORTED,
    VERDICT_IN_PROGRESS,
    VERDICT_NON_FLAKY,
    VERDICT_PROVIDER_ABORTED,
    VERDICT_REPAIRED,
    VERDICT_UNRESOLVED,
    ProviderSet,
    RepairSession,
    ValidationPolicy,
    assemble_prompt,
    detect_flakiness,
    end_session,
    guess_category,
    parse_candidate,
    repair_flaky_dockerfile,
    start_session,
    validate_repair,
)
from flakidock.similarity import RepairQuery, cosine, embed

from support import (
    ALPINE_PIP,
    ALPINE_PIP_LOG,
    ALPINE_PIP_REPAIRED,
    CLUSTER_TEMPLATES,
    ERROR_TYPE_LOGS,
    driver_for,
    driver_with_scripts,
    fenced,
    outcome,
    reference_journal_line,
    split_series,
    template_outputs,
)


def _providers(generator=None):
    offline = HashingEmbeddingProvider()
    return ProviderSet(offline, offline, generator)


def _engine(driver):
    return BuildEngine(driver, HygienePolicy())


@pytest.fixture
def base_doc():
    return parse_dockerfile(ALPINE_PIP)


def test_error_type_fixtures_are_mutually_dissimilar(offline_provider):
    # The validation state machine relies on distinct error types staying
    # below the 0.90 feedback-similarity threshold after preprocessing.
    texts = [preprocess_log(t).as_text() for t in ERROR_TYPE_LOGS.values()]
    vecs = [embed(t, offline_provider) for t in texts]
    for a, b in itertools.combinations(vecs, 2):
        assert cosine(a, b) < 0.90
    for v in vecs:
        assert cosine(v, v) == pytest.approx(1.0)


class TestDetect:
    def test_two_successes_non_flaky(self, base_doc, tmp_path):
        driver = driver_for([outcome(STATUS_SUCCESS), outcome(STATUS_SUCCESS)])
        detection = detect_flakiness(base_doc, tmp_path, _engine(driver), ValidationPolicy())
        assert not detection.flaky

    def test_immediate_failure_stops_early(self, base_doc, tmp_path):
        driver = driver_for([outcome(STATUS_FAILURE, "boom", exit_code=1)])
        detection = detect_flakiness(base_doc, tmp_path, _engine(driver), ValidationPolicy())
        assert detection.flaky
        assert len(detection.records) == 1
        assert driver.builds_run == 1  # second build never executed

    def test_success_then_failure_returns_second_record(self, base_doc, tmp_path):
        driver = driver_for(
            [outcome(STATUS_SUCCESS, "fine"), outcome(STATUS_FAILURE, "late boom", exit_code=1)]
        )
        detection = detect_flakiness(base_doc, tmp_path, _engine(driver), ValidationPolicy())
        assert detection.flaky
        assert not detection.records[-1].succeeded and detection.records[-1].log == "late boom"
        assert len(detection.records) == 2

    @pytest.mark.parametrize(
        "script", list(itertools.product([STATUS_SUCCESS, STATUS_FAILURE], repeat=2))
    )
    def test_all_two_build_scripts(self, base_doc, tmp_path, script):
        driver = driver_for([outcome(s, "x", exit_code=None if s == STATUS_SUCCESS else 1) for s in script])
        detection = detect_flakiness(base_doc, tmp_path, _engine(driver), ValidationPolicy())
        assert detection.flaky == (script != (STATUS_SUCCESS, STATUS_SUCCESS))


def _session_with(retrieved=None, feedback=None):
    session = RepairSession(
        query=RepairQuery.build(ALPINE_PIP, "error: externally-managed-environment")
    )
    session.retrieved = retrieved or []
    for i, (repair, output) in enumerate(feedback or [], 1):
        session.attempts_used = i
        session.add_feedback(repair, output, embed(output, HashingEmbeddingProvider()))
    return session


class TestAssemblePrompt:
    def test_three_examples_three_blocks(self, offline_provider):
        store = load_store(builtin_store_path(), offline_provider)
        retrieved = [(store.records[i], 0.9 - i * 0.1) for i in range(3)]
        prompt = assemble_prompt(_session_with(retrieved=retrieved))
        assert prompt.count("### Example") == 3
        assert prompt.count(QUERY_HEADER) == 1

    def test_empty_store_no_example_blocks(self):
        prompt = assemble_prompt(_session_with())
        assert "### Example" not in prompt
        assert QUERY_HEADER in prompt

    def test_feedback_blocks_in_attempt_order(self):
        session = _session_with(
            feedback=[
                ("FROM a\n# first-bad\n", "error: first failure"),
                ("FROM a\n# second-bad\n", "error: second failure"),
            ]
        )
        prompt = assemble_prompt(session)
        first = prompt.index(FEEDBACK_HEADER.format(idx=1))
        second = prompt.index(FEEDBACK_HEADER.format(idx=2))
        assert first < second
        assert prompt.index("# first-bad") < prompt.index("# second-bad")

    def test_section_order(self, offline_provider):
        store = load_store(builtin_store_path(), offline_provider)
        session = _session_with(
            retrieved=[(store.records[0], 0.8)],
            feedback=[("FROM a\n# bad\n", "error: nope")],
        )
        prompt = assemble_prompt(session)
        positions = [
            prompt.index(TASK_DESCRIPTION[:40]),
            prompt.index(COT_GUIDANCE[:30]),
            prompt.index("### Example 1"),
            prompt.index(QUERY_HEADER),
            prompt.index(FEEDBACK_HEADER.format(idx=1)),
        ]
        assert positions == sorted(positions)

    def test_lowest_similarity_examples_dropped_first(self, offline_provider):
        store = load_store(builtin_store_path(), offline_provider)
        retrieved = [(store.records[i], 0.9 - i * 0.1) for i in range(3)]
        session = _session_with(retrieved=retrieved)
        full = assemble_prompt(session, budget_tokens=100_000)
        tokens_needed = len(full) // 4
        trimmed = assemble_prompt(session, budget_tokens=int(tokens_needed * 0.7))
        assert trimmed.count("### Example") < 3
        assert EXAMPLE_HEADER.format(idx=1, sim=0.9).split("(")[0] in trimmed

    def test_dynamic_texts_truncated_before_giving_up(self):
        session = RepairSession(
            query=RepairQuery.build("FROM alpine\n", "error: " + "x" * 8000)
        )
        prompt = assemble_prompt(session, budget_tokens=1200)
        assert len(prompt) // 4 <= 1200

    def test_clipping_keeps_the_final_error_line(self):
        final = 'ERROR: process "/bin/sh -c pip install -r requirements.txt" exit code: 1'
        lines = [f"#8 {i:.1f} Collecting package-{i} (from requirements)" for i in range(899)]
        session = RepairSession(
            query=RepairQuery.build("FROM alpine\n", "\n".join(lines + [final]))
        )
        prompt = assemble_prompt(session, budget_tokens=4000)
        assert lines[0] not in prompt  # the output was clipped
        assert prompt.endswith(final)

    def test_budget_exhausted_when_query_cannot_fit(self):
        session = RepairSession(
            query=RepairQuery.build("FROM alpine\n" + "RUN x\n" * 2000, "error: y")
        )
        with pytest.raises(BudgetExhausted):
            assemble_prompt(session, budget_tokens=200)

    def test_long_feedback_outputs_are_cut_to_the_floor_before_giving_up(self):
        # Half the short query output is under the 64-token floor, but with
        # every build output cut to 64 tokens the prompt fits.
        outputs = [f"error {i}: " + "y" * 10_800 for i in range(3)]
        session = _session_with(feedback=[(f"FROM a\n# bad {i}\n", out) for i, out in enumerate(outputs)])
        prompt = assemble_prompt(session, budget_tokens=2000)
        assert len(prompt) // 4 <= 2000
        assert prompt.count(FEEDBACK_OUTPUT_LABEL + "\n" + "y" * 256) == 3
        assert "y" * 257 not in prompt
        assert session.query.dynamic_part in prompt  # shorter than the floor: kept whole


class TestGenerateRepair:
    """A generator response becomes a candidate through `parse_candidate`."""

    def test_fenced_repair_parses(self):
        doc = parse_candidate(fenced(ALPINE_PIP_REPAIRED))
        assert "RUN python3 -m venv venv" in doc.raw_text
        assert doc.stage_count == 1

    def test_prose_only_rejected(self):
        with pytest.raises(UnparseableResponse):
            parse_candidate("Just pin the base image and retry.")

    def test_fenced_without_from_rejected(self):
        with pytest.raises(UnparseableResponse):
            parse_candidate("```\nRUN echo hi\n```")

    def test_first_fence_wins(self):
        doc = parse_candidate("```dockerfile\nFROM first\n```\n```\nFROM second\n```")
        assert doc.raw_text == "FROM first\n"


class TestValidateRepair:
    def test_all_successes_confirm_repair(self, tmp_path):
        candidate = parse_dockerfile("FROM busybox\n# candidate\n")
        driver = driver_with_scripts({"candidate": [outcome(STATUS_SUCCESS)] * 2})
        session = _session_with()
        session.attempts_used = 1
        result = validate_repair(
            candidate, session, ValidationPolicy(), tmp_path, _engine(driver),
            HashingEmbeddingProvider(),
        )
        assert result.kind == "repair"
        assert len(result.records) == 2

    def test_two_similar_priors_reach_threshold(self, tmp_path):
        candidate = parse_dockerfile("FROM busybox\n# candidate\n")
        driver = driver_with_scripts(
            {"candidate": [outcome(STATUS_FAILURE, ERROR_TYPE_LOGS["X"], exit_code=1)]}
        )
        new_output = preprocess_log(ERROR_TYPE_LOGS["X"]).as_text()
        session = _session_with(
            feedback=[("FROM a\n# b1\n", new_output), ("FROM a\n# b2\n", new_output)]
        )
        session.attempts_used = 3
        result = validate_repair(
            candidate, session, ValidationPolicy(failure_threshold=3), tmp_path,
            _engine(driver), HashingEmbeddingProvider(),
        )
        assert result.kind == VERDICT_UNRESOLVED

    def test_dissimilar_failure_becomes_feedback(self, tmp_path):
        candidate = parse_dockerfile("FROM busybox\n# candidate\n")
        driver = driver_with_scripts(
            {"candidate": [outcome(STATUS_FAILURE, ERROR_TYPE_LOGS["Z"], exit_code=1)]}
        )
        x_output = preprocess_log(ERROR_TYPE_LOGS["X"]).as_text()
        session = _session_with(feedback=[("FROM a\n# b1\n", x_output)])
        session.attempts_used = 2
        result = validate_repair(
            candidate, session, ValidationPolicy(), tmp_path, _engine(driver),
            HashingEmbeddingProvider(),
        )
        assert result.kind == "feedback"
        assert len(session.feedback) == 2
        assert session.feedback[-1].false_repair == candidate.raw_text

    def test_engine_error_aborts_session(self, tmp_path):
        candidate = parse_dockerfile("FROM busybox\n# candidate\n")
        driver = driver_with_scripts({"candidate": [outcome("engine-error", "daemon gone")]})
        session = _session_with()
        session.attempts_used = 1
        result = validate_repair(
            candidate, session, ValidationPolicy(), tmp_path, _engine(driver),
            HashingEmbeddingProvider(),
        )
        assert result.kind == VERDICT_ENGINE_ABORTED
        assert session.verdict == VERDICT_ENGINE_ABORTED


# --- Algorithm-level oracle equivalence ---

PASS, FX, FY, FZ = "PASS", "X", "Y", "Z"
OUTCOMES = (PASS, FX, FY, FZ)


def transcribed_validation_algorithm(sequence, threshold=3):
    """Literal transcription of the validation loop contract.

    Build the candidate; if every build succeeds the repair stands. Otherwise
    count how often this error type has now been seen (prior feedback plus
    this occurrence); at the threshold give up, else record feedback.
    """
    feedback_types = []
    decisions = []
    for attempt_outcome in sequence:
        if attempt_outcome == PASS:  # allSuccessful(buildOutput)
            decisions.append("repair")
            break
        failures = 1 + sum(1 for t in feedback_types if t == attempt_outcome)
        if failures >= threshold:
            decisions.append("unresolved")
            break
        feedback_types.append(attempt_outcome)
        decisions.append("feedback")
    return decisions


def drive_validator(sequence, n, threshold=3, tmp_path=None):
    """Run the real validator over scripted per-candidate build outcomes."""
    policy = ValidationPolicy(
        build_iterations=n, failure_threshold=threshold,
        max_total_attempts=len(sequence) + 1,
    )
    scripts = {}
    candidates = []
    for k, attempt_outcome in enumerate(sequence, 1):
        marker = f"candidate-{k}"
        candidates.append(parse_dockerfile(f"FROM busybox\n# {marker}\nRUN step {k}\n"))
        if attempt_outcome == PASS:
            scripts[marker] = [outcome(STATUS_SUCCESS, "ok")] * n
        else:
            scripts[marker] = [
                outcome(STATUS_FAILURE, ERROR_TYPE_LOGS[attempt_outcome], exit_code=1)
            ]
    engine = _engine(driver_with_scripts(scripts))
    sentence = HashingEmbeddingProvider()
    session = _session_with()
    decisions = []
    for k, candidate in enumerate(candidates, 1):
        session.attempts_used = k
        result = validate_repair(
            candidate, session, policy, tmp_path, engine, sentence
        )
        decisions.append(
            "repair" if result.kind == "repair"
            else "unresolved" if result.kind == VERDICT_UNRESOLVED
            else "feedback"
        )
        if decisions[-1] != "feedback":
            break
    return decisions, session


class TestAlgorithmOracleEquivalence:
    @pytest.mark.parametrize("n", [1, 2])
    def test_all_sequences_up_to_five_attempts(self, n, tmp_path):
        checked = 0
        for length in range(1, 6):
            for sequence in itertools.product(OUTCOMES, repeat=length):
                expected = transcribed_validation_algorithm(sequence)
                actual, session = drive_validator(sequence, n, tmp_path=tmp_path)
                assert actual == expected, f"sequence {sequence} n={n}"
                assert len(session.feedback) == expected.count("feedback")
                checked += 1
        assert checked == 4 + 16 + 64 + 256 + 1024

    def test_threshold_three_stops_at_third_similar_failure(self, tmp_path):
        decisions, session = drive_validator((FX, FX, FX), n=2, threshold=3, tmp_path=tmp_path)
        assert decisions == ["feedback", "feedback", "unresolved"]
        assert session.attempts_used == 3

    def test_threshold_four_allows_a_fourth_attempt(self, tmp_path):
        decisions, _ = drive_validator((FX, FX, FX, FX), n=2, threshold=4, tmp_path=tmp_path)
        assert decisions == ["feedback", "feedback", "feedback", "unresolved"]


class TestFullPipeline:
    def test_one_shot_repair(self, base_doc, tmp_path):
        driver = driver_with_scripts(
            {
                None: [outcome(STATUS_FAILURE, ALPINE_PIP_LOG, exit_code=1)],
                "venv": [outcome(STATUS_SUCCESS, "built fine")] * 2,
            }
        )
        generator = ScriptedTextProvider([fenced(ALPINE_PIP_REPAIRED)])
        session = repair_flaky_dockerfile(
            base_doc, tmp_path, DemonstrationIndex([]), _providers(generator),
            ValidationPolicy(), _engine(driver),
        )
        assert session.verdict == VERDICT_REPAIRED
        assert session.attempts_used == 1
        assert session.final_dockerfile == ALPINE_PIP_REPAIRED

    def test_non_flaky_short_circuits(self, base_doc, tmp_path):
        driver = driver_for([outcome(STATUS_SUCCESS)] * 2)
        generator = ScriptedTextProvider(["never used"])
        session = repair_flaky_dockerfile(
            base_doc, tmp_path, DemonstrationIndex([]), _providers(generator),
            ValidationPolicy(), _engine(driver),
        )
        assert session.verdict == VERDICT_NON_FLAKY
        assert session.attempts_used == 0
        assert generator.prompts == []

    def test_triple_identical_failure_unresolved(self, base_doc, tmp_path):
        bad = "FROM busybox\n# candidate-bad\nRUN broken\n"
        driver = driver_with_scripts(
            {
                None: [outcome(STATUS_FAILURE, ALPINE_PIP_LOG, exit_code=1)],
                "candidate-bad": [outcome(STATUS_FAILURE, ERROR_TYPE_LOGS["X"], exit_code=1)],
            }
        )
        generator = ScriptedTextProvider([fenced(bad)])  # same candidate, repeated
        session = repair_flaky_dockerfile(
            base_doc, tmp_path, DemonstrationIndex([]), _providers(generator),
            ValidationPolicy(), _engine(driver),
        )
        assert session.verdict == VERDICT_UNRESOLVED
        assert session.attempts_used == 3
        assert len(session.feedback) == 2

    def test_two_bad_then_good_scenario(self, base_doc, tmp_path):
        session_dir = tmp_path / "session"
        cand_a = "FROM busybox\n# candidate-a\nRUN broken a\n"
        cand_b = "FROM busybox\n# candidate-b\nRUN broken b\n"
        cand_c = "FROM busybox\n# candidate-c\nRUN works\n"
        driver = driver_with_scripts(
            {
                None: [outcome(STATUS_FAILURE, ALPINE_PIP_LOG, exit_code=1)],
                "candidate-a": [outcome(STATUS_FAILURE, ERROR_TYPE_LOGS["X"], exit_code=1)],
                "candidate-b": [outcome(STATUS_FAILURE, ERROR_TYPE_LOGS["Y"], exit_code=1)],
                "candidate-c": [outcome(STATUS_SUCCESS, "clean build")] * 2,
            }
        )
        generator = ScriptedTextProvider([fenced(cand_a), fenced(cand_b), fenced(cand_c)])
        session = repair_flaky_dockerfile(
            base_doc, tmp_path / "ctx", DemonstrationIndex([]), _providers(generator),
            ValidationPolicy(), _engine(driver), session_dir=session_dir,
        )
        (tmp_path / "ctx").mkdir(exist_ok=True)
        assert session.verdict == VERDICT_REPAIRED
        assert session.attempts_used == 3
        assert [f.false_repair for f in session.feedback] == [cand_a, cand_b]
        assert [f.attempt_index for f in session.feedback] == [1, 2]

        third_prompt = (session_dir / "prompt-3.txt").read_text()
        first = third_prompt.index(FEEDBACK_HEADER.format(idx=1))
        second = third_prompt.index(FEEDBACK_HEADER.format(idx=2))
        assert first < second
        assert third_prompt.index("# candidate-a") < third_prompt.index("# candidate-b")

    def test_unparseable_response_counts_as_attempt(self, base_doc, tmp_path):
        driver = driver_with_scripts(
            {
                None: [outcome(STATUS_FAILURE, ALPINE_PIP_LOG, exit_code=1)],
                "venv": [outcome(STATUS_SUCCESS)] * 2,
            }
        )
        generator = ScriptedTextProvider(["no fence here, sorry", fenced(ALPINE_PIP_REPAIRED)])
        session = repair_flaky_dockerfile(
            base_doc, tmp_path, DemonstrationIndex([]), _providers(generator),
            ValidationPolicy(), _engine(driver),
        )
        assert session.verdict == VERDICT_REPAIRED
        assert session.attempts_used == 2
        assert session.feedback[0].failure_output == UNPARSEABLE_FEEDBACK

    def test_attempt_cap_terminates_fresh_error_types(self, base_doc, tmp_path):
        # X and Y alternate so no type ever reaches the threshold; the global
        # cap must still end the session.
        cand_a = "FROM busybox\n# candidate-a\nRUN a\n"
        cand_b = "FROM busybox\n# candidate-b\nRUN b\n"
        driver = driver_with_scripts(
            {
                None: [outcome(STATUS_FAILURE, ALPINE_PIP_LOG, exit_code=1)],
                "candidate-a": [outcome(STATUS_FAILURE, ERROR_TYPE_LOGS["X"], exit_code=1)],
                "candidate-b": [outcome(STATUS_FAILURE, ERROR_TYPE_LOGS["Y"], exit_code=1)],
            }
        )
        generator = ScriptedTextProvider([fenced(cand_a), fenced(cand_b)] * 2)
        session = repair_flaky_dockerfile(
            base_doc, tmp_path, DemonstrationIndex([]), _providers(generator),
            ValidationPolicy(max_total_attempts=4), _engine(driver),
        )
        assert session.verdict == VERDICT_UNRESOLVED
        assert session.attempts_used == 4

    def test_session_directory_layout(self, base_doc, tmp_path):
        session_dir = tmp_path / "session"
        driver = driver_with_scripts(
            {
                None: [outcome(STATUS_FAILURE, ALPINE_PIP_LOG, exit_code=1)],
                "venv": [outcome(STATUS_SUCCESS, "ok")] * 2,
            }
        )
        generator = ScriptedTextProvider([fenced(ALPINE_PIP_REPAIRED)])
        repair_flaky_dockerfile(
            base_doc, tmp_path, DemonstrationIndex([]), _providers(generator),
            ValidationPolicy(), _engine(driver), session_dir=session_dir,
        )
        assert sorted(p.name for p in session_dir.iterdir()) == [
            "builds.jsonl", "prompt-1.txt", "query.json", "response-1.txt", "verdict.json",
        ]
        # Detection's one failure, then attempt 1's builds, in one journal.
        detect_record, *payloads = read_lines(session_dir / "builds.jsonl")
        assert detect_record["status"] == "failure"
        assert detect_record["log"] == ALPINE_PIP_LOG
        assert detect_record["dockerfile_hash"] == base_doc.content_hash
        verdict = json.loads((session_dir / "verdict.json").read_text())
        assert verdict["verdict"] == VERDICT_REPAIRED
        assert verdict["attempts_used"] == 1
        # Verdict soundness: the persisted records of the final attempt show
        # n consecutive successes.
        assert len(payloads) == ValidationPolicy().build_iterations
        assert all(p["status"] == "success" for p in payloads)
        candidate_hash = parse_dockerfile(ALPINE_PIP_REPAIRED).content_hash
        assert [p["dockerfile_hash"] for p in payloads] == [candidate_hash] * len(payloads)

    def test_pipeline_is_replay_deterministic(self, base_doc, tmp_path):
        def run(where):
            driver = driver_with_scripts(
                {
                    None: [outcome(STATUS_FAILURE, ALPINE_PIP_LOG, exit_code=1)],
                    "candidate-a": [outcome(STATUS_FAILURE, ERROR_TYPE_LOGS["X"], exit_code=1)],
                    "venv": [outcome(STATUS_SUCCESS)] * 2,
                }
            )
            generator = ScriptedTextProvider(
                [fenced("FROM busybox\n# candidate-a\nRUN a\n"), fenced(ALPINE_PIP_REPAIRED)]
            )
            return repair_flaky_dockerfile(
                base_doc, where, DemonstrationIndex([]), _providers(generator),
                ValidationPolicy(), _engine(driver), session_dir=where / "s",
            )

        first = run(tmp_path / "run1")
        second = run(tmp_path / "run2")
        assert first.verdict == second.verdict == VERDICT_REPAIRED
        assert first.attempts_used == second.attempts_used
        assert (tmp_path / "run1" / "s" / "prompt-2.txt").read_text() == (
            tmp_path / "run2" / "s" / "prompt-2.txt"
        ).read_text()

    def test_retrieval_populates_examples_and_category_guess(self, base_doc, tmp_path, offline_provider):
        store = load_store(builtin_store_path(), offline_provider)
        driver = driver_with_scripts(
            {
                None: [outcome(STATUS_FAILURE, ALPINE_PIP_LOG, exit_code=1)],
                "venv": [outcome(STATUS_SUCCESS)] * 2,
            }
        )
        generator = ScriptedTextProvider([fenced(ALPINE_PIP_REPAIRED)])
        session = repair_flaky_dockerfile(
            base_doc, tmp_path, store, _providers(generator),
            ValidationPolicy(), _engine(driver),
        )
        assert len(session.retrieved) == 3
        # The store's own alpine/venv record is the nearest example.
        assert session.retrieved[0][0].id == "env-alpine-pip-venv"
        assert guess_category(session).value in {"ENV", "DEP", "CON", "SEC", "PMG", "FS", "MISC"}
        assert generator.prompts[0].count("### Example") == 3

    def test_detection_engine_error_yields_terminal_verdict(self, base_doc, tmp_path):
        driver = driver_for([outcome("engine-error", "daemon unreachable")])
        generator = ScriptedTextProvider(["never used"])
        session = repair_flaky_dockerfile(
            base_doc, tmp_path, DemonstrationIndex([]), _providers(generator),
            ValidationPolicy(), _engine(driver), session_dir=tmp_path / "s",
        )
        assert session.verdict == VERDICT_ENGINE_ABORTED
        assert json.loads((tmp_path / "s" / "verdict.json").read_text())["verdict"] == "engine-aborted"

    def test_no_generator_raises_before_any_build_or_session_dir(self, base_doc, tmp_path):
        driver = driver_for([outcome(STATUS_FAILURE, ALPINE_PIP_LOG, exit_code=1)])
        with pytest.raises(FlakiDockError, match="no generation provider configured"):
            repair_flaky_dockerfile(
                base_doc, tmp_path, DemonstrationIndex([]), _providers(),
                ValidationPolicy(), _engine(driver), session_dir=tmp_path / "s",
            )
        assert driver.builds_run == 0
        assert not (tmp_path / "s").exists()


class BrokenEmbedder(EmbeddingProvider):
    """The offline embedder's dim; every call fails as an unreachable endpoint does."""

    provider_id, dim = "broken", HashingEmbeddingProvider().dim

    def embed_values(self, text):
        raise ProviderUnavailable("embedding request failed: connection refused")


class GeneratorFailingAt(ScriptedTextProvider):
    """Scripted responses until call `fail_at`, which raises ProviderUnavailable."""

    def __init__(self, responses, fail_at):
        super().__init__(responses)
        self.fail_at = fail_at

    def generate(self, prompt):
        if len(self.prompts) + 1 == self.fail_at:
            raise ProviderUnavailable("generation request failed: 503 Service Unavailable")
        return super().generate(prompt)


class OwnGenerator(TextGenerationProvider):
    """A library caller's own generator: it returns one reply, unchecked."""

    provider_id = "own"

    def __init__(self, reply):
        self.reply = reply

    def generate(self, prompt):
        return self.reply


class TestProviderAbort:
    """A provider failure after detection ends the session as aborted-provider,
    with verdict.json and the feedback gathered so far."""

    def _run(self, base_doc, tmp_path, providers, store=None, session_dir="s"):
        driver = driver_with_scripts({None: [outcome(STATUS_FAILURE, ALPINE_PIP_LOG, exit_code=1)]})
        session = repair_flaky_dockerfile(
            base_doc, tmp_path, store or DemonstrationIndex([]), providers,
            ValidationPolicy(), _engine(driver), session_dir=session_dir and tmp_path / session_dir,
        )
        if session_dir is None:
            assert session.verdict == VERDICT_PROVIDER_ABORTED
            return session, None
        verdict = json.loads((tmp_path / "s" / "verdict.json").read_text())
        assert (verdict["verdict"], verdict["abort_reason"]) == (session.verdict, session.abort_reason)
        assert session.verdict == VERDICT_PROVIDER_ABORTED == "aborted-provider"
        return session, verdict

    def test_generator_failing_at_attempt_two(self, base_doc, tmp_path):
        generator = GeneratorFailingAt([fenced("FROM busybox\n# candidate-a\nRUN a\n")], fail_at=2)
        session, verdict = self._run(base_doc, tmp_path, _providers(generator))
        assert session.abort_reason == "generation request failed: 503 Service Unavailable"
        assert session.attempts_used == verdict["attempts_used"] == 1
        assert [e["attempt_index"] for e in verdict["feedback"]] == [1]
        assert "candidate-a" in verdict["feedback"][0]["false_repair"]
        assert FEEDBACK_HEADER.format(idx=1) in (tmp_path / "s" / "prompt-2.txt").read_text()
        assert not (tmp_path / "s" / "response-2.txt").exists()

    @pytest.mark.parametrize(
        "reply", [fenced("FROM \ud800\n"), None, fenced("FROM busybox\n").encode()],
        ids=["lone-surrogate", "none", "bytes"],
    )
    def test_reply_no_trail_can_hold(self, base_doc, tmp_path, reply):
        session, verdict = self._run(base_doc, tmp_path, _providers(OwnGenerator(reply)))
        assert session.abort_reason.startswith("unusable generator response: ")
        assert session.attempts_used == verdict["attempts_used"] == 0
        written = sorted(path.name for path in (tmp_path / "s").iterdir())
        assert written == ["builds.jsonl", "prompt-1.txt", "query.json", "verdict.json"]
        # Without a session directory the session ends the same way.
        unsaved, _ = self._run(base_doc, tmp_path, _providers(OwnGenerator(reply)), session_dir=None)
        assert (unsaved.abort_reason, unsaved.attempts_used) == (session.abort_reason, 0)

    def test_feedback_embedding_failure(self, base_doc, tmp_path, offline_provider):
        generator = ScriptedTextProvider([fenced("FROM busybox\n# candidate-a\nRUN a\n")])
        providers = ProviderSet(offline_provider, BrokenEmbedder(), generator)
        session, verdict = self._run(base_doc, tmp_path, providers)
        assert session.abort_reason == "embedding request failed: connection refused"
        assert (session.attempts_used, verdict["feedback"]) == (1, [])

    def test_retrieval_embedding_failure(self, base_doc, tmp_path, offline_provider):
        store = load_store(builtin_store_path(), offline_provider)
        generator = ScriptedTextProvider(["never used"])
        providers = ProviderSet(BrokenEmbedder(), offline_provider, generator)
        session, verdict = self._run(base_doc, tmp_path, providers, store)
        assert session.abort_reason == "embedding request failed: connection refused"
        assert (session.attempts_used, generator.prompts) == (0, [])
        assert not (tmp_path / "s" / "query.json").exists()


class CountingEmbedder(EmbeddingProvider):
    """The offline embedder, counting its calls per text."""

    def __init__(self):
        self.inner = HashingEmbeddingProvider()
        self.provider_id, self.dim = self.inner.provider_id, self.inner.dim
        self.calls: Counter[str] = Counter()

    def embed_values(self, text):
        self.calls[text] += 1
        return self.inner.embed_values(text)


def _similar_failures(count: int) -> list[str]:
    """Distinct failure logs from one template: each pair scores above the 0.90 threshold."""
    return [CLUSTER_TEMPLATES[0].format(a=k, b=k + 1, c=k + 2) for k in range(1, count + 1)]


class TestEmbeddingCalls:
    """A session embeds its query once and each failure output once, when it is seen."""

    @pytest.mark.parametrize(
        "failure_logs, verdict, sentence_calls",
        [
            (template_outputs(10), VERDICT_UNRESOLVED, 10),  # mutually dissimilar, to the cap
            (_similar_failures(3), VERDICT_UNRESOLVED, 3),  # the third reaches T = 3
            ([None], VERDICT_REPAIRED, 1),  # an unparseable response, then a pass
        ],
        ids=["ten-dissimilar", "three-similar", "unparseable-then-pass"],
    )
    def test_each_text_embedded_once(self, base_doc, tmp_path, failure_logs, verdict, sentence_calls):
        scripts = {
            None: [outcome(STATUS_FAILURE, ALPINE_PIP_LOG, exit_code=1)],
            "venv": [outcome(STATUS_SUCCESS)] * 2,
        }
        responses = []
        for k, log in enumerate(failure_logs):
            if log is None:
                responses.append("no fence here, sorry")
                continue
            marker = f"candidate-{chr(ord('a') + k)}"
            scripts[marker] = [outcome(STATUS_FAILURE, log, exit_code=1)]
            responses.append(fenced(f"FROM busybox\n# {marker}\nRUN step {k}\n"))
        responses.append(fenced(ALPINE_PIP_REPAIRED))
        store = load_store(builtin_store_path(), HashingEmbeddingProvider())
        query, sentence = CountingEmbedder(), CountingEmbedder()
        session = repair_flaky_dockerfile(
            base_doc, tmp_path, store, ProviderSet(query, sentence, ScriptedTextProvider(responses)),
            ValidationPolicy(), _engine(driver_with_scripts(scripts)),
        )
        assert session.verdict == verdict
        assert session.attempts_used == len(failure_logs) + (verdict == VERDICT_REPAIRED)
        assert sum(query.calls.values()) == 1
        assert sum(sentence.calls.values()) == sentence_calls
        assert max(sentence.calls.values()) == 1
        reference = HashingEmbeddingProvider()
        for entry in session.feedback:
            expected = embed(entry.failure_output, reference)
            assert entry.vector.dtype == expected.dtype == np.float32
            assert entry.vector.tobytes() == expected.tobytes()


class TestGuessCategory:
    """The majority major category of the retrieved records; a tie goes to the most similar."""

    @pytest.fixture
    def records(self, offline_provider):
        return load_store(builtin_store_path(), offline_provider).records

    def test_three_way_tie_goes_to_the_most_similar(self, records):
        session = _session_with(retrieved=[(records[i], 0.9 - i * 0.1) for i in (2, 0, 1)])
        assert [r.category.major.value for r, _ in session.retrieved] == ["CON", "ENV", "DEP"]
        assert guess_category(session).value == "CON"

    def test_majority_behind_the_first_record(self, records):
        dep_again = dataclasses.replace(records[1], id="dep-again")
        session = _session_with(retrieved=[(records[0], 0.9), (records[1], 0.8), (dep_again, 0.7)])
        assert guess_category(session).value == "DEP"

    def test_nothing_retrieved_is_misc(self):
        assert guess_category(_session_with()).value == "MISC"


def test_validate_repair_ends_the_session_repaired(tmp_path):
    candidate = parse_dockerfile("FROM busybox\n# candidate\n")
    driver = driver_with_scripts({"candidate": [outcome(STATUS_SUCCESS)] * 2})
    session = _session_with()
    session.attempts_used = 1
    validate_repair(
        candidate, session, ValidationPolicy(), tmp_path, _engine(driver), HashingEmbeddingProvider(),
    )
    assert session.verdict == VERDICT_REPAIRED
    assert session.final_dockerfile == candidate.raw_text


def test_a_step_by_step_session_journals_each_candidate_under_its_session(base_doc, tmp_path):
    candidate = parse_dockerfile("FROM busybox\n# candidate\n")
    driver = driver_with_scripts({
        "candidate": [outcome(STATUS_SUCCESS)] * 2,
        None: [outcome(STATUS_FAILURE, ALPINE_PIP_LOG, exit_code=1)],
    })
    engine = BuildEngine(driver, HygienePolicy(), state_dir=tmp_path / "state")
    session_dir = tmp_path / "session"
    session = start_session(base_doc, tmp_path, DemonstrationIndex([]), _providers(), ValidationPolicy(), engine,
                            session_dir=session_dir)
    session.attempts_used = 1  # one reply, as a full run counts it
    validate_repair(candidate, session, ValidationPolicy(), tmp_path, engine, HashingEmbeddingProvider())
    assert session.verdict == VERDICT_REPAIRED
    detect_record, *journal = read_lines(session_dir / "builds.jsonl")
    assert (detect_record["dockerfile_hash"], detect_record["status"]) == (base_doc.content_hash, "failure")
    assert [record["dockerfile_hash"] for record in journal] == [candidate.content_hash] * 2
    assert not (tmp_path / "state" / "builds").exists()


_CAND_A = "FROM busybox\n# candidate-a\nRUN a\n"
_CAND_B = "FROM busybox\n# candidate-b\nRUN b\n"
_FAIL_DETECT = [outcome(STATUS_FAILURE, ALPINE_PIP_LOG, exit_code=1)]
_FAIL_X = [outcome(STATUS_FAILURE, ERROR_TYPE_LOGS["X"], exit_code=1)]
_FAIL_Y = [outcome(STATUS_FAILURE, ERROR_TYPE_LOGS["Y"], exit_code=1)]
_SESSION_ENDS = {
    # case: (build scripts, generator responses, generator call that fails,
    #        broken query embedder, attempt cap, verdict, abort_reason)
    "non-flaky": (
        {None: [outcome(STATUS_SUCCESS)] * 2}, ["never used"], None, False, 10, VERDICT_NON_FLAKY, None,
    ),
    "engine-error-in-detection": (
        {None: [outcome("engine-error", "daemon unreachable")]}, ["never used"], None, False, 10,
        VERDICT_ENGINE_ABORTED, "daemon unreachable",
    ),
    "provider-failure-in-retrieval": (
        {None: _FAIL_DETECT}, ["never used"], None, True, 10,
        VERDICT_PROVIDER_ABORTED, "embedding request failed: connection refused",
    ),
    "repaired": (
        {None: _FAIL_DETECT, "venv": [outcome(STATUS_SUCCESS)] * 2},
        [fenced(ALPINE_PIP_REPAIRED)], None, False, 10, VERDICT_REPAIRED, None,
    ),
    "unresolved-by-T": (
        {None: _FAIL_DETECT, "candidate-a": _FAIL_X}, [fenced(_CAND_A)] * 3, None, False, 10,
        VERDICT_UNRESOLVED, None,
    ),
    "unresolved-by-attempt-cap": (
        {None: _FAIL_DETECT, "candidate-a": _FAIL_X, "candidate-b": _FAIL_Y},
        [fenced(_CAND_A), fenced(_CAND_B)] * 2, None, False, 4, VERDICT_UNRESOLVED, None,
    ),
    "engine-error-in-validation": (
        {None: _FAIL_DETECT, "candidate-a": [outcome("engine-error", "disk full")]},
        [fenced(_CAND_A)], None, False, 10, VERDICT_ENGINE_ABORTED, "disk full",
    ),
    "generator-failure-at-attempt-2": (
        {None: _FAIL_DETECT, "candidate-a": _FAIL_X}, [fenced(_CAND_A)], 2, False, 10,
        VERDICT_PROVIDER_ABORTED, "generation request failed: 503 Service Unavailable",
    ),
}


@pytest.mark.parametrize("case", list(_SESSION_ENDS))
def test_every_session_end_writes_verdict_json_once(base_doc, tmp_path, offline_provider, monkeypatch, case):
    scripts, responses, fail_at, broken_query, cap, verdict, abort_reason = _SESSION_ENDS[case]
    written = []

    def counting_replacing(path):
        written.append(path.name)
        return replacing(path)

    monkeypatch.setattr(repair_pipeline, "replacing", counting_replacing)
    generator = GeneratorFailingAt(responses, fail_at) if fail_at else ScriptedTextProvider(responses)
    providers = ProviderSet(BrokenEmbedder() if broken_query else offline_provider, offline_provider, generator)
    session = repair_flaky_dockerfile(
        base_doc, tmp_path, load_store(builtin_store_path(), offline_provider), providers,
        ValidationPolicy(max_total_attempts=cap), _engine(driver_with_scripts(scripts)),
        session_dir=tmp_path / "s",
    )
    assert (session.verdict, session.abort_reason) == (verdict, abort_reason)
    assert written.count("verdict.json") == 1
    saved = json.loads((tmp_path / "s" / "verdict.json").read_text())
    assert (saved["verdict"], saved["abort_reason"]) == (verdict, abort_reason)


def test_prompt_over_budget_ends_the_session_keeping_its_feedback(base_doc, tmp_path, offline_provider):
    # Attempt 1's prompt fits; attempt 2's carries the rejected candidate in
    # full, which no cut of the build outputs brings under the budget.
    long_candidate = "FROM busybox\n# candidate-a " + "x" * 16000 + "\nRUN a\n"
    providers = ProviderSet(offline_provider, offline_provider, ScriptedTextProvider([fenced(long_candidate)]))
    session = repair_flaky_dockerfile(
        base_doc, tmp_path, load_store(builtin_store_path(), offline_provider), providers, ValidationPolicy(),
        _engine(driver_with_scripts({None: _FAIL_DETECT, "candidate-a": _FAIL_X})),
        session_dir=tmp_path / "s", prompt_budget=3000,
    )
    assert session.verdict == VERDICT_BUDGET_ABORTED == "aborted-budget"
    assert session.abort_reason.startswith("prompt exceeds the 3000-token budget")
    assert [entry.false_repair for entry in session.feedback] == [long_candidate]
    saved = json.loads((tmp_path / "s" / "verdict.json").read_text())
    assert (saved["verdict"], saved["abort_reason"], saved["attempts_used"]) == (
        "aborted-budget", session.abort_reason, 1,
    )
    assert [entry["false_repair"] for entry in saved["feedback"]] == [long_candidate]
    assert not (tmp_path / "s" / "prompt-2.txt").exists()


_SPLIT_ENDS = {
    # case: (build scripts, replies in attempt order, attempt cap, verdict,
    #        the validations' outcome kinds)
    "non-flaky": ({None: [outcome(STATUS_SUCCESS)] * 2}, [], 10, VERDICT_NON_FLAKY, []),
    "repaired-after-feedback": (
        {None: _FAIL_DETECT, "candidate-a": [outcome(STATUS_SUCCESS)] + _FAIL_X,
         "venv": [outcome(STATUS_SUCCESS)] * 2},
        [fenced(_CAND_A), fenced(ALPINE_PIP_REPAIRED)], 10, VERDICT_REPAIRED, ["feedback", "repair"],
    ),
    "unresolved-by-T": (
        {None: _FAIL_DETECT, "candidate-a": _FAIL_X}, [fenced(_CAND_A)] * 3, 10, VERDICT_UNRESOLVED,
        ["feedback", "feedback", VERDICT_UNRESOLVED],
    ),
    # The cap is the caller's to apply: `repair_flaky_dockerfile` ends this
    # session `unresolved` without another build.
    "unresolved-by-attempt-cap": (
        {None: _FAIL_DETECT, "candidate-a": _FAIL_X, "candidate-b": _FAIL_Y},
        [fenced(_CAND_A), fenced(_CAND_B)] * 3, 4, VERDICT_IN_PROGRESS, ["feedback"] * 4,
    ),
    "unparseable-between-candidates": (
        {None: _FAIL_DETECT, "candidate-a": _FAIL_X, "venv": [outcome(STATUS_SUCCESS)] * 2},
        [fenced(_CAND_A), "no fence here, sorry", fenced(ALPINE_PIP_REPAIRED)], 10, VERDICT_REPAIRED,
        ["feedback", "repair"],
    ),
    "engine-aborted-in-validation": (
        {None: _FAIL_DETECT, "candidate-a": [outcome(STATUS_SUCCESS), outcome("engine-error", "disk full")]},
        [fenced(_CAND_A)], 10, VERDICT_ENGINE_ABORTED, [VERDICT_ENGINE_ABORTED],
    ),
}


@pytest.mark.parametrize("case", list(_SPLIT_ENDS))
def test_splitting_the_session_journal_gives_back_each_series(base_doc, tmp_path, monkeypatch, case):
    scripts, replies, cap, verdict, kinds = _SPLIT_ENDS[case]
    policy, sentence = ValidationPolicy(max_total_attempts=cap), HashingEmbeddingProvider()
    engine = BuildEngine(driver_with_scripts(scripts), HygienePolicy(), state_dir=tmp_path / "state")
    detections = []

    def recording_detect(*args):
        detections.append(detect_flakiness(*args))
        return detections[-1]

    with monkeypatch.context() as patched:
        patched.setattr(repair_pipeline, "detect_flakiness", recording_detect)
        session = start_session(base_doc, tmp_path, DemonstrationIndex([]), _providers(), policy, engine,
                                session_dir=tmp_path / "s")
    series, outcomes = [detections[0].records], []
    for reply in replies:  # the full loop's steps, one reply per attempt
        if session.verdict != VERDICT_IN_PROGRESS or session.attempts_used == cap:
            break
        session.attempts_used += 1
        try:
            candidate = parse_candidate(reply)
        except UnparseableResponse:
            session.add_feedback(reply, UNPARSEABLE_FEEDBACK, embed(UNPARSEABLE_FEEDBACK, sentence))
            continue
        result = validate_repair(candidate, session, policy, tmp_path, engine, sentence)
        outcomes.append(result.kind)
        series.append(result.records)
    assert (session.verdict, outcomes) == (verdict, kinds)
    journal = read_lines(tmp_path / "s" / "builds.jsonl")
    assert split_series(journal) == [[reference_journal_line(record) for record in records] for records in series]
    assert not (tmp_path / "state").exists()


def test_a_step_by_step_session_stopped_at_the_cap_ends_unresolved_as_a_full_run_does(base_doc, tmp_path):
    scripts = {None: _FAIL_DETECT, "candidate-a": _FAIL_X, "candidate-b": _FAIL_Y}
    replies, policy = [fenced(_CAND_A), fenced(_CAND_B)] * 2, ValidationPolicy(max_total_attempts=4)
    full = repair_flaky_dockerfile(
        base_doc, tmp_path, DemonstrationIndex([]), _providers(ScriptedTextProvider(replies)), policy,
        _engine(driver_with_scripts(scripts)), session_dir=tmp_path / "full",
    )
    assert (full.verdict, full.attempts_used) == (VERDICT_UNRESOLVED, 4)
    engine = _engine(driver_with_scripts(scripts))
    session = start_session(base_doc, tmp_path, DemonstrationIndex([]), _providers(), policy, engine,
                            session_dir=tmp_path / "steps")
    for reply in replies:
        session.attempts_used += 1
        validate_repair(parse_candidate(reply), session, policy, tmp_path, engine, HashingEmbeddingProvider())
    assert (session.verdict, session.attempts_used) == (VERDICT_IN_PROGRESS, policy.max_total_attempts)
    assert not (tmp_path / "steps" / "verdict.json").exists()
    end_session(session, VERDICT_UNRESOLVED)
    saved = json.loads((tmp_path / "steps" / "verdict.json").read_text())
    assert (saved["verdict"], saved["attempts_used"], len(saved["feedback"])) == (VERDICT_UNRESOLVED, 4, 4)
    assert saved == json.loads((tmp_path / "full" / "verdict.json").read_text())


@pytest.mark.parametrize("verdict", [VERDICT_IN_PROGRESS, "done"])
def test_end_session_refuses_a_verdict_that_is_not_terminal(verdict):
    session = RepairSession(query=RepairQuery.build("FROM busybox\n", ""))
    with pytest.raises(ValueError, match="as"):
        end_session(session, verdict)
    assert session.verdict == VERDICT_IN_PROGRESS


def test_end_session_refuses_a_session_that_already_ended(tmp_path):
    session = RepairSession(query=RepairQuery.build("FROM busybox\n", ""), session_dir=tmp_path)
    end_session(session, VERDICT_UNRESOLVED)
    with pytest.raises(ValueError, match="unresolved"):
        end_session(session, VERDICT_REPAIRED)
    assert json.loads((tmp_path / "verdict.json").read_text())["verdict"] == VERDICT_UNRESOLVED


def test_a_session_directory_holds_no_directory(base_doc, tmp_path):
    driver = driver_with_scripts({None: _FAIL_DETECT, "candidate-a": _FAIL_X, "venv": [outcome(STATUS_SUCCESS)] * 2})
    generator = ScriptedTextProvider([fenced(_CAND_A), "no fence here, sorry", fenced(ALPINE_PIP_REPAIRED)])
    session_dir = tmp_path / "s"
    session = repair_flaky_dockerfile(
        base_doc, tmp_path, DemonstrationIndex([]), _providers(generator), ValidationPolicy(), _engine(driver),
        session_dir=session_dir,
    )
    assert (session.verdict, session.attempts_used) == (VERDICT_REPAIRED, 3)
    assert sorted(path.name for path in session_dir.iterdir()) == [
        "builds.jsonl", "prompt-1.txt", "prompt-2.txt", "prompt-3.txt", "query.json",
        "response-1.txt", "response-2.txt", "response-3.txt", "verdict.json",
    ]
    assert not any(path.is_dir() for path in session_dir.iterdir())
    statuses = [record["status"] for record in read_lines(session_dir / "builds.jsonl")]
    assert statuses == ["failure", "failure", "success", "success"]
