"""Acceptance suite: one test per release criterion, offline and scripted.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion. The live smoke criterion only runs when a real engine and
generation provider are configured (FLAKIDOCK_LIVE_SMOKE=1).
"""

from __future__ import annotations

import itertools
import os
import random
import time

import pytest

from flakidock.build_engine import (
    STATUS_FAILURE,
    STATUS_SUCCESS,
    BuildEngine,
    HygienePolicy,
)
from flakidock.demo_store import (
    DemonstrationIndex,
    DemonstrationRecord,
    FlakinessCategory,
    MajorCategory,
    category_stats,
    load_store,
    save_store,
)
from flakidock.dockerfile_model import parse_dockerfile
from flakidock.log_preprocess import preprocess_log
from flakidock.providers import HashingEmbeddingProvider, ScriptedTextProvider
from flakidock.repair_pipeline import (
    FEEDBACK_HEADER,
    VERDICT_REPAIRED,
    ProviderSet,
    ValidationPolicy,
    detect_flakiness,
    repair_flaky_dockerfile,
)
from flakidock.similarity import RepairQuery, cluster_add, cosine, embed, retrieve_top_k

from support import (
    ALPINE_PIP,
    ALPINE_PIP_LOG,
    ALPINE_PIP_REPAIRED,
    ERROR_TYPE_LOGS,
    GOLANG_TWO_STAGE,
    driver_for,
    driver_with_scripts,
    fenced,
    outcome,
    template_outputs,
)
from test_repair_pipeline import (
    OUTCOMES,
    drive_validator,
    transcribed_validation_algorithm,
)


def _report(number: int, text: str) -> None:
    print(f"\n[acceptance] PASS criterion {number}: {text}")


def _engine(driver):
    return BuildEngine(driver, HygienePolicy())


def test_criterion_01_validator_matches_transcribed_algorithm(tmp_path):
    start = time.perf_counter()
    checked = 0
    for n in (1, 2):
        for length in range(1, 6):
            for sequence in itertools.product(OUTCOMES, repeat=length):
                expected = transcribed_validation_algorithm(sequence)
                actual, _ = drive_validator(sequence, n, tmp_path=tmp_path)
                assert actual == expected, f"disagreement on {sequence} (n={n})"
                checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 2 * (4 + 16 + 64 + 256 + 1024)
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f}s"
    _report(1, f"validator agrees with the transcribed algorithm on {checked} scripted sequences in {elapsed:.2f}s")


def test_criterion_02_failure_threshold_behavior(tmp_path):
    decisions, session = drive_validator(("X", "X", "X"), n=2, threshold=3, tmp_path=tmp_path)
    assert decisions == ["feedback", "feedback", "unresolved"]
    assert session.attempts_used == 3

    decisions, session = drive_validator(("X", "X", "X", "X"), n=2, threshold=4, tmp_path=tmp_path)
    assert decisions[:3] == ["feedback", "feedback", "feedback"]
    assert session.attempts_used == 4  # the fourth attempt actually ran
    _report(2, "T=3 stops at the third similar failure; T=4 allows a fourth attempt")


def test_criterion_03_detection_contract(tmp_path):
    doc = parse_dockerfile(ALPINE_PIP)
    policy = ValidationPolicy(build_iterations=2)
    for script in itertools.product([STATUS_SUCCESS, STATUS_FAILURE], repeat=2):
        driver = driver_for(
            [outcome(s, "log", exit_code=None if s == STATUS_SUCCESS else 1) for s in script]
        )
        detection = detect_flakiness(doc, tmp_path, _engine(driver), policy)
        expected_flaky = script != (STATUS_SUCCESS, STATUS_SUCCESS)
        assert detection.flaky == expected_flaky, script
    _report(3, "across all 2^2 outcome scripts only success-success is non-flaky")


def test_criterion_04_preprocessor_keeps_error_lines_and_compresses():
    lines = ALPINE_PIP_LOG.splitlines()
    anchor = lines.index("(2/27) Installing libexpat (2.6.0-r0)")
    padding = [f"({k}/27) Installing pkg-{k} (1.0.{k}-r0)" for k in range(3, 3 + (200 - len(lines)))]
    padded = "\n".join(lines[: anchor + 1] + padding + lines[anchor + 1:])
    assert len(padded.splitlines()) == 200

    result = preprocess_log(padded)
    text = result.as_text()
    assert "error: externally-managed-environment" in text
    assert (
        'ERROR: process "/bin/sh -c pip3 install -r requirements.txt" '
        "did not complete successfully: exit code: 1" in text
    )
    assert result.total_lines_in == 200
    assert result.total_lines_out <= 0.3 * result.total_lines_in
    _report(4, f"excerpt keeps both error lines at {result.total_lines_out}/200 lines")


def test_criterion_05_retrieval_equals_brute_force_at_scale(offline_provider):
    index = DemonstrationIndex([])
    for i in range(1000):
        index.add(
            DemonstrationRecord(
                id=f"rec-{i:04d}",
                static_part=f"FROM busybox\nRUN task-{i % 37}\n",
                dynamic_part=(
                    f"step {i % 17} emitted error {['alpha', 'beta', 'gamma', 'delta'][i % 4]} "
                    f"code {i * 7 % 113}"
                ),
                category=FlakinessCategory(MajorCategory.MISC),
                repairs=(f"FROM busybox\nRUN task-{i % 37}-fixed\n",),
                iterations=(2,),
            ),
            offline_provider,
        )
    query = RepairQuery.build("FROM busybox\nRUN task-5\n", "step 5 emitted error beta code 35")

    start = time.perf_counter()
    results = retrieve_top_k(query, index, 3, offline_provider)
    elapsed = time.perf_counter() - start

    query_vec = embed(query.combined_text, offline_provider)
    brute = sorted(
        ((rec, cosine(row, query_vec)) for rec, row in zip(index.records, index.matrix)),
        key=lambda pair: (-pair[1], pair[0].id),
    )[:3]
    assert [r.id for r, _ in results] == [r.id for r, _ in brute]
    assert [s for _, s in results] == pytest.approx([s for _, s in brute])
    assert elapsed < 2.0
    _report(5, f"top-3 retrieval matches the brute-force ranking on 1000 records in {elapsed * 1000:.0f}ms")


def test_criterion_06_cluster_reduction_on_template_corpus(offline_provider):
    def run_once():
        state = []
        for i, text in enumerate(template_outputs(100, seed=42)):
            state, _ = cluster_add(state, f"out-{i}", embed(text, offline_provider), 0.8)
        return state

    first = run_once()
    second = run_once()
    assert 10 <= len(first) <= 13
    assert 1 - len(first) / 100 >= 0.87
    assert [c.member_ids for c in first] == [c.member_ids for c in second]  # deterministic
    _report(6, f"100 template outputs collapse to {len(first)} clusters (reduction {1 - len(first) / 100:.2f})")


def test_criterion_07_hygiene_cadence(tmp_path):
    doc = parse_dockerfile(ALPINE_PIP)
    for count in range(1, 13):
        driver = driver_for([outcome(STATUS_SUCCESS)])
        engine = BuildEngine(driver, HygienePolicy(clean_every=4))
        engine.run_build_series(doc, tmp_path, count)
        assert driver.cleanups == count // 4, f"count={count}"
    _report(7, "cleanup invocations equal floor(builds/4) for series of length 1-12")


def test_criterion_08_end_to_end_scripted_pipeline(tmp_path):
    start = time.perf_counter()
    doc = parse_dockerfile(ALPINE_PIP)
    cand_a = "FROM busybox\n# candidate-a\nRUN approach one\n"
    cand_b = "FROM busybox\n# candidate-b\nRUN approach two\n"
    cand_c = "FROM busybox\n# candidate-c\nRUN approach three\n"
    driver = driver_with_scripts(
        {
            None: [outcome(STATUS_FAILURE, ALPINE_PIP_LOG, exit_code=1)],
            "candidate-a": [outcome(STATUS_FAILURE, ERROR_TYPE_LOGS["X"], exit_code=1)],
            "candidate-b": [outcome(STATUS_FAILURE, ERROR_TYPE_LOGS["Y"], exit_code=1)],
            "candidate-c": [outcome(STATUS_SUCCESS, "clean")] * 2,
        }
    )
    offline = HashingEmbeddingProvider()
    providers = ProviderSet(
        offline, offline, ScriptedTextProvider([fenced(cand_a), fenced(cand_b), fenced(cand_c)])
    )
    session_dir = tmp_path / "session"
    session = repair_flaky_dockerfile(
        doc, tmp_path, DemonstrationIndex([]), providers, ValidationPolicy(),
        _engine(driver), session_dir=session_dir,
    )
    elapsed = time.perf_counter() - start

    assert session.verdict == VERDICT_REPAIRED
    assert len(session.feedback) == 2
    assert [f.false_repair for f in session.feedback] == [cand_a, cand_b]
    third_prompt = (session_dir / "prompt-3.txt").read_text()
    pos_one = third_prompt.index(FEEDBACK_HEADER.format(idx=1))
    pos_two = third_prompt.index(FEEDBACK_HEADER.format(idx=2))
    assert pos_one < pos_two
    assert third_prompt.index("# candidate-a") < third_prompt.index("# candidate-b")
    assert elapsed < 10.0
    _report(8, f"fail/fail/pass scenario repaired with ordered false demonstrations in {elapsed:.2f}s")


def test_criterion_09_round_trips_and_schema(tmp_path, offline_provider):
    corpus = _dockerfile_corpus()
    assert len(corpus) == 50
    for i, text in enumerate(corpus):
        if isinstance(text, bytes):
            doc = parse_dockerfile(text)
            assert doc.raw_text.encode() == text, f"corpus file {i}"
        else:
            assert parse_dockerfile(text).raw_text == text, f"corpus file {i}"

    index = DemonstrationIndex([])
    counts = {"DEP": 63, "CON": 6, "SEC": 9, "PMG": 8, "ENV": 10, "FS": 4}
    i = 0
    for major, count in counts.items():
        for _ in range(count):
            index.add(
                DemonstrationRecord(
                    id=f"rec-{i:03d}",
                    static_part=f"FROM busybox\nRUN job-{i}\n",
                    dynamic_part=f"error: job {i} failed",
                    category=FlakinessCategory(MajorCategory(major)),
                    repairs=(f"FROM busybox\nRUN job-{i}-fixed\n",),
                    iterations=(2,),
                ),
                offline_provider,
            )
            i += 1
    first = tmp_path / "a" / "records.jsonl"
    save_store(index, first)
    second = tmp_path / "b" / "records.jsonl"
    save_store(load_store(first), second)
    assert first.read_bytes() == second.read_bytes()

    stats = category_stats(load_store(first))
    assert stats[MajorCategory.DEP].count == 63
    assert stats[MajorCategory.DEP].fraction == pytest.approx(0.63)
    _report(9, "50-file parse corpus round-trips byte-identically; store round-trips; DEP=63/100")


def _dockerfile_corpus() -> list:
    """Two real fixtures plus 48 generated files covering awkward shapes."""
    rng = random.Random(1234)
    pool = [
        "FROM alpine:3.19\n",
        "FROM ubuntu:22.04 AS base\n",
        "RUN apt-get update && apt-get install -y curl\n",
        "RUN set -eux; \\\n    apk add --no-cache git; \\\n    git --version\n",
        "# pinned for reproducibility\n",
        "ENV LANG=C.UTF-8\n",
        "ARG VERSION=1.2.3\n",
        "COPY . /srv/app\n",
        "WORKDIR /srv/app\n",
        "EXPOSE 8080\n",
        "LABEL maintainer=\"build team\"\n",
        "ONBUILD RUN echo hi\n",
        "HEALTHCHECK CMD curl -f http://localhost/ || exit 1\n",
        "STOPSIGNAL SIGTERM\n",
        "weirdtoken and its arguments\n",
        "\n",
        "   \n",
        "USER 1000\n",
        "VOLUME [\"/data\"]\n",
        "CMD [\"./run\"]\n",
        "ENTRYPOINT [\"/bin/server\", \"--port\", \"8080\"]\n",
    ]
    corpus: list = [ALPINE_PIP, ALPINE_PIP_REPAIRED, GOLANG_TWO_STAGE]
    for i in range(45):
        lines = ["FROM scratch\n"] + rng.choices(pool, k=rng.randint(1, 14))
        text = "".join(lines)
        if i % 7 == 3:
            text = text.replace("\n", "\r\n")
        if i % 11 == 5:
            text = text.rstrip("\n")  # no trailing newline
        corpus.append(text)
    corpus.append(b"\xef\xbb\xbfFROM alpine:3.19\nRUN echo bom\n")
    corpus.append("from alpine\nrun lowercase keywords\n")
    return corpus


@pytest.mark.skipif(
    os.environ.get("FLAKIDOCK_LIVE_SMOKE") != "1",
    reason="live smoke requires a real engine and generation provider (FLAKIDOCK_LIVE_SMOKE=1)",
)
def test_criterion_10_live_smoke(tmp_path):
    """Optional, not CI-gated: exercise a real engine plus a real provider."""
    from flakidock.config import RunConfig

    config = RunConfig(
        state_dir=tmp_path / "state",
        driver="real",
        generation_provider="http",
        generation_url=os.environ["FLAKIDOCK_GENERATION_URL"],
        generation_model=os.environ.get("FLAKIDOCK_GENERATION_MODEL", "gpt-4"),
        timeout=float(os.environ.get("FLAKIDOCK_LIVE_TIMEOUT", "600")),
    )
    config.validate()
    context = tmp_path / "ctx"
    context.mkdir()
    broken = parse_dockerfile(
        "FROM ghcr.io/flakidock-smoke/does-not-exist:v0.0.1\nRUN echo unreachable\n"
    )
    session_dir = tmp_path / "state" / "sessions" / "smoke"
    session = repair_flaky_dockerfile(
        broken, context, DemonstrationIndex([]), config.providers,
        config.validation, config.engine, session_dir=session_dir,
    )
    assert session.verdict in {"repaired", "unresolved", "non-flaky", "engine-aborted"}
    assert session.attempts_used <= config.validation.max_total_attempts
    assert (session_dir / "verdict.json").exists()
    _report(10, f"live smoke reached terminal verdict {session.verdict!r} with a persisted session")
