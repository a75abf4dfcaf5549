"""End-to-end repair flow: detect, retrieve, generate, validate, feed back.

Detection builds the document n times and stops at the first failure.
The failing output is preprocessed and, together with the document text,
forms the retrieval query. Repair candidates come from the generation
provider and are validated by the same n-build detection as the original;
a flaky candidate becomes a false demonstration in the next prompt. When the
same failure keeps recurring (by sentence similarity of the preprocessed
outputs) the session gives up rather than looping on a dead end.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .build_engine import BuildEngine, BuildRecord
from .config import RunConfig, ValidationPolicy  # ValidationPolicy is re-exported: callers import it from here too
from .demo_store import (
    DYNAMIC_LABEL,
    STATIC_LABEL,
    DemonstrationIndex,
    DemonstrationRecord,
    MajorCategory,
)
from .dockerfile_model import DockerfileDoc, parse_dockerfile
from .durable import replacing
from .errors import (
    BudgetExhausted, DimensionMismatch, EngineError, FlakiDockError, ProviderUnavailable, UnparseableResponse
)
from .log_preprocess import RuleSet, excerpt_or_tail, preprocess_log
from .providers import (  # ProviderSet is re-exported: callers import it from here too
    EmbeddingProvider,
    ProviderSet,
    check_reply,
    estimate_tokens,
    truncate_to_tokens,
)
from .similarity import RepairQuery, cosine, embed, retrieve_top_k

if TYPE_CHECKING:
    import numpy as np

VERDICT_IN_PROGRESS = "in-progress"
VERDICT_REPAIRED = "repaired"
VERDICT_UNRESOLVED = "unresolved"
VERDICT_NON_FLAKY = "non-flaky"
VERDICT_ENGINE_ABORTED = "engine-aborted"
VERDICT_PROVIDER_ABORTED = "aborted-provider"
VERDICT_BUDGET_ABORTED = "aborted-budget"

UNPARSEABLE_FEEDBACK = "provider returned unparseable repair"


@dataclass(frozen=True)
class FeedbackEntry:
    false_repair: str  # candidate that failed validation
    failure_output: str  # its preprocessed failing build output
    attempt_index: int
    vector: np.ndarray = field(repr=False, compare=False)  # failure_output's sentence embedding


@dataclass
class RepairSession:
    query: RepairQuery
    retrieved: list[tuple[DemonstrationRecord, float]] = field(default_factory=list)
    feedback: list[FeedbackEntry] = field(default_factory=list)
    verdict: str = VERDICT_IN_PROGRESS
    final_dockerfile: str | None = None
    attempts_used: int = 0
    session_dir: Path | None = None
    abort_reason: str | None = None  # the engine's, provider's or budget's message, for an aborted session
    repaired_path: Path | None = None  # where a `repaired` ending writes final_dockerfile

    def add_feedback(self, false_repair: str, failure_output: str, vector: np.ndarray) -> None:
        if self.feedback and self.attempts_used <= self.feedback[-1].attempt_index:
            raise ValueError("feedback attempt indices must strictly increase")
        self.feedback.append(
            FeedbackEntry(false_repair, failure_output, self.attempts_used, vector)
        )


@dataclass(frozen=True)
class Detection:
    records: list[BuildRecord]
    failure_text: str | None  # the failed build's excerpt, else its tail; None when all succeeded

    @property
    def flaky(self) -> bool:
        return self.failure_text is not None


def detect_flakiness(
    doc: DockerfileDoc,
    context_dir,
    engine: BuildEngine,
    policy: ValidationPolicy,
    rules: RuleSet | None = None,
    persist_dir: Path | None = None,
) -> Detection:
    """Non-flaky only when all n builds succeed; stops at the first failure,
    whose log is preprocessed with `rules` (the default set when None)."""
    records = engine.run_build_series(
        doc,
        context_dir,
        policy.build_iterations,
        stop_on_failure=True,
        persist_dir=persist_dir,
    )
    log = next((r.log for r in records if not r.succeeded), None)
    failure_text = None if log is None else excerpt_or_tail(log, preprocess_log(log, rules))
    return Detection(records, failure_text)


# --- prompt assembly ---

TASK_DESCRIPTION = """\
You are repairing a flaky Dockerfile: one whose builds alternate between
success and failure over time although neither the file nor the project
source changed. Using the build output below, produce a corrected
Dockerfile that builds reliably. Respond with the complete repaired
Dockerfile in a single fenced code block and nothing else."""

COT_GUIDANCE = """\
Reason step by step before writing the file:
1. Locate the instruction whose stage failed in the build output.
2. Identify what changed underneath the build (base image contents,
   package availability, protocol or environment requirements).
3. Decide the smallest edit that removes the failure without pinning the
   build to an outdated or vulnerable state.
4. Re-check that every other instruction still works after your edit."""

EXAMPLE_HEADER = "### Example {idx} (similarity {sim:.2f})"
QUERY_HEADER = "### Flaky Dockerfile (repair this one)"
FEEDBACK_HEADER = "### Failed attempt {idx} (false demonstration - do not repeat it)"
REPAIR_LABEL = "--- REPAIR ---"
REJECTED_LABEL = "--- REJECTED DOCKERFILE ---"
FEEDBACK_OUTPUT_LABEL = "--- ITS BUILD OUTPUT ---"

_MIN_DYNAMIC_TOKENS = 64


def _render_prompt(
    session: RepairSession,
    examples: list[tuple[DemonstrationRecord, float]],
    dynamic_budget: int | None,
) -> str:
    def clip(text: str) -> str:
        if dynamic_budget is None:
            return text
        return truncate_to_tokens(text, dynamic_budget)

    blocks = [TASK_DESCRIPTION, COT_GUIDANCE]
    for idx, (record, sim) in enumerate(examples, start=1):
        parts = [
            EXAMPLE_HEADER.format(idx=idx, sim=sim),
            STATIC_LABEL,
            record.static_part,
            DYNAMIC_LABEL,
            clip(record.dynamic_part),
        ]
        for pos, repair in enumerate(record.repairs):
            parts.append(REPAIR_LABEL if pos == 0 else f"--- REPAIR (alternative {pos + 1}) ---")
            parts.append(repair)
        blocks.append("\n".join(parts))
    blocks.append(
        "\n".join(
            [
                QUERY_HEADER,
                STATIC_LABEL,
                session.query.static_part,
                DYNAMIC_LABEL,
                clip(session.query.dynamic_part),
            ]
        )
    )
    for idx, entry in enumerate(session.feedback, start=1):
        blocks.append(
            "\n".join(
                [
                    FEEDBACK_HEADER.format(idx=idx),
                    REJECTED_LABEL,
                    entry.false_repair,
                    FEEDBACK_OUTPUT_LABEL,
                    clip(entry.failure_output),
                ]
            )
        )
    return "\n\n".join(blocks)


def assemble_prompt(session: RepairSession, budget_tokens: int = RunConfig.prompt_budget) -> str:
    """Build the generation prompt within the provider context budget.

    Over budget, the lowest-similarity examples are dropped first, then all
    build-output texts are cut to their last part in halving steps, from half
    the query's, which keeps the final error lines. The steps stop at 64
    tokens: if the prompt does not fit with every output cut to that,
    BudgetExhausted is raised.
    """
    examples = list(session.retrieved)
    prompt = _render_prompt(session, examples, None)
    while estimate_tokens(prompt) > budget_tokens and examples:
        examples.pop()  # retrieved is sorted by similarity, weakest last
        prompt = _render_prompt(session, examples, None)
    dynamic_budget = None
    while estimate_tokens(prompt) > budget_tokens:
        if dynamic_budget == _MIN_DYNAMIC_TOKENS:
            raise BudgetExhausted(
                f"prompt exceeds the {budget_tokens}-token budget with every build output "
                f"cut to {_MIN_DYNAMIC_TOKENS} tokens"
            )
        last = estimate_tokens(session.query.dynamic_part) if dynamic_budget is None else dynamic_budget
        dynamic_budget = max(last // 2, _MIN_DYNAMIC_TOKENS)
        prompt = _render_prompt(session, examples, dynamic_budget)
    return prompt


# --- repair generation ---

_FENCE_RE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)


def parse_candidate(response: str) -> DockerfileDoc:
    """The first fenced code block of a response, which must be a buildable file."""
    match = _FENCE_RE.search(response)
    if not match:
        raise UnparseableResponse("response contains no fenced code block")
    body = match.group(1)
    try:
        doc = parse_dockerfile(body)
    except FlakiDockError as exc:
        raise UnparseableResponse(f"fenced block does not parse: {exc}") from exc
    if doc.stage_count < 1:
        raise UnparseableResponse("candidate has no FROM instruction")
    return doc


# --- validation ---

@dataclass(frozen=True)
class ValidationOutcome:
    kind: str  # "repair" | "feedback" | "unresolved" | "engine-aborted"
    records: list[BuildRecord]


def count_similar_failures(
    new_vec: np.ndarray,
    feedback: list[FeedbackEntry],
    threshold: float,
) -> int:
    """Similar prior failures, by their stored vectors, plus one for the new failure itself."""
    similar = sum(1 for entry in feedback if cosine(entry.vector, new_vec) >= threshold)
    return similar + 1


def validate_repair(
    candidate: DockerfileDoc,
    session: RepairSession,
    policy: ValidationPolicy,
    context_dir,
    engine: BuildEngine,
    sentence_provider: EmbeddingProvider,
    rules: RuleSet | None = None,
    persist_dir: Path | None = None,
) -> ValidationOutcome:
    """Decide repair / feedback / unresolved for one candidate.

    The candidate goes through `detect_flakiness`; a non-flaky one ends the
    session `repaired`, as its final Dockerfile. Otherwise the failing output
    is embedded once and compared against the feedback vectors: the T-th
    similar failure ends the session `unresolved`, else the candidate joins
    the feedback. An engine failure ends it `engine-aborted`.
    """
    if session.verdict != VERDICT_IN_PROGRESS:
        raise ValueError(f"session already terminal: {session.verdict}")
    with _ending(session) as aborted_builds:
        detection = detect_flakiness(candidate, context_dir, engine, policy, rules, persist_dir)
    if session.verdict == VERDICT_ENGINE_ABORTED:
        return ValidationOutcome(VERDICT_ENGINE_ABORTED, aborted_builds)
    if not detection.flaky:
        session.final_dockerfile = candidate.raw_text
        _end_session(session, VERDICT_REPAIRED)
        return ValidationOutcome("repair", detection.records)

    vector = embed(detection.failure_text, sentence_provider)
    failures = count_similar_failures(
        vector,
        session.feedback,
        policy.feedback_similarity_threshold,
    )
    if failures >= policy.failure_threshold:
        _end_session(session, VERDICT_UNRESOLVED)
        return ValidationOutcome(VERDICT_UNRESOLVED, detection.records)
    session.add_feedback(candidate.raw_text, detection.failure_text, vector)
    return ValidationOutcome("feedback", detection.records)


# --- full pipeline ---

def start_session(
    doc: DockerfileDoc,
    context_dir,
    store: DemonstrationIndex,
    providers: ProviderSet,
    policy: ValidationPolicy,
    engine: BuildEngine,
    *,
    retrieval_k: int = RunConfig.retrieval_k,
    rules: RuleSet | None = None,
    session_dir: Path | None = None,
) -> RepairSession:
    """Open a session: detect flakiness, build the query, retrieve examples.

    A non-flaky document, an engine failure or a provider failure in
    retrieval gives a terminal session, with verdict.json written under
    session_dir when given. Otherwise the session is in progress, its query
    and retrieved examples are set and query.json is written;
    `assemble_prompt` of it is the first attempt's prompt. A store of
    another dim than the query embedder raises DimensionMismatch before any
    build or file.
    """
    dim = providers.query_embedder.dim
    if len(store) and store.matrix.shape[1] != dim:
        raise DimensionMismatch(f"store dim {store.matrix.shape[1]} vs query dim {dim}")
    if session_dir is not None:
        session_dir = Path(session_dir)
        session_dir.mkdir(parents=True, exist_ok=True)
    builds_dir = None if session_dir is None else session_dir / "builds" / "detect"
    session = RepairSession(query=RepairQuery.build(doc.raw_text, ""), session_dir=session_dir)
    with _ending(session):
        detection = detect_flakiness(doc, context_dir, engine, policy, rules, builds_dir)
        if not detection.flaky:
            _end_session(session, VERDICT_NON_FLAKY)
            return session
        query = session.query = RepairQuery.build(doc.raw_text, detection.failure_text)
        session.retrieved = retrieve_top_k(query, store, retrieval_k, providers.query_embedder)
        payload = {"static_part": query.static_part, "dynamic_part": query.dynamic_part,
                   "retrieved": _retrieved(session)}
        _persist(session, "query.json", json.dumps(payload, indent=2, sort_keys=True))
    return session


def repair_flaky_dockerfile(
    doc: DockerfileDoc,
    context_dir,
    store: DemonstrationIndex,
    providers: ProviderSet,
    policy: ValidationPolicy,
    engine: BuildEngine,
    *,
    retrieval_k: int = RunConfig.retrieval_k,
    rules: RuleSet | None = None,
    session_dir: Path | None = None,
    prompt_budget: int = RunConfig.prompt_budget,
    repaired_path: Path | None = None,
) -> RepairSession:
    """Run detection, retrieval, and the generate-validate-feedback loop.

    Always returns a session with a terminal verdict; a provider that fails
    after detection ends it as aborted-provider, and a prompt that cannot fit
    prompt_budget as aborted-budget, keeping the feedback so far.
    Every prompt, response, and build log is persisted under session_dir when
    given, so a session can be audited or replayed offline. A `repaired`
    session writes its final Dockerfile to repaired_path, when given, before
    verdict.json, so a verdict that says `repaired` has its file. Without a
    generator it raises `FlakiDockError` before any build, and before
    session_dir is made.
    """
    if providers.generator is None:
        raise FlakiDockError("no generation provider configured (set generation_provider)")
    session = start_session(
        doc,
        context_dir,
        store,
        providers,
        policy,
        engine,
        retrieval_k=retrieval_k,
        rules=rules,
        session_dir=session_dir,
    )
    session_dir = session.session_dir
    session.repaired_path = repaired_path

    with _ending(session):
        while session.verdict == VERDICT_IN_PROGRESS and session.attempts_used < policy.max_total_attempts:
            attempt = session.attempts_used + 1
            prompt = assemble_prompt(session, prompt_budget)
            _persist(session, f"prompt-{attempt}.txt", prompt)
            response = providers.generator.generate(prompt)
            try:  # a caller's own generator may return what no trail can hold
                check_reply(response)
            except ValueError as exc:
                raise ProviderUnavailable(f"unusable generator response: {exc}") from exc
            _persist(session, f"response-{attempt}.txt", response)
            session.attempts_used = attempt

            try:
                candidate = parse_candidate(response)
            except UnparseableResponse:
                vector = embed(UNPARSEABLE_FEEDBACK, providers.sentence_embedder)
                session.add_feedback(response, UNPARSEABLE_FEEDBACK, vector)
                continue

            builds_dir = (
                None if session_dir is None else session_dir / "builds" / f"attempt-{attempt}"
            )
            validate_repair(
                candidate,
                session,
                policy,
                context_dir,
                engine,
                providers.sentence_embedder,
                rules,
                persist_dir=builds_dir,
            )
        if session.verdict == VERDICT_IN_PROGRESS:
            _end_session(session, VERDICT_UNRESOLVED)  # attempt cap reached
    return session


@contextmanager
def _ending(session: RepairSession):
    """End the session `engine-aborted` on an EngineError, whose builds join
    the yielded list, `aborted-provider` on a ProviderUnavailable, or
    `aborted-budget` on a BudgetExhausted."""
    aborted_builds: list[BuildRecord] = []
    try:
        yield aborted_builds
    except EngineError as exc:
        aborted_builds.extend(exc.records)
        _end_session(session, VERDICT_ENGINE_ABORTED, str(exc))
    except ProviderUnavailable as exc:
        _end_session(session, VERDICT_PROVIDER_ABORTED, str(exc))
    except BudgetExhausted as exc:
        _end_session(session, VERDICT_BUDGET_ABORTED, str(exc))


def _end_session(session: RepairSession, verdict: str, abort_reason: str | None = None) -> None:
    """The one place a session ends: set its verdict, write a repaired
    session's final Dockerfile to its repaired_path, then verdict.json."""
    session.verdict, session.abort_reason = verdict, abort_reason
    if verdict == VERDICT_REPAIRED and session.repaired_path is not None:
        with replacing(session.repaired_path) as fh:
            fh.write(session.final_dockerfile.encode("utf-8"))
    _persist_session(session)


def _persist(session: RepairSession, name: str, text: str) -> None:
    if session.session_dir is not None:
        with replacing(session.session_dir / name) as fh:
            fh.write(text.encode("utf-8"))


def _retrieved(session: RepairSession) -> list[dict]:
    """The retrieved examples as query.json and verdict.json list them."""
    return [{"id": rec.id, "similarity": sim} for rec, sim in session.retrieved]


def _persist_session(session: RepairSession) -> None:
    payload = {
        "verdict": session.verdict,
        "abort_reason": session.abort_reason,
        "attempts_used": session.attempts_used,
        "final_dockerfile": session.final_dockerfile,
        "retrieved": _retrieved(session),
        "feedback": [
            {
                "attempt_index": entry.attempt_index,
                "false_repair": entry.false_repair,
                "failure_output": entry.failure_output,
            }
            for entry in session.feedback
        ],
    }
    _persist(session, "verdict.json", json.dumps(payload, indent=2, sort_keys=True))


def guess_category(session: RepairSession) -> MajorCategory:
    """Majority major category among the retrieved demonstrations; a tie goes to the most similar."""
    majors = [record.category.major for record, _ in session.retrieved]  # in similarity order
    return max(majors, key=majors.count) if majors else MajorCategory.MISC
