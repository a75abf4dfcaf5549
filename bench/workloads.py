"""The four benchmark workloads.

A workload generates its inputs from the seed when it is built; that is not
timed. It then offers:

- ``setup()``: the program-side set-up before the first op, timed and
  repeated by the harness; ``setup_repeats`` is how often, and
  ``pass_seconds`` is one pass's length on the recording host, from which
  the harness sizes a run;
- ``run_pass(index, ops)``: one pass of fixed work, each op through
  ``ops.run``. Every pass does the same ops, so the harness can take each
  op's median over the passes. State a pass writes goes under
  ``workdir/pass``, which the harness deletes after the pass;
- ``check(index, outputs, corrupt)``: one bool per op of that pass, against a
  reference that does not use the program. ``corrupt`` falsifies one
  reference value, which the self-check uses to show mismatches are caught.

Program functions are looked up on their modules at call time, at the names
the program's own callers use, so the wrappers that ``tracing.py`` installs see
every call. Each workload is a closed loop with one client: an op starts when
the previous one has returned.
"""

from __future__ import annotations

import json
import os
import random
import struct
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from click.testing import CliRunner

import inputs as gen
from flakidock import build_engine, cli, config, demo_store, log_preprocess, providers
from flakidock import repair_pipeline, similarity


class Ops:
    """Times ops one after another and keeps their outputs."""

    def __init__(self, on_op=None, sampler=None):
        self.latencies: list[float] = []
        self.intervals: list[tuple[float, float]] = []  # perf_counter() at start and end
        self.outputs: list = []
        self.on_op = on_op  # told before each op starts (the tracer's op id)
        self.sampler = sampler  # hostspeed.Sampler; its time inside an op is not the op's

    def run(self, fn, *args):
        if self.on_op is not None:
            self.on_op()
        start = time.perf_counter()
        spent = self.sampler.spent if self.sampler else 0.0
        try:
            out = fn(*args)
        except Exception as exc:  # an op that raises counts as failed, the run goes on
            out = ("raised", f"{type(exc).__name__}: {exc}")
        spent = (self.sampler.spent if self.sampler else 0.0) - spent
        end = time.perf_counter()
        self.latencies.append(end - start - spent)
        self.intervals.append((start, end))
        self.outputs.append(out)
        return out


def _scaled(full: int, scale: float, least: int) -> int:
    return max(least, round(full * scale))


def write_store(directory: Path, records: list[dict], vectors: np.ndarray) -> Path:
    """Write a store in the documented on-disk format (records.jsonl + vectors.bin)."""
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "records.jsonl", "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"schema": "flakidock-demo-store", "version": 1}) + "\n")
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    with open(directory / "vectors.bin", "wb") as fh:
        fh.write(struct.pack("<I", vectors.shape[1]))
        fh.write(vectors.astype("<f4").tobytes())
    return directory


def _record(payload: dict) -> demo_store.DemonstrationRecord:
    return demo_store.DemonstrationRecord(
        id=payload["id"],
        static_part=payload["static_part"],
        dynamic_part=payload["dynamic_part"],
        category=demo_store.FlakinessCategory.from_string(payload["category"]),
        repairs=tuple(payload["repairs"]),
        iterations=tuple(payload["iterations"]),
    )


def _top_k(matrix: np.ndarray, norms: np.ndarray, ids: list[str], query: np.ndarray,
           k: int) -> list[str]:
    """Brute-force cosine ranking, ties broken by ascending id; norms are the
    row norms of matrix."""
    sims = (matrix @ query) / (norms * np.linalg.norm(query))
    head = np.argpartition(-sims, min(len(ids) - 1, 4 * k))[: 4 * k + 1]
    return [ids[i] for i in sorted(head, key=lambda i: (-sims[i], ids[i]))[:k]]


# --- repair-loop --------------------------------------------------------------

# (kind, attempts) per stratum; every stratum runs each kind on each log shape.
# "repaired": attempts-1 dissimilar failures, then a candidate that passes;
# "unparseable": one response without a code block, then a passing candidate;
# "similar": the same failure every time, so T = 3 similar failures end it;
# "cap": ten dissimilar failures, so the 10-attempt cap ends it.
SESSION_KINDS = (
    ("repaired", 1), ("repaired", 1), ("repaired", 1), ("repaired", 1),
    ("repaired", 2), ("repaired", 2), ("unparseable", 2),
    ("repaired", 3), ("repaired", 3),
    ("similar", 3), ("similar", 3),
    ("cap", 10),
)
DETECTION_LINES = 2000
CANDIDATE_LINES = 300
SUCCESS_LINES = 100


@dataclass
class SessionPlan:
    dockerfile: str
    scripts: list  # (match, [(status, log, exit_code, duration), ...])
    responses: list[str]
    expected: tuple[str, int]  # verdict and attempts the plan implies


def _session_plan(index: int, kind: str, attempts: int, shape: str,
                  rng: random.Random, policy) -> SessionPlan:
    family = gen.COUNTED_FAMILIES[index % len(gen.COUNTED_FAMILIES)]
    original = gen.dockerfile(family, rng, marker=f"session {index}")
    scripts = [(None, [("failure", gen.failing_log(shape, DETECTION_LINES, family, rng),
                        family.exit_code, rng.uniform(60, 600))])]
    others = [f for f in gen.DISTINCT_FAMILIES if f.style != family.style]
    others = others[index % len(others):] + others[:index % len(others)]
    similar_seed = rng.getrandbits(32)
    responses = []
    for attempt in range(1, attempts + 1):
        marker = f"candidate-a{attempt:02d}"
        candidate = original.replace("WORKDIR /app", f"# {marker}\nWORKDIR /app\nRUN echo fix-{attempt}")
        if kind == "unparseable" and attempt == 1:
            responses.append("I cannot produce a corrected file for this build.")
            continue
        responses.append(gen.fenced(candidate))
        if kind in ("repaired", "unparseable") and attempt == attempts:
            outcome = ("success", gen.success_log(SUCCESS_LINES, family.style, rng), 0,
                       rng.uniform(60, 600))
        elif kind == "similar":
            log = gen.failing_log(shape, CANDIDATE_LINES, family, random.Random(similar_seed),
                                  build_id=f"s{index}-a{attempt}")
            outcome = ("failure", log, family.exit_code, rng.uniform(60, 600))
        else:
            other = others[(attempt - 1) % len(others)]
            outcome = ("failure", gen.failing_log(shape, CANDIDATE_LINES, other, rng),
                       other.exit_code, rng.uniform(60, 600))
        scripts.append((marker, [outcome]))
    if kind == "similar":
        expected = (repair_pipeline.VERDICT_UNRESOLVED, policy.failure_threshold)
    elif kind == "cap":
        expected = (repair_pipeline.VERDICT_UNRESOLVED, policy.max_total_attempts)
    else:
        expected = (repair_pipeline.VERDICT_REPAIRED, attempts)
    return SessionPlan(original, scripts, responses, expected)


class RepairLoop:
    """One op = one `repair_flaky_dockerfile` session, set up as `flakidock repair` does."""

    name = "repair-loop"
    setup_repeats = 11
    pass_seconds = 3.2  # one pass, seed commit, recording host
    STORE_RECORDS = 300

    def __init__(self, seed: int, workdir: Path, scale: float):
        rng = random.Random(seed)
        self.workdir = workdir
        self.policy = repair_pipeline.ValidationPolicy()
        if self.policy.max_total_attempts != 10 or self.policy.failure_threshold != 3:
            raise RuntimeError("session plans assume the documented defaults T=3, cap=10")
        records, vectors = gen.store_contents(
            _scaled(self.STORE_RECORDS, scale, 20), rng.getrandbits(32), exact=True)
        self.store_dir = write_store(workdir / "store", records, vectors)
        # Every seed gets the same mix of kind, log shape and failure family;
        # the seed draws the log contents and the session order.
        kinds = [(k, a, s) for k, a in SESSION_KINDS for s in gen.SHAPES]
        if scale < 1:
            kinds = kinds[:: max(1, round(1 / scale))] + [("cap", 10, gen.SHAPE_TIMED)]
        self.plans = [_session_plan(i, k, a, s, rng, self.policy) for i, (k, a, s) in enumerate(kinds)]
        rng.shuffle(self.plans)
        self.context = workdir / "context"
        self.context.mkdir()

    def setup(self) -> None:
        self.store = None
        self.store = demo_store.load_store(self.store_dir)

    def _session(self, plan: SessionPlan, session_dir: Path):
        driver = build_engine.SimulatedDriver([
            build_engine.BuildScript(match, [build_engine.ScriptedOutcome(*o) for o in outcomes])
            for match, outcomes in plan.scripts
        ])
        engine = build_engine.BuildEngine(driver, build_engine.HygienePolicy())
        provider_set = repair_pipeline.ProviderSet(
            providers.HashingEmbeddingProvider(),
            providers.HashingEmbeddingProvider(),
            providers.ScriptedTextProvider(plan.responses),
        )
        doc = cli.parse_dockerfile(plan.dockerfile.encode("utf-8"))
        session = repair_pipeline.repair_flaky_dockerfile(
            doc, self.context, self.store, provider_set, self.policy, engine,
            session_dir=session_dir,
        )
        return (session.verdict, session.attempts_used)

    def run_pass(self, index: int, ops: Ops) -> None:
        for i, plan in enumerate(self.plans):
            ops.run(self._session, plan, self.workdir / "pass" / f"session-{i:03d}")

    def check(self, index: int, outputs: list, corrupt: bool) -> list[bool]:
        expected = [plan.expected for plan in self.plans]
        if corrupt:
            expected[0] = (repair_pipeline.VERDICT_NON_FLAKY, 0)
        return [tuple(out) == exp if isinstance(out, tuple) else False
                for out, exp in zip(outputs, expected)]


# --- cluster-triage -----------------------------------------------------------


class ClusterTriage:
    """One op = one raw log through the calls `flakidock cluster` makes, in corpus order."""

    name = "cluster-triage"
    setup_repeats = 21
    pass_seconds = 2.0  # one pass, seed commit, recording host
    LOGS = 300

    def __init__(self, seed: int, workdir: Path, scale: float):
        rng = random.Random(seed)
        families = gen.DISTINCT_FAMILIES
        family_seeds = [rng.getrandbits(32) for _ in families]
        order = [i % len(families) for i in range(_scaled(self.LOGS, scale, 2 * len(families)))]
        rng.shuffle(order)
        self.log_dir = workdir / "logs"
        self.log_dir.mkdir(parents=True)
        texts = set()
        for i, fam in enumerate(order):
            text = gen.cluster_log(families[fam], rng, i, family_seeds[fam])
            texts.add(text)
            (self.log_dir / f"build-{i:04d}.log").write_text(text, encoding="utf-8")
        if len(texts) != len(order):
            raise RuntimeError("cluster corpus repeats a log")
        self.families = order  # family of each log, in corpus (file name) order
        self.threshold = config.RunConfig().cluster_threshold

    def setup(self) -> None:
        files = sorted(p for p in self.log_dir.iterdir() if p.is_file())
        self.logs = [(p.name, p.read_text(encoding="utf-8", errors="replace")) for p in files]
        self.rules = log_preprocess.RuleSet.default()

    def _triage(self, name: str, text: str) -> int:
        excerpt = cli.preprocess_log(text, self.rules).as_text() or text[-2000:] or name
        vec = cli.embed(excerpt, self.provider)
        self.state, cluster_id = cli.cluster_add(self.state, name, vec, self.threshold)
        return cluster_id

    def run_pass(self, index: int, ops: Ops) -> None:
        # A fresh embedder per pass: its cache starts empty, as in one `cluster` run.
        self.provider = providers.HashingEmbeddingProvider()
        self.state = []
        for name, text in self.logs:
            ops.run(self._triage, name, text)

    def check(self, index: int, outputs: list, corrupt: bool) -> list[bool]:
        families = list(self.families)
        if corrupt:
            families[-1] = (families[-1] + 1) % len(gen.DISTINCT_FAMILIES)
        cluster_of: dict[int, int] = {}
        ok = []
        for fam, cid in zip(families, outputs):
            if not isinstance(cid, int):
                ok.append(False)
            elif fam in cluster_of:
                ok.append(cid == cluster_of[fam])
            else:
                ok.append(cid not in cluster_of.values())
                cluster_of[fam] = cid
        return ok


# --- monitor-rounds -----------------------------------------------------------

# Per project, the statuses of the ROUNDS builds of every invocation:
# S success, F failure that counts, X failure an exclusion filter removes.
PROJECT_KINDS = ("SSS", "SFS", "SXS", "FXF")


class MonitorRounds:
    """One op = one in-process `flakidock --json monitor MANIFEST --rounds 3`."""

    name = "monitor-rounds"
    setup_repeats = 5
    pass_seconds = 2.8  # one pass, seed commit, recording host
    PROJECTS = 12
    INVOCATIONS = 25
    # Not a multiple of the default clean_every (4), so cleanup cadence per
    # series and per engine disagree; see build_engine.cleanups in the trace.
    ROUNDS = 3
    LOG_LINES = 200

    def __init__(self, seed: int, workdir: Path, scale: float):
        rng = random.Random(seed)
        self.workdir = workdir
        self.invocations = _scaled(self.INVOCATIONS, scale, 4)
        scripts, manifest = [], []
        self.projects = {}  # name -> (failures, excluded) per invocation
        for i in range(_scaled(self.PROJECTS, scale, len(PROJECT_KINDS))):
            kind = PROJECT_KINDS[i % len(PROJECT_KINDS)]
            name = f"proj-{i:03d}"
            family = gen.COUNTED_FAMILIES[i % len(gen.COUNTED_FAMILIES)]
            excluded = gen.EXCLUDED_FAMILIES[i % len(gen.EXCLUDED_FAMILIES)]
            project = workdir / "projects" / name
            project.mkdir(parents=True)
            (project / "Dockerfile").write_text(
                gen.dockerfile(family, rng, marker=f"monitor {name};"), encoding="utf-8")
            outcomes = []
            for round_no, status in enumerate(kind):
                shape = (gen.SHAPE_TIMED, gen.SHAPE_CLASSIC)[(i + round_no) % 2]
                if status == "S":
                    outcomes.append({"status": "success", "duration": rng.uniform(60, 600),
                                     "log": gen.success_log(self.LOG_LINES, family.style, rng)})
                else:
                    cause = family if status == "F" else excluded
                    outcomes.append({"status": "failure", "duration": rng.uniform(60, 600),
                                     "exit_code": cause.exit_code,
                                     "log": gen.failing_log(shape, self.LOG_LINES, cause, rng)})
            scripts.append({"match": f"monitor {name};", "outcomes": outcomes})
            manifest.append(f"{name} {project}")
            self.projects[name] = (kind.count("F") + kind.count("X"), kind.count("X"))
        self.scenario = workdir / "scenario.json"
        self.scenario.write_text(json.dumps({"builds": scripts}), encoding="utf-8")
        self.manifest = workdir / "manifest.txt"
        self.manifest.write_text("\n".join(manifest) + "\n", encoding="utf-8")
        self.counters = None  # set by the traced run: history lines read per invocation

    def setup(self) -> None:
        # Every invocation is a fresh CLI process to its user: time start-up
        # (interpreter plus importing the CLI) in a child that exits at once.
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", "import flakidock.cli"], env=env, check=True)

    def _invoke(self, state_dir: Path):
        result = CliRunner().invoke(cli.main, [
            "--state-dir", str(state_dir), "--driver", f"simulated:{self.scenario}", "--json",
            "monitor", str(self.manifest), "--rounds", str(self.ROUNDS),
        ])
        if result.exit_code != 0:
            return ("exit", result.exit_code, result.stdout[-500:])
        report = json.loads(result.stdout)
        return {
            "projects": {name: (e["builds"], e["failures"], e["excluded"], tuple(e["errors"]))
                         for name, e in report["projects"].items()},
            "flaky_candidates": report["flaky_candidates"],
        }

    def run_pass(self, index: int, ops: Ops) -> None:
        state_dir = self.workdir / "pass" / "state"  # fresh per pass; grows within it
        history = state_dir / "history"
        for _ in range(self.invocations):
            ops.run(self._invoke, state_dir)
            if self.counters is not None:
                self.counters["history_lines_read"] = self.counters.get("history_lines_read", 0) + sum(
                    len(p.read_text(encoding="utf-8").splitlines()) for p in history.glob("*.jsonl"))

    def check(self, index: int, outputs: list, corrupt: bool) -> list[bool]:
        ok = []
        flaky = sorted(name for name, (f, x) in self.projects.items() if f > x)
        for m, out in enumerate(outputs, start=1):
            expected = {name: (self.ROUNDS, m * f, m * x, ()) for name, (f, x) in self.projects.items()}
            if corrupt and m == 1:
                name = next(iter(expected))
                expected[name] = (self.ROUNDS, -1, 0, ())
            ok.append(isinstance(out, dict) and out["projects"] == expected
                      and out["flaky_candidates"] == flaky)
        return ok


# --- store-retrieval ----------------------------------------------------------


class StoreRetrieval:
    """One op = one top-3 query, one `DemonstrationIndex.add`, or the
    `save_store` that ends each batch, over a 10k-record store."""

    name = "store-retrieval"
    setup_repeats = 3
    pass_seconds = 3.5  # one pass, seed commit, recording host
    RECORDS = 10_000
    BATCHES = 2
    QUERIES = 45  # per batch
    ADDS = 4  # per batch
    K = 3

    def __init__(self, seed: int, workdir: Path, scale: float):
        rng = random.Random(seed)
        self.seed = seed
        self.workdir = workdir
        records, vectors = gen.store_contents(
            _scaled(self.RECORDS, scale, 100), rng.getrandbits(32), exact=False)
        self.store_dir = write_store(workdir / "store", records, vectors)
        self.ref_ids = [r["id"] for r in records]
        self.ref_matrix = vectors.astype(np.float64)
        queries = _scaled(self.QUERIES, scale, 5)
        self.batches = []
        for _ in range(self.BATCHES):
            batch = []
            for q in range(queries):
                family = gen.COUNTED_FAMILIES[q % len(gen.COUNTED_FAMILIES)]
                batch.append(("query", gen.dockerfile(family, rng), gen.excerpt_text(family, rng)))
            for _ in range(self.ADDS):
                batch.insert(rng.randrange(1, len(batch)), ("add",))
            self.batches.append(batch)
        self.query_vectors = {}
        self.added: dict[int, list[dict]] = {}  # records each pass adds
        self.prior: dict[int, list[dict]] = {}  # records added since set-up, before each pass
        self.save_dir = workdir / "pass" / "saved"

    def setup(self) -> None:
        self.index = None
        self.index = demo_store.load_store(self.store_dir)
        self.since_setup: list[dict] = []

    def _query(self, static: str, dynamic: str) -> list[str]:
        query = similarity.RepairQuery.build(static, dynamic)
        return [rec.id for rec, _ in similarity.retrieve_top_k(query, self.index, self.K, self.provider)]

    def _add(self, payload: dict) -> int:
        self.index.add(_record(payload), self.provider)
        return len(self.index)

    def _save(self) -> int:
        demo_store.save_store(self.index, self.save_dir / "records.jsonl")
        return (self.save_dir / "vectors.bin").stat().st_size

    def run_pass(self, index: int, ops: Ops) -> None:
        rng = random.Random(f"{self.seed}-adds-{index}")
        self.added[index] = [
            gen.demo_record(f"new-{index:03d}-{j:02d}", gen.COUNTED_FAMILIES[j], rng)
            for j in range(self.ADDS * self.BATCHES)
        ]
        self.prior[index] = list(self.since_setup)
        self.since_setup += self.added[index]
        adds = iter(self.added[index])
        self.provider = providers.HashingEmbeddingProvider()  # empty cache every pass
        for batch in self.batches:
            for op in batch:
                if op[0] == "query":
                    ops.run(self._query, op[1], op[2])
                else:
                    ops.run(self._add, next(adds))
            ops.run(self._save)

    def check(self, index: int, outputs: list, corrupt: bool) -> list[bool]:
        # Rows added by earlier passes since set-up are part of the store this pass ranked.
        matrix, ids = self.ref_matrix, list(self.ref_ids)
        earlier = self.prior[index]
        new_rows = [gen.ref_embed(gen.combined(r["static_part"], r["dynamic_part"]))
                    for r in earlier + self.added[index]]
        if earlier:
            matrix = np.vstack([matrix] + [v.astype(np.float64)[None, :] for v in new_rows[:len(earlier)]])
            ids += [r["id"] for r in earlier]
        pending = iter(zip(self.added[index], new_rows[len(earlier):]))
        norms = np.linalg.norm(matrix, axis=1)
        expected = []
        for batch in self.batches:
            for op in batch:
                if op[0] == "query":
                    key = (op[1], op[2])
                    if key not in self.query_vectors:
                        self.query_vectors[key] = gen.ref_embed(gen.combined(*key)).astype(np.float64)
                    expected.append(_top_k(matrix, norms, ids, self.query_vectors[key], self.K))
                else:
                    record, vec = next(pending)
                    matrix = np.vstack([matrix, vec.astype(np.float64)[None, :]])
                    norms = np.append(norms, np.linalg.norm(matrix[-1:], axis=1))
                    ids.append(record["id"])
                    expected.append(len(ids))
            expected.append(4 + len(ids) * matrix.shape[1] * 4)
        if corrupt:
            first = next(i for i, e in enumerate(expected) if isinstance(e, list))
            expected[first] = expected[first][::-1]
        return [out == exp for out, exp in zip(outputs, expected)]


WORKLOADS = {w.name: w for w in (RepairLoop, ClusterTriage, MonitorRounds, StoreRetrieval)}
