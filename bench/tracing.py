"""Per-layer tracing for the traced run, installed from outside the program.

``Tracer.install()`` replaces public functions with timing wrappers at the
names their callers resolve (a module attribute, a class attribute, or a
click command's callback) and ``uninstall()`` puts the originals back. Spans
stay in memory as ``[name, op, parent, start, end, attrs]`` until the run
ends. A span's self time is its duration minus the time of its child spans.
Counts come from arguments and results, never from extra calls inside the
program: ``cluster_add`` comparisons are read off the cluster state passed in,
not by wrapping ``cosine``.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

from flakidock import build_engine, cli, demo_store, providers
from flakidock import repair_pipeline, similarity

# Per-layer metrics, in BENCHMARK.json order: name -> unit.
LAYER_METRICS = {
    "dockerfile_model.parse_dockerfile.calls": "count",
    "dockerfile_model.parse_dockerfile.self_s": "s",
    "build_engine.build_once.calls": "count",
    "build_engine.build_once.self_s": "s",
    "build_engine.build_once.growth": "ratio",
    "build_engine.driver.self_s": "s",
    "build_engine.scripted_build_s": "s",
    "build_engine.cleanups": "count",
    "build_engine.cleanups_expected": "count",
    "build_engine.failed": "count",
    "log_preprocess.preprocess_log.calls": "count",
    "log_preprocess.preprocess_log.lines_in": "lines",
    "log_preprocess.preprocess_log.lines_out": "lines",
    "log_preprocess.preprocess_log.self_s": "s",
    "log_preprocess.preprocess_log.us_per_line": "us/line",
    "providers.embed.calls": "count",
    "providers.embed.chars": "chars",
    "providers.embed.self_s": "s",
    "providers.embed.repeat_ratio": "ratio",
    "providers.generate.calls": "count",
    "providers.generate.prompt_chars": "chars",
    "similarity.cluster_add.calls": "count",
    "similarity.cluster_add.self_s": "s",
    "similarity.cluster_add.member_comparisons": "count",
    "similarity.cluster_add.growth": "ratio",
    "similarity.retrieve_top_k.calls": "count",
    "similarity.retrieve_top_k.self_s": "s",
    "similarity.retrieve_top_k.rows_scanned": "count",
    "demo_store.load_store.self_s": "s",
    "demo_store.load_store.records": "count",
    "demo_store.save_store.self_s": "s",
    "demo_store.save_store.bytes": "bytes",
    "demo_store.add.calls": "count",
    "demo_store.add.self_s": "s",
    "demo_store.classify_failure_exclusion.calls": "count",
    "demo_store.classify_failure_exclusion.self_s": "s",
    "repair_pipeline.session.self_s": "s",
    "repair_pipeline.assemble_prompt.calls": "count",
    "repair_pipeline.assemble_prompt.self_s": "s",
    "repair_pipeline.assemble_prompt.prompt_tokens": "tokens",
    "repair_pipeline.count_similar_failures.calls": "count",
    "repair_pipeline.count_similar_failures.self_s": "s",
    "repair_pipeline.count_similar_failures.comparisons": "count",
    "repair_pipeline.attempts": "count",
    "repair_pipeline.accepted_ratio": "ratio",
    "cli.monitor.self_s": "s",
    "cli.monitor.history_lines_read": "lines",
    "cli.monitor.growth": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "harness.remainder_s": "s",
}


def _store_bytes(path) -> int:
    path = Path(path)
    records = path / "records.jsonl" if path.is_dir() else path
    vectors = records.with_name("vectors.bin")
    return sum(p.stat().st_size for p in (records, vectors) if p.exists())


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._seen_texts: dict[int, set[int]] = {}
        self.engines: dict[int, list] = {}  # id -> [engine, builds]; keeps engines alive

    def next_op(self) -> None:
        self.op += 1

    def _wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            pre = before(*args, **kwargs) if before else None
            span = [name, self.op, stack[-1] if stack else -1, 0.0, 0.0, pre]
            stack.append(len(spans))
            spans.append(span)
            span[3] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if after:
                span[5] = after(result, pre, *args, **kwargs)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def _embed_before(self, provider, text, *args, **kwargs) -> tuple[int, bool]:
        seen = self._seen_texts.setdefault(self.op, set())
        key = hash(text)
        repeat = key in seen
        seen.add(key)
        return (len(text), repeat)

    def _build_before(self, engine, *args, **kwargs) -> None:
        entry = self.engines.setdefault(id(engine), [engine, 0])
        entry[1] += 1

    def install(self) -> None:
        # Each function is wrapped on every module whose callers, in the
        # program or in these workloads, look it up there.
        for module in (cli, repair_pipeline, demo_store):
            self._wrap(module, "parse_dockerfile", "dockerfile_model.parse_dockerfile")
        self._wrap(build_engine.BuildEngine, "build_once", "build_engine.build_once",
                   before=self._build_before,
                   after=lambda rec, pre, *a, **k: rec.status != build_engine.STATUS_SUCCESS)
        self._wrap(build_engine.SimulatedDriver, "build", "build_engine.driver",
                   after=lambda out, pre, *a, **k: out.duration)
        self._wrap(build_engine.SimulatedDriver, "clean", "build_engine.cleanup")
        for module in (cli, repair_pipeline):
            self._wrap(module, "preprocess_log", "log_preprocess.preprocess_log",
                       after=lambda res, pre, *a, **k: (res.total_lines_in, res.total_lines_out))
        self._wrap(providers.HashingEmbeddingProvider, "embed_values", "providers.embed",
                   before=self._embed_before)
        self._wrap(providers.ScriptedTextProvider, "generate", "providers.generate",
                   before=lambda provider, prompt, *a, **k: len(prompt))
        self._wrap(cli, "cluster_add", "similarity.cluster_add",
                   before=lambda state, *a, **k: sum(len(c.member_ids) for c in state))
        for module in (repair_pipeline, similarity):
            self._wrap(module, "retrieve_top_k", "similarity.retrieve_top_k",
                       before=lambda query, store, *a, **k: len(store))
        self._wrap(demo_store, "load_store", "demo_store.load_store",
                   after=lambda index, pre, *a, **k: len(index))
        self._wrap(demo_store, "save_store", "demo_store.save_store",
                   after=lambda res, pre, index, path, *a, **k: _store_bytes(path))
        self._wrap(demo_store.DemonstrationIndex, "add", "demo_store.add")
        self._wrap(cli, "classify_failure_exclusion", "demo_store.classify_failure_exclusion")
        self._wrap(repair_pipeline, "repair_flaky_dockerfile", "repair_pipeline.session",
                   after=lambda s, pre, *a, **k: (s.attempts_used, s.verdict == repair_pipeline.VERDICT_REPAIRED))
        self._wrap(repair_pipeline, "assemble_prompt", "repair_pipeline.assemble_prompt",
                   after=lambda prompt, pre, *a, **k: max(1, (len(prompt) + 3) // 4))
        self._wrap(repair_pipeline, "count_similar_failures", "repair_pipeline.count_similar_failures",
                   before=lambda output, feedback, *a, **k: len(feedback))
        self._wrap(cli.monitor, "callback", "cli.monitor")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, op, parent, start, end, attrs in self.spans:
                fh.write(json.dumps({"name": name, "op": op, "parent": parent, "start": start,
                                     "end": end, "attrs": attrs}) + "\n")

    def layer_metrics(self, wall_s: float, overhead_s: float, counters: dict) -> dict[str, float]:
        self_time = [span[4] - span[3] for span in self.spans]
        for span in self.spans:
            if span[2] >= 0:
                self_time[span[2]] -= span[4] - span[3]
        by_name: dict[str, list[int]] = {}
        for i, span in enumerate(self.spans):
            by_name.setdefault(span[0], []).append(i)

        def calls(name):
            return len(by_name.get(name, ()))

        def self_s(name):
            return sum(self_time[i] for i in by_name.get(name, ()))

        def attrs(name):
            return [self.spans[i][5] for i in by_name.get(name, ())]

        def growth(name):
            times = [self_time[i] for i in by_name.get(name, ())]
            if not times:
                return 0.0
            tenth = max(1, len(times) // 10)
            first = sum(times[:tenth]) / tenth
            return sum(times[-tenth:]) / tenth / first if first > 0 else 0.0

        pre = "log_preprocess.preprocess_log"
        lines = attrs(pre)
        embeds = attrs("providers.embed")
        sessions = attrs("repair_pipeline.session")
        attempts = sum(a for a, _ in sessions)
        m = {
            "dockerfile_model.parse_dockerfile.calls": calls("dockerfile_model.parse_dockerfile"),
            "dockerfile_model.parse_dockerfile.self_s": self_s("dockerfile_model.parse_dockerfile"),
            "build_engine.build_once.calls": calls("build_engine.build_once"),
            "build_engine.build_once.self_s": self_s("build_engine.build_once"),
            "build_engine.build_once.growth": growth("build_engine.build_once"),
            "build_engine.driver.self_s": self_s("build_engine.driver"),
            "build_engine.scripted_build_s": sum(attrs("build_engine.driver")),
            "build_engine.cleanups": calls("build_engine.cleanup"),
            "build_engine.cleanups_expected": sum(
                builds // engine.policy.clean_every for engine, builds in self.engines.values()),
            "build_engine.failed": sum(attrs("build_engine.build_once")),
            f"{pre}.calls": calls(pre),
            f"{pre}.lines_in": sum(a for a, _ in lines),
            f"{pre}.lines_out": sum(b for _, b in lines),
            f"{pre}.self_s": self_s(pre),
            f"{pre}.us_per_line": self_s(pre) * 1e6 / max(1, sum(a for a, _ in lines)),
            "providers.embed.calls": calls("providers.embed"),
            "providers.embed.chars": sum(c for c, _ in embeds),
            "providers.embed.self_s": self_s("providers.embed"),
            "providers.embed.repeat_ratio": sum(r for _, r in embeds) / max(1, len(embeds)),
            "providers.generate.calls": calls("providers.generate"),
            "providers.generate.prompt_chars": sum(attrs("providers.generate")),
            "similarity.cluster_add.calls": calls("similarity.cluster_add"),
            "similarity.cluster_add.self_s": self_s("similarity.cluster_add"),
            "similarity.cluster_add.member_comparisons": sum(attrs("similarity.cluster_add")),
            "similarity.cluster_add.growth": growth("similarity.cluster_add"),
            "similarity.retrieve_top_k.calls": calls("similarity.retrieve_top_k"),
            "similarity.retrieve_top_k.self_s": self_s("similarity.retrieve_top_k"),
            "similarity.retrieve_top_k.rows_scanned": sum(attrs("similarity.retrieve_top_k")),
            "demo_store.load_store.self_s": self_s("demo_store.load_store"),
            "demo_store.load_store.records": sum(attrs("demo_store.load_store")),
            "demo_store.save_store.self_s": self_s("demo_store.save_store"),
            "demo_store.save_store.bytes": sum(attrs("demo_store.save_store")),
            "demo_store.add.calls": calls("demo_store.add"),
            "demo_store.add.self_s": self_s("demo_store.add"),
            "demo_store.classify_failure_exclusion.calls": calls("demo_store.classify_failure_exclusion"),
            "demo_store.classify_failure_exclusion.self_s": self_s("demo_store.classify_failure_exclusion"),
            "repair_pipeline.session.self_s": self_s("repair_pipeline.session"),
            "repair_pipeline.assemble_prompt.calls": calls("repair_pipeline.assemble_prompt"),
            "repair_pipeline.assemble_prompt.self_s": self_s("repair_pipeline.assemble_prompt"),
            "repair_pipeline.assemble_prompt.prompt_tokens": sum(attrs("repair_pipeline.assemble_prompt")),
            "repair_pipeline.count_similar_failures.calls": calls("repair_pipeline.count_similar_failures"),
            "repair_pipeline.count_similar_failures.self_s": self_s("repair_pipeline.count_similar_failures"),
            "repair_pipeline.count_similar_failures.comparisons": sum(
                attrs("repair_pipeline.count_similar_failures")),
            "repair_pipeline.attempts": attempts,
            "repair_pipeline.accepted_ratio": sum(ok for _, ok in sessions) / max(1, attempts),
            "cli.monitor.self_s": self_s("cli.monitor"),
            "cli.monitor.history_lines_read": counters.get("history_lines_read", 0),
            "cli.monitor.growth": growth("cli.monitor"),
            "trace.wall_s": wall_s,
            "trace.overhead_s": overhead_s,
            "harness.remainder_s": wall_s - sum(self_time),
        }
        return {name: m[name] for name in LAYER_METRICS}
