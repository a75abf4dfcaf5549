"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
import re
import struct
from pathlib import Path

import numpy as np

from flakidock import demo_store
from flakidock.build_engine import BuildScript, ScriptedOutcome, SimulatedDriver
from flakidock.dockerfile_model import parse_dockerfile
from flakidock.errors import FlakiDockError, SchemaViolation, StoreError, VersionMismatch
from flakidock.log_preprocess import (
    ADJACENCY_RADIUS,
    EXCERPT_LINE_CAP,
    Excerpt,
    PreprocessedLog,
    RuleSet,
    StageSection,
)

FIXTURES = Path(__file__).parent / "fixtures"

ALPINE_PIP = (FIXTURES / "alpine_pip.dockerfile").read_text()
ALPINE_PIP_REPAIRED = (FIXTURES / "alpine_pip_repaired.dockerfile").read_text()
GOLANG_TWO_STAGE = (FIXTURES / "golang_two_stage.dockerfile").read_text()
ALPINE_PIP_LOG = (FIXTURES / "alpine_pip_build.log").read_text()

# Three mutually dissimilar failure outputs (offline-provider cosine ~0.3)
# used to script distinct "error types" for the validation state machine.
ERROR_TYPE_LOGS = {
    "X": (
        "> [4/6] RUN npm install:\n"
        "npm ERR! code ECONNREFUSED\n"
        "npm ERR! FetchError: request to http://registry.npm.internal:4873/express failed\n"
        'ERROR: process "/bin/sh -c npm install" did not complete successfully: exit code: 1'
    ),
    "Y": (
        "> [3/3] RUN apt-get update:\n"
        "W: GPG error: https://apt.vendor.example/stable focal InRelease: NO_PUBKEY 871920D1991BC93C\n"
        "E: The repository 'https://apt.vendor.example/stable focal InRelease' is not signed.\n"
        'ERROR: process "/bin/sh -c apt-get update" did not complete successfully: exit code: 100'
    ),
    "Z": (
        "> [2/3] RUN mkdir /var/run/appd:\n"
        "mkdir: cannot create directory '/var/run/appd': File exists\n"
        'ERROR: process "/bin/sh -c mkdir /var/run/appd" did not complete successfully: exit code: 1'
    ),
}

# Ten distinct failure-output templates; {a}/{b}/{c} take small random values
# so outputs within a template differ slightly but cluster together.
CLUSTER_TEMPLATES = [
    "npm ERR! code E404\n"
    "npm ERR! 404 Not Found - GET https://registry.npmjs.org/widget-core/-/widget-core-{a}.{b}.{c}.tgz\n"
    "npm ERR! 404 'widget-core@{a}.{b}.{c}' is not in this registry.\n"
    'ERROR: process "/bin/sh -c npm install" did not complete successfully: exit code: 1',
    "E: Failed to fetch http://archive.ubuntu.com/ubuntu/pool/main/o/openssl/libssl-dev_{a}.{b}.{c}_amd64.deb  404  Not Found\n"
    "E: Unable to fetch some archives, maybe run apt-get update or try with --fix-missing?\n"
    'ERROR: process "/bin/sh -c apt-get install -y libssl-dev" did not complete successfully: exit code: 100',
    "error: externally-managed-environment\n"
    "hint: See PEP 668 for the detailed specification.\n"
    'ERROR: process "/bin/sh -c pip3 install -r requirements.txt" did not complete successfully: exit code: 1',
    "curl: (28) Operation timed out after {a}{b} milliseconds with 0 out of 0 bytes received\n"
    'ERROR: process "/bin/sh -c curl -fSL https://dl.example.com/tool.tgz -o /tmp/tool.tgz" did not complete successfully: exit code: 28',
    "gpg: keyserver receive failed: Server indicated a failure\n"
    "W: GPG error: https://deb.example.com stable InRelease: NO_PUBKEY {a}{b}{c}D1991BC93C\n"
    "E: The repository 'https://deb.example.com stable InRelease' is not signed.\n"
    'ERROR: process "/bin/sh -c apt-get update" did not complete successfully: exit code: 100',
    "/go/src/golang.org/x/net/context/pre_go17.go:{a}:2: background redeclared in this block\n"
    'ERROR: process "/bin/sh -c go build -o proxy" did not complete successfully: exit code: 2',
    "fatal: unable to access 'https://github.com/acme/widget-{a}.git/': Could not resolve host: github.com\n"
    'ERROR: process "/bin/sh -c git clone https://github.com/acme/widget-{a}.git" did not complete successfully: exit code: 128',
    "COPY failed: file not found in build context or excluded by .dockerignore: stat artifacts/bundle-{a}.tar: file does not exist",
    "mysql_upgrade: Got error: 2002: Can't connect to local MySQL server through socket '/var/run/mysqld/mysqld{a}.sock' (2)\n"
    'ERROR: process "/bin/sh -c service mysql start && mysql_upgrade" did not complete successfully: exit code: 1',
    "OSError: [Errno 28] No space left on device: '/tmp/pip-build-{a}'\n"
    "ERROR: could not install packages due to an OSError: [Errno 28] No space left on device",
]

_CLUSTER_STEPS = [
    "RUN npm install",
    "RUN apt-get install -y libssl-dev",
    "RUN pip3 install -r requirements.txt",
    "RUN curl -fSL https://dl.example.com/tool.tgz -o /tmp/tool.tgz",
    "RUN apt-get update",
    "RUN go build -o proxy",
    "RUN git clone https://github.com/acme/widget.git",
    "COPY artifacts/bundle.tar /srv/",
    "RUN service mysql start && mysql_upgrade",
    "RUN pip install -r requirements.txt",
]


def template_outputs(count: int = 100, seed: int = 42) -> list[str]:
    """Preprocessed-style failure outputs drawn from the 10 templates."""
    rng = random.Random(seed)
    return [
        CLUSTER_TEMPLATES[i % len(CLUSTER_TEMPLATES)].format(
            a=rng.randint(1, 99), b=rng.randint(0, 9), c=rng.randint(0, 9)
        )
        for i in range(count)
    ]


def template_raw_logs(count: int = 100, seed: int = 42) -> list[str]:
    """Full raw logs (banner + progress padding + failure body)."""
    rng = random.Random(seed)
    logs = []
    for i in range(count):
        t = i % len(CLUSTER_TEMPLATES)
        body = CLUSTER_TEMPLATES[t].format(
            a=rng.randint(1, 99), b=rng.randint(0, 9), c=rng.randint(0, 9)
        )
        pad = "\n".join(f"#{t + 2} {0.1 * k:.3f} step output line {k}" for k in range(1, 6))
        logs.append(
            "#1 [internal] load build definition\n#1 DONE 0.0s\n"
            f"> [{t + 1}/{t + 2}] {_CLUSTER_STEPS[t]}:\n{pad}\n{body}\n"
        )
    return logs


# Line texts for preprocessing corpora: progress output, rule hits, veto
# bait, and case edges where `str.lower` changes length or script.
_PROGRESS_TEXTS = [
    "Reading package lists...",
    "compiling unit {i} with -O2",
    "Get:{i} http://deb.debian.org/debian bookworm InRelease [151 kB]",
    "Collecting requests==2.{i}.0",
    "step output line {i}",
    "Istanbul mirror selected",
    "strasse {i} resolved",
    "kelvin scale {i}",
]
_HIT_TEXTS = [
    "error: externally-managed-environment",
    'ERROR: process "/bin/sh -c make" did not complete successfully: exit code: {i}',
    "E: Unable to locate package libfoo{i}",
    "npm ERR! 404 Not Found - GET https://registry.npmjs.org/pkg-{i}",
    "fatal: unable to access 'https://github.com/acme/w{i}.git/'",
    "open /etc/app.conf: permission DENIED",
    "Cannot find module 'left-pad'",
    "warning: error-shaped but excluded",
    "WARNING: harmless deprecation, retry failed once",
    "İSTANBUL mirror unreachable",
    "STRAẞE {i} not found",
    "\u212aELVIN probe failed",
    "boooom in unit {i}",
    "matched a.b and (x) and [1/2] and * literally",
]


def _decorate(text: str, rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.1:
        return f"\x1b[31m{text}\x1b[0m"
    if roll < 0.15:
        return f"progress 10%\x1b[2K\r{text}"
    return text


def _corpus_line(rng: random.Random, i: int, error_rate: float) -> str:
    roll = rng.random()
    if roll < 0.06:
        return rng.choice(["", "   "])
    pool = _HIT_TEXTS if roll < 0.06 + error_rate else _PROGRESS_TEXTS
    return _decorate(rng.choice(pool).format(i=i), rng)


def _banner(shape: str, stage: int, rng: random.Random) -> str:
    if shape == "timed":
        return f"#{stage + 3} [{stage}/4] RUN step {stage}"
    if shape == "classic":
        return f"> [{stage}/4] RUN step {stage}:"
    k = stage % 2 + 1  # multi-stage builds restart the [i/k] numbering
    return rng.choice(
        [f"> [build-env {k}/2] RUN go build", f"=> CACHED [stage-1 {k}/2] COPY . /src", f"> [{k}/2] RUN make:"]
    )


def preprocess_corpus(count: int = 60, seed: int = 7) -> list[str]:
    """Seeded raw logs in three shapes, for differential preprocessing tests.

    Timed logs carry BuildKit `#N t.ttt` or bare `t.ttt` timings, several
    lines per second; multi-stage logs restart their `[i/k]` numbering under
    named and CACHED banners; classic logs are untimed. Lines before the
    first banner form a preamble, and every fifth log has no banner at all.
    Every eighth log has enough rule hits to pass EXCERPT_LINE_CAP.
    """
    rng = random.Random(seed)
    logs = []
    for n in range(count):
        shape = ("timed", "multi-stage", "classic")[n % 3]
        over_cap = n % 8 == 7
        error_rate = 0.5 if over_cap else rng.choice([0.02, 0.1, 0.25])
        size = rng.randint(300, 900) if over_cap else rng.randint(0, 160)
        stages = 0 if n % 5 == 0 else rng.randint(1, 4)
        banners = set(rng.sample(range(size), min(stages, size)))
        out = [_corpus_line(rng, i, error_rate) for i in range(rng.randint(0, 4))]
        t = 0.0
        stage = 0
        for i in range(size):
            if i in banners:
                stage += 1
                out.append(_decorate(_banner(shape, stage, rng), rng))
                continue
            text = _corpus_line(rng, i, error_rate)
            if shape == "timed" and text.strip():
                t += rng.choice([0.01, 0.05, 0.2, 0.7])
                text = f"#5 {t:.3f} {text}" if rng.random() < 0.8 else f"  {t:.3f} {text}"
            out.append(text)
        logs.append("\n".join(out) + rng.choice(["", "\n"]))
    return logs


def outcome(status: str, log: str = "", duration: float = 1.0, exit_code=None) -> ScriptedOutcome:
    return ScriptedOutcome(status=status, log=log, exit_code=exit_code, duration=duration)


def driver_for(outcomes: list[ScriptedOutcome]) -> SimulatedDriver:
    """Simulated driver with a single default script."""
    return SimulatedDriver([BuildScript(None, outcomes)])


def driver_with_scripts(scripts: dict[str | None, list[ScriptedOutcome]]) -> SimulatedDriver:
    """Simulated driver keyed by document-content markers (None = default)."""
    return SimulatedDriver([BuildScript(match, list(o)) for match, o in scripts.items()])


def fenced(dockerfile_text: str) -> str:
    return f"Here is the corrected file:\n```dockerfile\n{dockerfile_text}```\n"


# --- reference implementations for differential tests ---


def reference_hash_embedding(text: str, dim: int = 256) -> np.ndarray:
    """The offline embedder without memos: one blake2b per character 3-gram."""
    lowered = text.lower()
    grams = [lowered[i : i + 3] for i in range(len(lowered) - 2)] if len(lowered) >= 3 else [lowered]
    acc = np.zeros(dim, dtype=np.float64)
    for gram in grams:
        h = int.from_bytes(hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest(), "big")
        acc[h % dim] += 1.0 if h & (1 << 63) else -1.0
    norm = float(np.linalg.norm(acc))
    if norm > 0.0:
        acc /= norm
    return acc.astype(np.float32)


def reference_clustering(
    vectors: list[list[float]], threshold: float
) -> list[tuple[int, dict[int, float]]]:
    """Member-mean clustering that compares each vector with every member.

    A vector joins the first cluster with the highest mean cosine similarity
    to its members when that mean reaches the threshold, otherwise it starts
    a new cluster. Returns, for each vector in input order, its cluster id and
    the mean similarity to each cluster that existed before it joined.
    """
    norms = [math.sqrt(sum(x * x for x in v)) for v in vectors]

    def cosine(i: int, j: int) -> float:
        return sum(x * y for x, y in zip(vectors[i], vectors[j])) / (norms[i] * norms[j])

    clusters: list[list[int]] = []  # member positions per cluster
    steps = []
    for i in range(len(vectors)):
        best_id, best_mean = None, -2.0
        means = {}
        for cid, members in enumerate(clusters):
            mean = means[cid] = sum(cosine(i, m) for m in members) / len(members)
            if mean > best_mean:
                best_id, best_mean = cid, mean
        if best_id is not None and best_mean >= threshold:
            clusters[best_id].append(i)
        else:
            best_id = len(clusters)
            clusters.append([i])
        steps.append((best_id, means))
    return steps


_REFERENCE_ANSI_RE = re.compile(r"\x1b\[[0-9;?]*[ -/]*[@-~]")


def _reference_strip_ansi(line: str) -> str:
    line = _REFERENCE_ANSI_RE.sub("", line)
    if "\r" in line:
        line = line.rsplit("\r", 1)[-1]
    return line


def reference_match_names(rules: RuleSet, line: str) -> list[str]:
    """`RuleSet.match_names` as first written: each rule lowercases the line."""

    def matches(rule) -> bool:
        if rule.kind == "substr":
            return rule.pattern.lower() in line.lower()
        return rule.compiled.search(line) is not None

    if any(matches(r) for r in rules.rules if r.exclude):
        return []
    return [r.source for r in rules.rules if not r.exclude and matches(r)]


def reference_extract_error_context(
    sections: list[StageSection], rules: RuleSet
) -> PreprocessedLog:
    """`extract_error_context` as first written: every timed match rescans its stage."""
    total_in = sum(len(s.lines) for s in sections)
    total_in += sum(1 for s in sections if s.header is not None)

    rule_hits: dict[str, int] = {}
    raw_excerpts: list[tuple[StageSection, list[int]]] = []
    for section in sections:
        match_idx: list[int] = []
        for idx, logline in enumerate(section.lines):
            names = reference_match_names(rules, _reference_strip_ansi(logline.text))
            if names:
                match_idx.append(idx)
                for name in names:
                    rule_hits[name] = rule_hits.get(name, 0) + 1
        if not match_idx:
            continue
        keep = set(match_idx)
        if not section.is_preamble:
            for mi in match_idx:
                ts = section.lines[mi].timestamp
                if ts is not None:
                    bucket = int(ts)
                    keep.update(
                        i
                        for i, ll in enumerate(section.lines)
                        if ll.timestamp is not None
                        and int(ll.timestamp) == bucket
                        and ll.text.strip()
                    )
                else:
                    lo = max(0, mi - ADJACENCY_RADIUS)
                    hi = min(len(section.lines), mi + ADJACENCY_RADIUS + 1)
                    keep.update(
                        i for i in range(lo, hi) if section.lines[i].text.strip()
                    )
        raw_excerpts.append((section, sorted(keep)))

    total_kept = sum(len(idx) for _, idx in raw_excerpts)
    if total_kept > EXCERPT_LINE_CAP:
        flat = [(pos, idx) for pos, (_, kept) in enumerate(raw_excerpts) for idx in kept]
        head = flat[: EXCERPT_LINE_CAP // 2]
        tail = flat[len(flat) - EXCERPT_LINE_CAP // 2:]
        selected: dict[int, list[int]] = {}
        for pos, idx in head + tail:
            selected.setdefault(pos, []).append(idx)
        raw_excerpts = [
            (raw_excerpts[pos][0], sorted(set(idxs))) for pos, idxs in sorted(selected.items())
        ]
        total_kept = sum(len(idx) for _, idx in raw_excerpts)

    excerpts = tuple(
        Excerpt(section.stage_index, section.header, tuple(section.lines[i].text for i in kept))
        for section, kept in raw_excerpts
    )
    assert all(
        list(ex.kept_lines) == [ll.text for i, ll in enumerate(sec.lines) if i in set(kept)]
        for ex, (sec, kept) in zip(excerpts, raw_excerpts)
    )
    return PreprocessedLog(excerpts, total_in, total_kept, rule_hits)


def _reference_validate_record(record: demo_store.DemonstrationRecord) -> None:
    rid = record.id
    if not rid:
        raise SchemaViolation("<unknown>", "id", "record id is empty")
    if not record.static_part.strip():
        raise SchemaViolation(rid, "static_part", "empty build definition")
    if not record.dynamic_part.strip():
        raise SchemaViolation(rid, "dynamic_part", "empty build output excerpt")
    if len(record.repairs) < 1:
        raise SchemaViolation(rid, "repairs", "at least one repair is required")
    if len(record.repairs) != len(record.iterations):
        raise SchemaViolation(
            rid,
            "iterations",
            f"{len(record.iterations)} iteration counts for {len(record.repairs)} repairs",
        )
    if any(i < 1 for i in record.iterations):
        raise SchemaViolation(rid, "iterations", "iteration counts must be >= 1")
    for pos, repair in enumerate(record.repairs):
        try:
            parse_dockerfile(repair)
        except FlakiDockError as exc:
            raise SchemaViolation(rid, f"repairs[{pos}]", f"does not parse: {exc}") from exc
    record.category.validate()


def _reference_record_from_dict(payload: dict) -> demo_store.DemonstrationRecord:
    rid = str(payload.get("id", ""))
    try:
        return demo_store.DemonstrationRecord(
            id=rid,
            static_part=str(payload["static_part"]),
            dynamic_part=str(payload["dynamic_part"]),
            category=demo_store.FlakinessCategory.from_string(str(payload["category"])),
            repairs=tuple(str(r) for r in payload["repairs"]),
            iterations=tuple(int(i) for i in payload["iterations"]),
        )
    except (KeyError, TypeError) as exc:
        raise SchemaViolation(rid or "<unknown>", str(exc), "missing or mistyped field") from exc
    except ValueError as exc:
        raise SchemaViolation(rid or "<unknown>", "category", str(exc)) from exc


def _reference_read_vectors(path: Path, expected_rows: int) -> np.ndarray:
    blob = path.read_bytes()
    if len(blob) < 4:
        raise StoreError(f"{path}: truncated vector file")
    (dim,) = struct.unpack("<I", blob[:4])
    data = np.frombuffer(blob, dtype="<f4", offset=4)
    if dim == 0 or data.size % dim != 0:
        raise StoreError(f"{path}: vector payload is not a multiple of dim {dim}")
    rows = data.reshape(-1, dim)
    if rows.shape[0] != expected_rows:
        raise StoreError(
            f"{path}: {rows.shape[0]} vectors for {expected_rows} records"
        )
    unusable = np.flatnonzero(~rows.any(axis=1) | ~np.isfinite(rows).all(axis=1))
    if unusable.size:
        raise StoreError(f"{path}: vector {unusable[0]} is zero or not finite")
    return rows


def reference_load_store(path, embedding_provider=None) -> demo_store.DemonstrationIndex:
    """`load_store` as it was when every repair was parsed into a document and
    each record was rebuilt with `dataclasses.replace` to attach its vector."""
    path = Path(path)
    if path.is_dir():
        records_path, vectors_path = path / "records.jsonl", path / "vectors.bin"
    else:
        records_path, vectors_path = path, path.with_name("vectors.bin")
    if not records_path.exists():
        raise StoreError(f"store not found: {records_path}")

    with open(records_path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise VersionMismatch(f"{records_path}: missing schema version header")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise VersionMismatch(f"{records_path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict) or header.get("schema") != demo_store.SCHEMA_NAME:
        raise VersionMismatch(f"{records_path}: not a {demo_store.SCHEMA_NAME} file")
    if header.get("version") != demo_store.SCHEMA_VERSION:
        raise VersionMismatch(
            f"{records_path}: schema version {header.get('version')!r}, "
            f"supported {demo_store.SCHEMA_VERSION}"
        )

    records = []
    seen: set[str] = set()
    for line in lines[1:]:
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaViolation("<unknown>", "json", f"unreadable record line: {exc}") from exc
        record = _reference_record_from_dict(payload)
        _reference_validate_record(record)
        if record.id in seen:
            raise SchemaViolation(record.id, "id", "duplicate record id")
        seen.add(record.id)
        records.append(record)

    if vectors_path.exists():
        rows = _reference_read_vectors(vectors_path, len(records))
        records = [
            dataclasses.replace(rec, embedding=demo_store.EmbeddingVector(row, row.size, "stored"))
            for rec, row in zip(records, rows)
        ]
        return demo_store.DemonstrationIndex(records, rows)
    if records:
        if embedding_provider is None:
            raise StoreError(
                f"{vectors_path} is missing and no embedding provider was supplied"
            )
        records = [
            dataclasses.replace(rec, embedding=demo_store.embed(rec.combined_text(), embedding_provider))
            for rec in records
        ]
    return demo_store.DemonstrationIndex(records)
