"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from flakidock import demo_store
from flakidock.build_engine import BuildScript, ScriptedOutcome, SimulatedDriver
from flakidock.dockerfile_model import parse_dockerfile
from flakidock.errors import (
    DimensionMismatch,
    EmptyDocument,
    FlakiDockError,
    MalformedEncoding,
    SchemaViolation,
    StoreError,
    VersionMismatch,
)
from flakidock.log_preprocess import (
    ADJACENCY_RADIUS,
    EXCERPT_LINE_CAP,
    RuleSet,
    load_exclusion_filters,
)
from flakidock.similarity import embed

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


def split_series(journal: list[dict]) -> list[list[dict]]:
    """A session's `builds.jsonl` records cut into its build series.

    A series stops at its first record that is not a success, and a series of
    n successes ends the session, so each series but the last ends at its
    first non-success record and the last one runs to the journal's end.
    """
    series, current = [], []
    for record in journal:
        current.append(record)
        if record["status"] != "success":
            series.append(current)
            current = []
    return series + [current] if current else series


# --- reference implementations for differential tests ---


def reference_parse_dockerfile(text: bytes | str) -> tuple[str, int, str]:
    """(raw_text, stage_count, content_hash) by the instruction-tree parser the
    package had before a document became its text: every line goes to one
    blank line or one instruction, an instruction's first word is its keyword,
    the stage count is the number of FROM keywords, and the hash is sha256 of
    the text reassembled from those parts. It keeps that parser's one gap: a
    str holding a lone surrogate parses, and its hash raises
    UnicodeEncodeError."""
    bom = "\ufeff"
    had_bom = False
    if isinstance(text, bytes):
        if text.startswith(b"\xef\xbb\xbf"):
            had_bom, text = True, text[3:]
        try:
            body = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedEncoding(f"input is not valid UTF-8: {exc}") from exc
    else:
        body = text
        if body.startswith(bom):
            had_bom, body = True, body[len(bom):]
    raw_text = (bom if had_bom else "") + body
    if not body or body.isspace():
        raise EmptyDocument("no instructions found")

    def strip_eol(line: str) -> str:
        line = line[:-1] if line.endswith("\n") else line
        return line[:-1] if line.endswith("\r") else line

    lines = re.findall(r"[^\n]*\n|[^\n]+", body)
    parts: dict[int, str] = {}  # line number -> raw line, from blanks and instructions
    keywords: list[str] = []
    i = 0
    while i < len(lines):
        stripped = strip_eol(lines[i])
        if not stripped.strip():
            parts[i + 1] = lines[i]
            i += 1
            continue
        if stripped.lstrip().startswith("#"):
            keywords.append("COMMENT")
            parts[i + 1] = lines[i]
            i += 1
            continue
        start, logical = i, []
        while True:
            part = strip_eol(lines[i])
            continued = part.rstrip().endswith("\\") and i + 1 < len(lines)
            logical.append(part.rstrip()[:-1] if continued else part)
            i += 1
            if not continued:
                break
        match = re.match(r"\s*(\S+)\s?", "".join(logical))
        keywords.append("UNKNOWN" if match is None else match.group(1).upper())
        for offset, line in enumerate(re.findall(r"[^\n]*\n|[^\n]+", "".join(lines[start:i]))):
            parts[start + 1 + offset] = line
    serialized = (bom if had_bom else "") + "".join(parts[n] for n in sorted(parts))
    content_hash = hashlib.sha256(serialized.encode("utf-8")).hexdigest()
    return raw_text, keywords.count("FROM"), content_hash



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


# Tab, newline and printable ASCII without A-Z: every character that ASCII
# text can hold once lowercased, apart from the other control characters.
_TABLE_ALPHABET = "\t\n" + "".join(chr(c) for c in range(0x20, 0x7F) if not "A" <= chr(c) <= "Z")


def reference_trigram_table() -> bytes:
    """The bytes of `src/flakidock/data/trigram_codes.bin`, one blake2b per gram string.

    Gram (a, b, c) of _TABLE_ALPHABET sits at index (a*71 + b)*71 + c
    as a little-endian uint16: the low 15 bits of its blake2b-64, and the
    digest's top (sign) bit as bit 15. This builder is the file's only
    source; the README gives the command that regenerates it.
    """
    codes = np.empty(len(_TABLE_ALPHABET) ** 3, dtype="<u2")
    for i, (a, b, c) in enumerate(itertools.product(_TABLE_ALPHABET, repeat=3)):
        h = int.from_bytes(hashlib.blake2b((a + b + c).encode("utf-8"), digest_size=8).digest(), "big")
        codes[i] = h & 0x7FFF | (h >> 63) << 15
    return codes.tobytes()


def reference_retrieve_top_k(query, store, k: int, provider) -> list[tuple[object, float]]:
    """`retrieve_top_k` as it was when it scored every row of the store."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(store) == 0:
        return []
    q = embed(query.combined_text, provider).astype(np.float64)
    matrix, norms = store.scan()
    if matrix.shape[1] != q.shape[0]:
        raise DimensionMismatch(f"store dim {matrix.shape[1]} vs query dim {q.shape[0]}")
    # einsum gives identical rows identical scores wherever they sit; a BLAS
    # matrix-vector product may not, which would break the id tie rule.
    sims = np.einsum("ij,j->i", matrix, q) / (norms * np.linalg.norm(q))
    kth = max(len(sims) - k, 0)
    rows = np.flatnonzero(sims >= np.partition(sims, kth)[kth])  # the k best, ties included
    ranked = sorted(rows, key=lambda i: (-sims[i], store.records[i].id))[:k]
    return [(store.records[i], float(sims[i])) for i in ranked]


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


def reference_strip_ansi(line: str) -> str:
    line = _REFERENCE_ANSI_RE.sub("", line)
    if "\r" in line:
        line = line.rsplit("\r", 1)[-1]
    return line


_REFERENCE_BANNER_RE = re.compile(
    r"^\s*(?:#\d+\s+)?(?:=>\s+|>\s+)?(?:CACHED\s+)?\[(?:[\w.-]+\s+)?\d+/\d+\]"
)
_REFERENCE_TIMED_RE = re.compile(r"^#\d+\s+(\d+\.\d+)\s")
_REFERENCE_BARE_TIMED_RE = re.compile(r"^\s*(\d+\.\d+)\s+\S")


def reference_segment_stages(log: str) -> list[tuple]:
    """`segment_stages` as it was when each line was de-escaped for the banner
    and timestamp checks and again for matching; one
    `(stage_index, header, is_preamble, [(timestamp, text), ...])` per section."""
    preamble = (-1, None, True, [])
    sections = []
    current = preamble
    for line in log.splitlines():
        plain = reference_strip_ansi(line)
        if _REFERENCE_BANNER_RE.match(plain):
            current = (len(sections), line, False, [])
            sections.append(current)
            continue
        m = _REFERENCE_TIMED_RE.match(plain) or _REFERENCE_BARE_TIMED_RE.match(plain)
        timestamp = None
        if m:
            try:
                value = float(m.group(1))
            except ValueError:
                value = math.inf
            timestamp = value if math.isfinite(value) else None
        current[3].append((timestamp, line))
    if preamble[3] or not sections:
        sections.insert(0, preamble)
    return sections


def reference_match_names(rules: RuleSet, line: str) -> list[str]:
    """`RuleSet.match_names` as first written: each rule lowercases the line."""

    def matches(rule) -> bool:
        if rule.kind == "substr":
            return rule.pattern.lower() in line.lower()
        return rule.compiled.search(line) is not None

    if any(matches(r) for r in rules.rules if r.exclude):
        return []
    return [r.source for r in rules.rules if not r.exclude and matches(r)]


@dataclass(frozen=True)
class ReferenceExcerpt:
    """What `reference_preprocess_log` returns, with the accessors the tests read."""

    lines: tuple[str, ...]
    total_lines_in: int
    total_lines_out: int
    rule_hits: dict[str, int]

    def as_text(self) -> str:
        return "\n".join(self.lines)


def reference_preprocess_log(log: str, rules: RuleSet) -> ReferenceExcerpt:
    """`preprocess_log` with none of the program's segmentation, matching or
    extraction: `reference_segment_stages`, then the first extractor."""
    return _reference_extract(reference_segment_stages(log), rules)


def _reference_extract(sections: list[tuple], rules: RuleSet) -> ReferenceExcerpt:
    """The first extractor over sections shaped as `reference_segment_stages`
    returns them: `(stage_index, header, is_preamble, [(timestamp, text), ...])`."""
    total_in = sum(len(lines) for _, _, _, lines in sections)
    total_in += sum(1 for _, header, _, _ in sections if header is not None)

    rule_hits: dict[str, int] = {}
    raw_excerpts: list[tuple[tuple, list[int]]] = []
    for section in sections:
        _, _, is_preamble, lines = section
        match_idx: list[int] = []
        for idx, (_, text) in enumerate(lines):
            names = reference_match_names(rules, reference_strip_ansi(text))
            if names:
                match_idx.append(idx)
                for name in names:
                    rule_hits[name] = rule_hits.get(name, 0) + 1
        if not match_idx:
            continue
        keep = set(match_idx)
        if not is_preamble:
            for mi in match_idx:
                ts = lines[mi][0]
                if ts is not None:
                    bucket = int(ts)
                    keep.update(
                        i
                        for i, (t, text) in enumerate(lines)
                        if t is not None and int(t) == bucket and reference_strip_ansi(text).strip()
                    )
                else:
                    lo = max(0, mi - ADJACENCY_RADIUS)
                    hi = min(len(lines), mi + ADJACENCY_RADIUS + 1)
                    keep.update(i for i in range(lo, hi) if reference_strip_ansi(lines[i][1]).strip())
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

    # Excerpts are ANSI-free: header and kept lines are de-escaped. Each kept
    # stage gives its header, if any, then its kept lines.
    excerpts = [
        (
            [] if header is None else [reference_strip_ansi(header)],
            [reference_strip_ansi(lines[i][1]) for i in kept],
        )
        for (_, header, _, lines), kept in raw_excerpts
    ]
    assert all(
        kept_lines
        == [reference_strip_ansi(text) for i, (_, text) in enumerate(sec[3]) if i in set(kept)]
        for (_, kept_lines), (sec, kept) in zip(excerpts, raw_excerpts)
    )
    lines = tuple(line for header, kept_lines in excerpts for line in header + kept_lines)
    return ReferenceExcerpt(lines, total_in, total_kept, rule_hits)


def reference_classify_failure_exclusion(
    text: str, filters: dict[str, RuleSet] | None = None
) -> str | None:
    """`classify_failure_exclusion` as it was before the filters shared one
    literal scan: each filter in turn checks every "\\n"-split line, in the
    shipped order, and the first filter with a matching line wins."""
    filters = filters if filters is not None else load_exclusion_filters()
    lines = text.split("\n")
    for name in ("infrastructure", "docker-server", "project-source"):
        ruleset = filters.get(name)
        if ruleset is not None and any(reference_match_names(ruleset, line) for line in lines):
            return name
    return None


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
    if not all(isinstance(i, int) and not isinstance(i, bool) for i in record.iterations):
        raise SchemaViolation(rid, "iterations", "iteration counts must be integers")
    if any(i < 1 for i in record.iterations):
        raise SchemaViolation(rid, "iterations", "iteration counts must be >= 1")
    for pos, repair in enumerate(record.repairs):
        try:
            parse_dockerfile(repair)
        except FlakiDockError as exc:
            raise SchemaViolation(rid, f"repairs[{pos}]", f"does not parse: {exc}") from exc
    record.category.validate()


def _reference_record_from_dict(payload: dict) -> demo_store.DemonstrationRecord:
    """A record as the shipped schema types it: six fields, no conversion."""
    if not isinstance(payload, dict):
        raise SchemaViolation("<unknown>", "json", "record line is not a JSON object")
    rid = payload.get("id") if isinstance(payload.get("id"), str) else ""
    rid = rid or "<unknown>"
    extra = set(payload) - {"id", "static_part", "dynamic_part", "category", "repairs", "iterations"}
    if extra:
        raise SchemaViolation(rid, min(extra), "unknown field")
    for key in ("id", "static_part", "dynamic_part", "category"):
        if not isinstance(payload.get(key), str):
            raise SchemaViolation(rid, key, "missing or mistyped field")
    for key in ("repairs", "iterations"):
        if not isinstance(payload.get(key), list):
            raise SchemaViolation(rid, key, "missing or mistyped field")
    if not all(isinstance(r, str) for r in payload["repairs"]):
        raise SchemaViolation(rid, "repairs", "repairs must be strings")
    try:
        category = demo_store.FlakinessCategory.from_string(payload["category"])
    except ValueError as exc:
        raise SchemaViolation(rid, "category", str(exc)) from exc
    return demo_store.DemonstrationRecord(
        id=payload["id"],
        static_part=payload["static_part"],
        dynamic_part=payload["dynamic_part"],
        category=category,
        repairs=tuple(payload["repairs"]),
        iterations=tuple(payload["iterations"]),
    )


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
    records were read before their vectors. Records are split on "\n" only,
    the store's record rule: `save_store` writes U+0085, U+2028 and U+2029 raw,
    and a raw "\r" is JSON whitespace. Each line is decoded as strict UTF-8,
    without the "\r" that ends it, when it is reached, so of a bad record and a
    line that is not UTF-8 the one first in the file is reported."""
    path = Path(path)
    if path.is_dir():
        records_path, vectors_path = path / "records.jsonl", path / "vectors.bin"
    else:
        records_path, vectors_path = path, path.with_name("vectors.bin")
    if not records_path.exists():
        raise StoreError(f"store not found: {records_path}")

    def decoded_lines():
        for number, raw in enumerate(records_path.read_bytes().split(b"\n"), 1):
            try:
                line = raw.rstrip(b"\r").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise StoreError(f"{records_path}: not UTF-8: line {number}: {exc}") from exc
            if line.strip():
                yield line

    lines = decoded_lines()
    first = next(lines, None)
    if first is None:
        raise VersionMismatch(f"{records_path}: missing schema version header")
    try:
        header = json.loads(first)
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
    for line in lines:
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
        return demo_store.DemonstrationIndex(records, rows)
    if not records:
        return demo_store.DemonstrationIndex(records)
    if embedding_provider is None:
        raise StoreError(
            f"{vectors_path} is missing and no embedding provider was supplied"
        )
    rows = [demo_store.embed(rec.combined_text(), embedding_provider) for rec in records]
    return demo_store.DemonstrationIndex(records, np.array(rows, dtype=np.float32))


def reference_save_store(index: demo_store.DemonstrationIndex, path) -> None:
    """`save_store` as it was when each record went through its own `json.dumps`
    and both files were truncated and rewritten in place."""
    path = Path(path)
    if path.is_dir():
        records_path, vectors_path = path / "records.jsonl", path / "vectors.bin"
    else:
        records_path, vectors_path = path, path.with_name("vectors.bin")
    records_path.parent.mkdir(parents=True, exist_ok=True)
    with open(records_path, "w", encoding="utf-8") as fh:
        header = {"schema": demo_store.SCHEMA_NAME, "version": demo_store.SCHEMA_VERSION}
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
        for record in index.records:
            payload = {
                "id": record.id,
                "static_part": record.static_part,
                "dynamic_part": record.dynamic_part,
                "category": record.category.as_string(),
                "repairs": list(record.repairs),
                "iterations": list(record.iterations),
            }
            fh.write(
                json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
                + "\n"
            )
    if len(index):
        with open(vectors_path, "wb") as fh:
            fh.write(struct.pack("<I", index.matrix.shape[1]))
            fh.write(np.ascontiguousarray(index.matrix, dtype="<f4"))
    elif vectors_path.exists():
        vectors_path.unlink()
