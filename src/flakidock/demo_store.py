"""Demonstration dataset: record schema, flakiness taxonomy, labeling.

A store is a JSONL file with a version header line followed by one record
per line, plus a sibling `vectors.bin` holding the record embeddings
(`<uint32 dim>` header, then row-major float32 values in record order).
Serialization is canonical (sorted keys, fixed separators) so that
save(load(path)) round-trips byte-identically.
"""

from __future__ import annotations

import functools
import json
import logging
import struct
import threading
from dataclasses import dataclass, replace
from enum import Enum
from importlib import resources
from pathlib import Path

import numpy as np

# `parse_dockerfile` stays importable from here: bench/tracing.py wraps it by this name.
from .dockerfile_model import has_instructions, parse_dockerfile  # noqa: F401
from .errors import DimensionMismatch, SchemaViolation, StoreError, VersionMismatch
from .log_preprocess import RuleSet
from .providers import EmbeddingProvider, TextGenerationProvider
from .similarity import EmbeddingVector, combine_static_dynamic, embed

log = logging.getLogger(__name__)

SCHEMA_NAME = "flakidock-demo-store"
SCHEMA_VERSION = 1


class MajorCategory(str, Enum):
    DEP = "DEP"  # dependency retrieval / installation / post-installation
    CON = "CON"  # web server connectivity
    SEC = "SEC"  # security and authentication
    PMG = "PMG"  # package manager internals
    ENV = "ENV"  # virtual environment management / configuration
    FS = "FS"  # filesystem operations
    MISC = "MISC"


@functools.cache
def taxonomy() -> dict[str, list[str]]:
    """Subcategory vocabulary per major category (shipped data file).

    Read once per process; every caller shares the result, so do not mutate it.
    """
    data = resources.files("flakidock").joinpath("data/taxonomy.json")
    return json.loads(data.read_text(encoding="utf-8"))


@dataclass(frozen=True)
class FlakinessCategory:
    major: MajorCategory
    sub: str | None = None

    def validate(self) -> None:
        vocab = taxonomy()[self.major.value]
        if self.major is MajorCategory.MISC and self.sub is not None:
            raise ValueError("MISC carries no subcategory")
        if self.sub is not None and self.sub not in vocab:
            # Taxonomies evolve; accept but flag so stats can skip it.
            log.warning(
                "unknown subcategory %r for %s (not in shipped vocabulary)",
                self.sub,
                self.major.value,
            )

    def as_string(self) -> str:
        return f"{self.major.value}/{self.sub}" if self.sub else self.major.value

    @classmethod
    def from_string(cls, text: str) -> "FlakinessCategory":
        major_part, _, sub_part = text.partition("/")
        major = MajorCategory(major_part.strip())
        sub = sub_part.strip() or None
        cat = cls(major, sub)
        cat.validate()
        return cat


@dataclass(frozen=True)
class DemonstrationRecord:
    """One repaired-flakiness example used as a retrieval demonstration."""

    id: str
    static_part: str  # the flaky build definition
    dynamic_part: str  # its preprocessed failing build output
    category: FlakinessCategory
    repairs: tuple[str, ...]
    iterations: tuple[int, ...]  # validation builds each repair survived
    embedding: EmbeddingVector | None = None

    def combined_text(self) -> str:
        return combine_static_dynamic(self.static_part, self.dynamic_part)


def validate_record(record: DemonstrationRecord) -> None:
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
        if not has_instructions(repair):
            raise SchemaViolation(rid, f"repairs[{pos}]", "does not parse: no instructions found")
    record.category.validate()


def _record_to_dict(record: DemonstrationRecord) -> dict:
    return {
        "id": record.id,
        "static_part": record.static_part,
        "dynamic_part": record.dynamic_part,
        "category": record.category.as_string(),
        "repairs": list(record.repairs),
        "iterations": list(record.iterations),
    }


def _record_from_dict(payload: dict, embedding: EmbeddingVector | None) -> DemonstrationRecord:
    rid = str(payload.get("id", ""))
    try:
        return DemonstrationRecord(
            id=rid,
            static_part=str(payload["static_part"]),
            dynamic_part=str(payload["dynamic_part"]),
            category=FlakinessCategory.from_string(str(payload["category"])),
            repairs=tuple(str(r) for r in payload["repairs"]),
            iterations=tuple(int(i) for i in payload["iterations"]),
            embedding=embedding,
        )
    except (KeyError, TypeError) as exc:
        raise SchemaViolation(rid or "<unknown>", str(exc), "missing or mistyped field") from exc
    except ValueError as exc:
        raise SchemaViolation(rid or "<unknown>", "category", str(exc)) from exc


class DemonstrationIndex:
    """Loaded store: records in file order plus their embedding matrix.

    Reads are lock-free; inserts serialize through a writer lock. Inserts
    write into spare rows of a buffer that doubles when full, so an insert
    costs amortised O(1) row copies; `matrix` and the norms are views of the
    first len(self) buffer rows.
    """

    def __init__(self, records: list[DemonstrationRecord], matrix: np.ndarray | None = None):
        """`matrix`, when given, holds the records' embeddings as its rows, in order."""
        self._writer_lock = threading.Lock()
        self.records = records
        self.by_id = {r.id: r for r in records}
        if any(r.embedding is None for r in records):
            raise StoreError("every indexed record needs an embedding")
        dims = {r.embedding.dim for r in records}
        if len(dims) > 1:
            raise StoreError(f"mixed embedding dims in store: {sorted(dims)}")
        if matrix is None:
            rows = [r.embedding.values for r in records]
            matrix = np.asarray(rows, dtype=np.float32) if rows else np.zeros((0, 0), np.float32)
        self.matrix = self._row_buffer = matrix
        self._norms = self._norm_buffer = np.linalg.norm(matrix.astype(np.float64), axis=1)

    def __len__(self) -> int:
        return len(self.records)

    def scan(self) -> tuple[np.ndarray, np.ndarray]:
        """Matching (embedding matrix, float64 row norms), safe during an add()."""
        norms = self._norms  # add() publishes the matrix first, then the norms
        return self.matrix[: len(norms)], norms

    def add(self, record: DemonstrationRecord, provider: EmbeddingProvider) -> None:
        validate_record(record)
        if record.embedding is None:
            record = replace(record, embedding=embed(record.combined_text(), provider))
        with self._writer_lock:
            if record.id in self.by_id:
                raise SchemaViolation(record.id, "id", "duplicate record id")
            n, dim = len(self._norms), record.embedding.dim
            if n and dim != self.matrix.shape[1]:
                raise DimensionMismatch(f"store dim {self.matrix.shape[1]} vs record dim {dim}")
            if n == len(self._norm_buffer):  # full, or still the read-only loaded rows
                rows, norms = np.empty((2 * n or 1, dim), np.float32), np.empty(2 * n or 1)
                if n:
                    rows[:n], norms[:n] = self.matrix, self._norms
                self._row_buffer, self._norm_buffer = rows, norms
            # Rows past the published views are invisible to readers until published.
            self._row_buffer[n] = record.embedding.values
            self._norm_buffer[n] = np.linalg.norm(
                self._row_buffer[n : n + 1].astype(np.float64), axis=1
            )[0]
            self.records.append(record)
            self.by_id[record.id] = record
            self.matrix = self._row_buffer[: n + 1]
            self._norms = self._norm_buffer[: n + 1]


def _resolve_paths(path) -> tuple[Path, Path]:
    path = Path(path)
    if path.is_dir():
        return path / "records.jsonl", path / "vectors.bin"
    return path, path.with_name("vectors.bin")


def load_store(path, embedding_provider: EmbeddingProvider | None = None) -> DemonstrationIndex:
    """Load and validate a demonstration store.

    Missing vectors are recomputed through the given provider (flagged with
    a warning); without a provider that situation is an error.
    """
    records_path, vectors_path = _resolve_paths(path)
    if not records_path.exists():
        raise StoreError(f"store not found: {records_path}")

    # One record per `\n`: save_store writes U+0085, U+2028 and U+2029 raw inside
    # strings, and `str.splitlines` would cut a record at them.
    with open(records_path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().split("\n") if line.strip()]
    if not lines:
        raise VersionMismatch(f"{records_path}: missing schema version header")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise VersionMismatch(f"{records_path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict) or header.get("schema") != SCHEMA_NAME:
        raise VersionMismatch(f"{records_path}: not a {SCHEMA_NAME} file")
    if header.get("version") != SCHEMA_VERSION:
        raise VersionMismatch(
            f"{records_path}: schema version {header.get('version')!r}, "
            f"supported {SCHEMA_VERSION}"
        )

    # The vectors are read first so that each record is built once, with its
    # row; a bad vector file is reported only after every record has passed.
    rows = vector_error = None
    if vectors_path.exists():
        try:
            rows = _read_vectors(vectors_path, len(lines) - 1)
        except (OSError, StoreError) as exc:
            vector_error = exc

    records: list[DemonstrationRecord] = []
    seen: set[str] = set()
    for pos, line in enumerate(lines[1:]):
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaViolation("<unknown>", "json", f"unreadable record line: {exc}") from exc
        embedding = None if rows is None else EmbeddingVector(rows[pos], rows.shape[1], "stored")
        record = _record_from_dict(payload, embedding)
        validate_record(record)
        if record.id in seen:
            raise SchemaViolation(record.id, "id", "duplicate record id")
        seen.add(record.id)
        records.append(record)

    if vector_error is not None:
        raise vector_error
    if rows is not None:
        return DemonstrationIndex(records, rows)
    if records:
        if embedding_provider is None:
            raise StoreError(
                f"{vectors_path} is missing and no embedding provider was supplied"
            )
        log.warning("vectors missing for %s; recomputing %d embeddings", records_path, len(records))
        records = [
            replace(rec, embedding=embed(rec.combined_text(), embedding_provider))
            for rec in records
        ]
    return DemonstrationIndex(records)


def save_store(index: DemonstrationIndex, path) -> None:
    """Write records.jsonl (canonical JSON) and vectors.bin."""
    records_path, vectors_path = _resolve_paths(path)
    records_path.parent.mkdir(parents=True, exist_ok=True)
    with open(records_path, "w", encoding="utf-8") as fh:
        header = {"schema": SCHEMA_NAME, "version": SCHEMA_VERSION}
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
        for record in index.records:
            fh.write(
                json.dumps(
                    _record_to_dict(record),
                    sort_keys=True,
                    separators=(",", ":"),
                    ensure_ascii=False,
                )
                + "\n"
            )
    if len(index):
        with open(vectors_path, "wb") as fh:
            fh.write(struct.pack("<I", index.matrix.shape[1]))
            fh.write(np.ascontiguousarray(index.matrix, dtype="<f4"))
    elif vectors_path.exists():
        vectors_path.unlink()


def _read_vectors(path: Path, expected_rows: int) -> np.ndarray:
    """The stored float32 rows, read-only and without a copy of the file's bytes."""
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
    # Retrieval divides by row norms: a zero or non-finite row has no cosine.
    unusable = np.flatnonzero(~rows.any(axis=1) | ~np.isfinite(rows).all(axis=1))
    if unusable.size:
        raise StoreError(f"{path}: vector {unusable[0]} is zero or not finite")
    return rows


def builtin_store_path() -> Path:
    """Path of the small demonstration store shipped with the package."""
    return Path(str(resources.files("flakidock").joinpath("data/starter_store.jsonl")))


@dataclass(frozen=True)
class CategoryShare:
    count: int
    fraction: float


def category_stats(index: DemonstrationIndex) -> dict[MajorCategory, CategoryShare]:
    """Record count and fraction per major category (empty store -> empty map)."""
    counts: dict[MajorCategory, int] = {}
    for record in index.records:
        counts[record.category.major] = counts.get(record.category.major, 0) + 1
    total = sum(counts.values())
    return {
        major: CategoryShare(count, count / total)
        for major, count in sorted(counts.items(), key=lambda kv: kv[0].value)
    }


# --- provider-assisted labeling ---

# Section labels shared with the repair prompt.
STATIC_LABEL = "--- DOCKERFILE ---"
DYNAMIC_LABEL = "--- BUILD OUTPUT ---"

_LABEL_PROMPT = """You are triaging an intermittently failing container image build.
Given the build definition and the error excerpt from its build output, list the
factors contributing to the failure, then assign one category code.

Category codes:
  DEP  - dependency retrieval, installation, or post-installation errors
  CON  - external server connectivity errors
  SEC  - security, authentication, or key verification errors
  PMG  - package manager internal errors
  ENV  - virtual environment management or configuration errors
  FS   - filesystem operation errors
  MISC - anything that fits none of the above

{dockerfile_label}
{static_part}

{output_label}
{dynamic_part}

Respond with one factor per line prefixed by "- ", followed by a final line:
CATEGORY: <code> / <optional subcategory>
"""


@dataclass(frozen=True)
class LabelSuggestion:
    category: FlakinessCategory
    contributing_factors: tuple[str, ...]
    raw_response: str


_MAJOR_TOKENS = {m.value for m in MajorCategory}


def suggest_label(
    static_part: str,
    dynamic_part: str,
    provider: TextGenerationProvider,
) -> LabelSuggestion:
    """Ask the generation provider for contributing factors and a category.

    Anything unparseable maps to MISC with the raw response attached for
    human review rather than raising.
    """
    if not dynamic_part.strip():
        raise ValueError("dynamic part must be non-empty for labeling")
    prompt = _LABEL_PROMPT.format(
        dockerfile_label=STATIC_LABEL,
        static_part=static_part,
        output_label=DYNAMIC_LABEL,
        dynamic_part=dynamic_part,
    )
    raw = provider.generate(prompt)

    factors = tuple(
        line.lstrip("-* ").strip()
        for line in raw.splitlines()
        if line.strip().startswith(("-", "*")) and line.lstrip("-* ").strip()
    )
    category = _parse_category(raw)
    if category is None:
        return LabelSuggestion(FlakinessCategory(MajorCategory.MISC), factors, raw)
    return LabelSuggestion(category, factors, raw)


def _parse_category(raw: str) -> FlakinessCategory | None:
    import re

    match = re.search(r"\b(DEP|CON|SEC|PMG|ENV|FS|MISC)\b", raw)
    if not match:
        return None
    major = MajorCategory(match.group(1))
    rest = raw[match.end():].splitlines()[0] if raw[match.end():] else ""
    sub = None
    if "/" in rest:
        candidate = rest.split("/", 1)[1].strip().rstrip(".")
        if candidate and major is not MajorCategory.MISC:
            sub = candidate
    cat = FlakinessCategory(major, sub)
    cat.validate()
    return cat


# --- failure-cause exclusion filters ---

_FILTER_NAMES = ("infrastructure", "docker-server", "project-source")


def load_exclusion_filters() -> dict[str, RuleSet]:
    """The shipped pre-label predicates that remove non-flaky failure causes."""
    filters = {}
    for name in _FILTER_NAMES:
        data = resources.files("flakidock").joinpath(f"data/filters/{name}.rules")
        filters[name] = RuleSet.from_lines(data.read_text(encoding="utf-8").splitlines())
    return filters


def classify_failure_exclusion(
    preprocessed_text: str, filters: dict[str, RuleSet] | None = None
) -> str | None:
    """Name of the first exclusion filter matching the failure, if any.

    A non-None result means the failure should not count toward flakiness:
    its cause lies in the infrastructure, the engine backend, or the project
    source rather than the build definition.
    """
    filters = filters if filters is not None else load_exclusion_filters()
    for name in _FILTER_NAMES:
        ruleset = filters.get(name)
        if ruleset is None:
            continue
        for line in preprocessed_text.splitlines():
            if ruleset.match_names(line):
                return name
    return None
