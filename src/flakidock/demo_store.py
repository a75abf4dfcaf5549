"""Demonstration dataset: record schema, flakiness taxonomy, store files.

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
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

# `parse_dockerfile` stays importable from here: bench/tracing.py wraps it by this name.
from .dockerfile_model import has_instructions, parse_dockerfile  # noqa: F401
from .durable import replacing
from .errors import DimensionMismatch, SchemaViolation, StoreError, VersionMismatch
from .providers import EmbeddingProvider
from .similarity import combine_static_dynamic, embed

if TYPE_CHECKING:
    import numpy as np

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

    def _check_shape(self) -> None:
        if self.major is MajorCategory.MISC and self.sub is not None:
            raise ValueError("MISC carries no subcategory")

    def validate(self) -> None:
        self._check_shape()
        if self.sub is not None and self.sub not in taxonomy()[self.major.value]:
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
        """Parse `MAJOR[/sub]`; the vocabulary is checked by `validate`, once."""
        major_part, _, sub_part = text.partition("/")
        cat = cls(MajorCategory(major_part.strip()), sub_part.strip() or None)
        cat._check_shape()
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
    # `_record_line` writes counts with int.__repr__, which writes a bool as 1, not true.
    if any(type(i) is not int for i in record.iterations):
        raise SchemaViolation(rid, "iterations", "iteration counts must be integers")
    if any(i < 1 for i in record.iterations):
        raise SchemaViolation(rid, "iterations", "iteration counts must be >= 1")
    for pos, repair in enumerate(record.repairs):
        if not has_instructions(repair):
            raise SchemaViolation(rid, f"repairs[{pos}]", "does not parse: no instructions found")
    record.category.validate()


# The escape json.dumps(..., ensure_ascii=False) applies to a str: quotes,
# backslashes and control characters; other characters stay raw.
_quote = json.encoder.encode_basestring


def _record_line(record: DemonstrationRecord) -> str:
    """The record's canonical JSON line: keys sorted, no spaces, non-ASCII raw."""
    return (
        f'{{"category":{_quote(record.category.as_string())}'
        f',"dynamic_part":{_quote(record.dynamic_part)}'
        f',"id":{_quote(record.id)}'
        f',"iterations":[{",".join(map(int.__repr__, record.iterations))}]'
        f',"repairs":[{",".join(map(_quote, record.repairs))}]'
        f',"static_part":{_quote(record.static_part)}}}\n'
    )


def _record_from_dict(payload: dict) -> DemonstrationRecord:
    rid = str(payload.get("id", ""))
    try:
        return DemonstrationRecord(
            id=rid,
            static_part=str(payload["static_part"]),
            dynamic_part=str(payload["dynamic_part"]),
            category=FlakinessCategory.from_string(str(payload["category"])),
            repairs=tuple(str(r) for r in payload["repairs"]),
            iterations=_counts(rid, payload["iterations"]),
        )
    except (KeyError, TypeError) as exc:
        raise SchemaViolation(rid or "<unknown>", str(exc), "missing or mistyped field") from exc
    except ValueError as exc:
        raise SchemaViolation(rid or "<unknown>", "category", str(exc)) from exc


def _counts(rid: str, values) -> tuple[int, ...]:
    try:
        return tuple(int(i) for i in values)
    except ValueError as exc:
        raise SchemaViolation(rid or "<unknown>", "iterations", str(exc)) from exc


class DemonstrationIndex:
    """Loaded store: records in file order plus their embedding matrix.

    Reads are lock-free; inserts serialize through a writer lock. Inserts
    write into spare rows of a buffer that doubles when full, so an insert
    costs amortised O(1) row copies; `matrix` and the norms are views of the
    first len(self) buffer rows.
    """

    def __init__(self, records: list[DemonstrationRecord], matrix: np.ndarray | None = None):
        """`matrix` holds the records' float32 embeddings as its rows, in order;
        it may be left out only for an empty index."""
        import numpy as np

        if matrix is None:
            matrix = np.zeros((0, 0), np.float32)
        if len(matrix) != len(records):
            raise StoreError(f"{len(matrix)} embedding rows for {len(records)} records")
        self._writer_lock = threading.Lock()
        self.records = records
        self.by_id = {r.id: r for r in records}
        self.matrix = self._row_buffer = matrix
        self._norms = self._norm_buffer = _row_norms(matrix)

    def __len__(self) -> int:
        return len(self.records)

    def scan(self) -> tuple[np.ndarray, np.ndarray]:
        """Matching (embedding matrix, float64 row norms), safe during an add()."""
        norms = self._norms  # add() publishes the matrix first, then the norms
        return self.matrix[: len(norms)], norms

    def add(self, record: DemonstrationRecord, provider: EmbeddingProvider) -> None:
        import numpy as np

        validate_record(record)
        # Both checked again under the lock; here they save a provider call.
        if record.id in self.by_id:
            raise SchemaViolation(record.id, "id", "duplicate record id")
        if len(self) and provider.dim != self.matrix.shape[1]:
            raise DimensionMismatch(f"store dim {self.matrix.shape[1]} vs record dim {provider.dim}")
        vec = embed(record.combined_text(), provider)
        with self._writer_lock:
            if record.id in self.by_id:
                raise SchemaViolation(record.id, "id", "duplicate record id")
            n, dim = len(self._norms), vec.size
            if n and dim != self.matrix.shape[1]:
                raise DimensionMismatch(f"store dim {self.matrix.shape[1]} vs record dim {dim}")
            if n == len(self._norm_buffer):  # full, or still the read-only loaded rows
                rows, norms = np.empty((2 * n or 1, dim), np.float32), np.empty(2 * n or 1)
                if n:
                    rows[:n], norms[:n] = self.matrix, self._norms
                self._row_buffer, self._norm_buffer = rows, norms
            # Rows past the published views are invisible to readers until published.
            self._row_buffer[n] = vec
            self._norm_buffer[n : n + 1] = _row_norms(self._row_buffer[n : n + 1])
            self.records.append(record)
            self.by_id[record.id] = record
            self.matrix = self._row_buffer[: n + 1]
            self._norms = self._norm_buffer[: n + 1]


_NORM_BLOCK = 4096  # rows per float64 copy when taking row norms


def _row_norms(matrix: np.ndarray) -> np.ndarray:
    """float64 Euclidean norm of each row, converting a block of rows at a time
    so that no float64 copy of the whole matrix is made."""
    import numpy as np

    norms = np.empty(len(matrix))
    for start in range(0, len(matrix), _NORM_BLOCK):
        block = matrix[start : start + _NORM_BLOCK].astype(np.float64)
        norms[start : start + _NORM_BLOCK] = np.linalg.norm(block, axis=1)
    return norms


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
        try:
            lines = [line for line in fh.read().split("\n") if line.strip()]
        except UnicodeDecodeError as exc:
            raise StoreError(f"{records_path}: not UTF-8: {exc}") from exc
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

    records: list[DemonstrationRecord] = []
    seen: set[str] = set()
    for line in lines[1:]:
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaViolation("<unknown>", "json", f"unreadable record line: {exc}") from exc
        record = _record_from_dict(payload)
        validate_record(record)
        if record.id in seen:
            raise SchemaViolation(record.id, "id", "duplicate record id")
        seen.add(record.id)
        records.append(record)

    # A bad vector file is reported only after every record has passed.
    if vectors_path.exists():
        return DemonstrationIndex(records, _read_vectors(vectors_path, len(records)))
    if not records:
        return DemonstrationIndex(records)
    if embedding_provider is None:
        raise StoreError(f"{vectors_path} is missing and no embedding provider was supplied")
    log.warning("vectors missing for %s; recomputing %d embeddings", records_path, len(records))
    import numpy as np

    rows = np.stack([embed(rec.combined_text(), embedding_provider) for rec in records])
    return DemonstrationIndex(records, rows)


_SAVE_BLOCK = 1024  # records joined into one write


def save_store(index: DemonstrationIndex, path) -> None:
    """Write records.jsonl (canonical JSON) and vectors.bin, each whole and then
    over its target, vectors first. A save that fails before the first replace
    leaves the old store; one killed between the two leaves a store that does
    not load (new vectors beside old records)."""
    records_path, vectors_path = _resolve_paths(path)
    records_path.parent.mkdir(parents=True, exist_ok=True)
    records = index.records
    with replacing(records_path) as records_fh:
        header = {"schema": SCHEMA_NAME, "version": SCHEMA_VERSION}
        records_fh.write((json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n").encode())
        for start in range(0, len(records), _SAVE_BLOCK):
            records_fh.write("".join(map(_record_line, records[start : start + _SAVE_BLOCK])).encode())
        if len(index):
            import numpy as np

            with replacing(vectors_path) as fh:
                fh.write(struct.pack("<I", index.matrix.shape[1]))
                fh.write(np.ascontiguousarray(index.matrix, dtype="<f4"))
    if not len(index):
        vectors_path.unlink(missing_ok=True)


def _read_vectors(path: Path, expected_rows: int) -> np.ndarray:
    """The stored float32 rows, read-only and without a copy of the file's bytes."""
    import numpy as np

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


# Section labels of a Dockerfile and its build output in the repair prompt.
STATIC_LABEL = "--- DOCKERFILE ---"
DYNAMIC_LABEL = "--- BUILD OUTPUT ---"
