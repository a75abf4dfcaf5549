"""Demonstration dataset: record schema, flakiness taxonomy, store files.

A store is a JSONL file with a version header line followed by one record
per line, plus a sibling `vectors.bin` holding the record embeddings
(`<uint32 dim>` header, then row-major float32 values in record order).
Serialization is canonical (sorted keys, fixed separators) so that
save(load(path)) round-trips byte-identically. A save back to the files an
index last loaded or wrote, unchanged since, appends only the records added
since then; any other save replaces both files.
"""

from __future__ import annotations

import functools
import json
import logging
import operator
import os
import struct
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path

from . import _numpy as np
# `parse_dockerfile` stays importable from here: bench/tracing.py wraps it by this name.
from .dockerfile_model import has_instructions, parse_dockerfile  # noqa: F401
from .durable import append_line, appending, replacing
from .errors import DimensionMismatch, SchemaViolation, StoreError, VersionMismatch
from .providers import EmbeddingProvider
from .similarity import combine_static_dynamic, embed

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

    def known(self) -> bool:
        """Whether the shipped vocabulary holds the subcategory, if there is one."""
        return self.sub is None or self.sub in taxonomy()[self.major.value]

    def validate(self) -> None:
        self._check_shape()
        if not self.known():
            # Taxonomies evolve; accept but flag so stats can skip it.
            log.warning("unknown subcategory %r for %s (not in shipped vocabulary)", self.sub, self.major.value)

    def as_string(self) -> str:
        return f"{self.major.value}/{self.sub}" if self.sub else self.major.value

    @classmethod
    def from_string(cls, text: str) -> "FlakinessCategory":
        """Parse `MAJOR[/sub]`; the vocabulary is checked by `validate`, once."""
        major_part, _, sub_part = text.partition("/")
        cat = cls(MajorCategory(major_part.strip()), sub_part.strip() or None)
        cat._check_shape()
        return cat


@dataclass(frozen=True, slots=True)
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
    _check_fields(record.id, record.static_part, record.dynamic_part, record.repairs, record.iterations)
    record.category.validate()


def _check_fields(rid, static_part, dynamic_part, repairs, iterations) -> None:
    """Every record check but the category's, in the order its errors are reported."""
    if not rid:
        raise SchemaViolation("<unknown>", "id", "record id is empty")
    if not static_part or static_part.isspace():
        raise SchemaViolation(rid, "static_part", "empty build definition")
    if not dynamic_part or dynamic_part.isspace():
        raise SchemaViolation(rid, "dynamic_part", "empty build output excerpt")
    if len(repairs) < 1:
        raise SchemaViolation(rid, "repairs", "at least one repair is required")
    if len(repairs) != len(iterations):
        raise SchemaViolation(rid, "iterations", f"{len(iterations)} iteration counts for {len(repairs)} repairs")
    # `_record_line` writes counts with int.__repr__, which writes a bool as 1, not true.
    for count in iterations:
        if type(count) is not int:
            raise SchemaViolation(rid, "iterations", "iteration counts must be integers")
    if min(iterations) < 1:  # there is one count per repair, and at least one repair
        raise SchemaViolation(rid, "iterations", "iteration counts must be >= 1")
    for pos, repair in enumerate(repairs):
        if not has_instructions(repair):
            raise SchemaViolation(rid, f"repairs[{pos}]", "does not parse: no instructions found")


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


# Each record field with the Python type its JSON value must have, as loaded.
_FIELD_TYPES = {"id": str, "static_part": str, "dynamic_part": str, "category": str,
                "repairs": list, "iterations": list}
_field_values = operator.itemgetter(*_FIELD_TYPES)
_FIELD_KINDS = tuple(_FIELD_TYPES.values())


def _checked_record(payload, categories: dict) -> DemonstrationRecord:
    """The record a JSON line holds, each field taken as its JSON type,
    unconverted, and checked as `validate_record` checks a record."""
    if type(payload) is not dict:
        raise SchemaViolation("<unknown>", "json", "record line is not a JSON object")
    if payload.keys() != _FIELD_TYPES.keys() or tuple(map(type, _field_values(payload))) != _FIELD_KINDS:
        rid = payload.get("id")
        rid = rid if type(rid) is str and rid else "<unknown>"
        unknown = payload.keys() - _FIELD_TYPES.keys()
        if unknown:
            raise SchemaViolation(rid, min(unknown), "unknown field")
        for key, kind in _FIELD_TYPES.items():
            if type(payload.get(key)) is not kind:
                raise SchemaViolation(rid, key, "missing or mistyped field")
    rid, static_part, dynamic_part, text, repairs, iterations = _field_values(payload)
    for repair in repairs:
        if type(repair) is not str:
            raise SchemaViolation(rid or "<unknown>", "repairs", "repairs must be strings")
    parsed = categories.get(text)
    if parsed is None:
        try:
            category = FlakinessCategory.from_string(text)
        except ValueError as exc:
            raise SchemaViolation(rid or "<unknown>", "category", str(exc)) from exc
        parsed = categories[text] = category, category.known()
    category, known = parsed
    _check_fields(rid, static_part, dynamic_part, repairs, iterations)
    if not known:
        category.validate()  # warns, once per record
    return DemonstrationRecord(rid, static_part, dynamic_part, category, tuple(repairs), tuple(iterations))


class DemonstrationIndex:
    """Loaded store: records in file order plus their embedding matrix.

    Inserts write into spare rows of a buffer that doubles when full, so an
    insert costs amortised O(1) row copies; `matrix` and the norms are views
    of the first len(self) buffer rows. An index is not used from a second
    thread while one adds to it.
    """

    def __init__(self, records: list[DemonstrationRecord], matrix: np.ndarray | None = None):
        """`matrix` holds the records' float32 embeddings as its rows, in order;
        it may be left out only for an empty index."""
        if matrix is None:
            matrix = np.zeros((0, 0), np.float32)
        if len(matrix) != len(records):
            raise StoreError(f"{len(matrix)} embedding rows for {len(records)} records")
        self.records = records
        self.by_id = {r.id: r for r in records}
        self.matrix = self._row_buffer = matrix
        self._norms = self._norm_buffer = _row_norms(matrix)
        self._saved = None  # (records file, vectors file, rows, dim) last loaded or written

    def __len__(self) -> int:
        return len(self.records)

    def scan(self) -> tuple[np.ndarray, np.ndarray]:
        """The embedding matrix and its float64 row norms."""
        return self.matrix, self._norms

    def add(self, record: DemonstrationRecord, provider: EmbeddingProvider) -> None:
        validate_record(record)
        if record.id in self.by_id:
            raise SchemaViolation(record.id, "id", "duplicate record id")
        n = len(self)
        if n and provider.dim != self.matrix.shape[1]:
            raise DimensionMismatch(f"store dim {self.matrix.shape[1]} vs record dim {provider.dim}")
        vec = embed(record.combined_text(), provider)
        if n == len(self._norm_buffer):  # full, or still the read-only loaded rows
            rows, norms = np.empty((2 * n or 1, vec.size), np.float32), np.empty(2 * n or 1)
            if n:
                rows[:n], norms[:n] = self.matrix, self._norms
            self._row_buffer, self._norm_buffer = rows, norms
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
    norms = np.empty(len(matrix))
    for start in range(0, len(matrix), _NORM_BLOCK):
        block = matrix[start : start + _NORM_BLOCK].astype(np.float64)
        norms[start : start + _NORM_BLOCK] = np.linalg.norm(block, axis=1)
    return norms


def store_files(path) -> tuple[Path, Path]:
    path = Path(path)
    if path.is_dir():
        return path / "records.jsonl", path / "vectors.bin"
    return path, path.with_name("vectors.bin")


def load_store(path, embedding_provider: EmbeddingProvider | None = None) -> DemonstrationIndex:
    """Load and validate a demonstration store.

    Missing vectors are recomputed through the given provider (flagged with
    a warning); without a provider that situation is an error.
    """
    records_path, vectors_path = store_files(path)
    if not records_path.exists():
        raise StoreError(f"store not found: {records_path}")

    records: list[DemonstrationRecord] = []
    seen: set[str] = set()
    categories: dict = {}  # each category string read so far: (category, known)
    with open(records_path, "rb") as fh:
        records_file = _signature(os.fstat(fh.fileno()))
        lines = _text_lines(fh, records_path)
        header = next(lines, None)
        if header is None:
            raise VersionMismatch(f"{records_path}: missing schema version header")
        try:
            header = json.loads(header)
        except json.JSONDecodeError as exc:
            raise VersionMismatch(f"{records_path}: unreadable header: {exc}") from exc
        if not isinstance(header, dict) or header.get("schema") != SCHEMA_NAME:
            raise VersionMismatch(f"{records_path}: not a {SCHEMA_NAME} file")
        if header.get("version") != SCHEMA_VERSION:
            raise VersionMismatch(f"{records_path}: schema version {header.get('version')!r}, "
                                  f"supported {SCHEMA_VERSION}")
        for line in lines:
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaViolation("<unknown>", "json", f"unreadable record line: {exc}") from exc
            record = _checked_record(payload, categories)
            if record.id in seen:
                raise SchemaViolation(record.id, "id", "duplicate record id")
            seen.add(record.id)
            records.append(record)

    # A bad vector file is reported only after every record has passed.
    if vectors_path.exists():
        rows, vectors_file = _read_vectors(vectors_path, len(records))
        index = DemonstrationIndex(records, rows)
        index._saved = (records_file, vectors_file, len(records), rows.shape[1])
        return index
    if not records:
        return DemonstrationIndex(records)
    if embedding_provider is None:
        raise StoreError(f"{vectors_path} is missing and no embedding provider was supplied")
    log.warning("vectors missing for %s; recomputing %d embeddings", records_path, len(records))
    rows = np.stack([embed(rec.combined_text(), embedding_provider) for rec in records])
    return DemonstrationIndex(records, rows)


def _text_lines(fh, path: Path):
    """The non-blank lines of a binary file, each decoded as strict UTF-8 when reached, without
    its line end. A line ends at `\n` only: save_store writes U+0085, U+2028 and U+2029 raw."""
    for number, line in enumerate(fh, 1):
        try:
            text = line.rstrip(b"\r\n").decode()
        except UnicodeDecodeError as exc:
            raise StoreError(f"{path}: not UTF-8: line {number}: {exc}") from exc
        if text and not text.isspace():
            yield text


_SAVE_BLOCK = 1024  # records joined into one write


def _signature(stat: os.stat_result) -> tuple:
    return stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns


def _files_state(records_path: Path, vectors_path: Path, rows: int, dim: int) -> tuple | None:
    """Both files' signatures now, with `rows` and `dim`; None when one is missing."""
    try:
        return _signature(os.stat(records_path)), _signature(os.stat(vectors_path)), rows, dim
    except FileNotFoundError:
        return None


def save_store(index: DemonstrationIndex, path) -> None:
    """Write the index's matrix rows and their records (canonical JSON).
    A save back to the files the index last loaded or wrote, unchanged since
    (device, inode, size, mtime) and of its dim, appends the records added
    since: rows to vectors.bin, then lines to records.jsonl; an exception
    before the lines are in undoes the rows. Any other save writes both files
    whole, then over their targets, vectors first; an exception before the
    first replace leaves the old store. A kill between the two writes of
    either kind leaves a store that does not load (N vectors for M records)."""
    records_path, vectors_path = store_files(path)
    matrix, _ = index.scan()
    rows, dim = matrix.shape
    records = index.records[:rows]
    saved = index._saved
    if saved is not None and _files_state(records_path, vectors_path, saved[2], dim) == saved:
        lines = "".join(map(_record_line, records[saved[2] :])).encode()  # before any write
        if lines:
            with appending(vectors_path, np.ascontiguousarray(matrix[saved[2] :], dtype="<f4").tobytes()):
                append_line(records_path, lines)
    else:
        records_path.parent.mkdir(parents=True, exist_ok=True)
        with replacing(records_path) as records_fh:
            header = {"schema": SCHEMA_NAME, "version": SCHEMA_VERSION}
            records_fh.write((json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n").encode())
            for start in range(0, rows, _SAVE_BLOCK):
                records_fh.write("".join(map(_record_line, records[start : start + _SAVE_BLOCK])).encode())
            if rows:
                with replacing(vectors_path) as fh:
                    fh.write(struct.pack("<I", dim))
                    fh.write(np.ascontiguousarray(matrix, dtype="<f4"))
        if not rows:
            vectors_path.unlink(missing_ok=True)
    index._saved = _files_state(records_path, vectors_path, rows, dim)


def _read_vectors(path: Path, expected_rows: int) -> tuple[np.ndarray, tuple]:
    """The stored float32 rows, read-only and without a copy of the file's bytes,
    and the file's signature as it was before the read."""
    with open(path, "rb") as fh:
        signature = _signature(os.fstat(fh.fileno()))
        blob = fh.read()
    if len(blob) < 4:
        raise StoreError(f"{path}: truncated vector file")
    (dim,) = struct.unpack("<I", blob[:4])
    if dim == 0 or (len(blob) - 4) % (4 * dim):
        raise StoreError(f"{path}: vector payload is not a multiple of dim {dim}")
    rows = np.frombuffer(blob, dtype="<f4", offset=4).reshape(-1, dim)
    if rows.shape[0] != expected_rows:
        raise StoreError(f"{path}: {rows.shape[0]} vectors for {expected_rows} records")
    # Retrieval divides by row norms: a zero or non-finite row has no cosine.
    unusable = np.flatnonzero(~rows.any(axis=1) | ~np.isfinite(rows).all(axis=1))
    if unusable.size:
        raise StoreError(f"{path}: vector {unusable[0]} is zero or not finite")
    return rows, signature


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
