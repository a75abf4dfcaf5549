from __future__ import annotations

import dataclasses
import gc
import json
import logging
import random
import string
import struct
import tempfile
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flakidock import demo_store, dockerfile_model
from flakidock.demo_store import (
    DemonstrationIndex,
    DemonstrationRecord,
    FlakinessCategory,
    MajorCategory,
    builtin_store_path,
    category_stats,
    load_store,
    save_store,
    taxonomy,
    validate_record,
)
from flakidock.errors import DimensionMismatch, SchemaViolation, StoreError, VersionMismatch
from flakidock.log_preprocess import classify_failure_exclusion, load_exclusion_filters
from flakidock.providers import HashingEmbeddingProvider
from flakidock.similarity import embed

from support import (
    ALPINE_PIP,
    ALPINE_PIP_LOG,
    ALPINE_PIP_REPAIRED,
    _reference_read_vectors,
    reference_load_store,
    reference_save_store,
)


def _record(rid: str, major: str = "MISC", sub: str | None = None, repairs=1) -> DemonstrationRecord:
    return DemonstrationRecord(
        id=rid,
        static_part=f"FROM busybox\nRUN job-{rid}\n",
        dynamic_part=f"error: job {rid} exploded",
        category=FlakinessCategory(MajorCategory(major), sub),
        repairs=tuple(f"FROM busybox\nRUN fixed-{rid}-{i}\n" for i in range(repairs)),
        iterations=tuple(2 for _ in range(repairs)),
    )


# Repair counts per category in the bundled hundred-record fixture.
TABLE_COUNTS = {"DEP": 63, "CON": 6, "SEC": 9, "PMG": 8, "ENV": 10, "FS": 4}


def _hundred_record_index(provider) -> DemonstrationIndex:
    index = DemonstrationIndex([])
    i = 0
    for major, count in TABLE_COUNTS.items():
        for _ in range(count):
            index.add(_record(f"rec-{i:03d}", major), provider)
            i += 1
    return index


class TestValidation:
    def test_valid_record_passes(self):
        validate_record(_record("ok-1", "DEP", "Versioning Issues"))

    def test_mismatched_iterations_named(self):
        record = DemonstrationRecord(
            id="bad-iter",
            static_part="FROM busybox\n",
            dynamic_part="error: x",
            category=FlakinessCategory(MajorCategory.DEP),
            repairs=("FROM a\n", "FROM b\n"),
            iterations=(1,),
        )
        with pytest.raises(SchemaViolation) as excinfo:
            validate_record(record)
        assert excinfo.value.record_id == "bad-iter"
        assert excinfo.value.field == "iterations"

    def test_empty_repairs_rejected(self):
        record = DemonstrationRecord(
            id="no-repairs",
            static_part="FROM busybox\n",
            dynamic_part="error: x",
            category=FlakinessCategory(MajorCategory.DEP),
            repairs=(),
            iterations=(),
        )
        with pytest.raises(SchemaViolation):
            validate_record(record)

    def test_unparseable_repair_rejected(self):
        record = DemonstrationRecord(
            id="bad-repair",
            static_part="FROM busybox\n",
            dynamic_part="error: x",
            category=FlakinessCategory(MajorCategory.DEP),
            repairs=("",),
            iterations=(1,),
        )
        with pytest.raises(SchemaViolation) as excinfo:
            validate_record(record)
        assert "repairs[0]" == excinfo.value.field

    def test_zero_iteration_rejected(self):
        record = DemonstrationRecord(
            id="zero-iter",
            static_part="FROM busybox\n",
            dynamic_part="error: x",
            category=FlakinessCategory(MajorCategory.DEP),
            repairs=("FROM a\n",),
            iterations=(0,),
        )
        with pytest.raises(SchemaViolation):
            validate_record(record)

    @pytest.mark.parametrize("count", [True, 2.0])
    def test_count_that_is_not_an_int_rejected(self, count):
        record = dataclasses.replace(_record("not-int"), iterations=(count,))
        with pytest.raises(SchemaViolation) as excinfo:
            validate_record(record)
        assert excinfo.value.field == "iterations"

    def test_misc_with_sub_rejected(self):
        with pytest.raises(ValueError):
            FlakinessCategory.from_string("MISC/Anything")

    def test_taxonomy_shape(self):
        vocab = taxonomy()
        assert set(vocab) == {m.value for m in MajorCategory}
        assert len(vocab["DEP"]) == 11
        assert "Timeout Issues" in vocab["CON"]
        assert "GPG Key Issues" in vocab["SEC"]
        assert "Internal/Cache Issues" in vocab["PMG"]
        assert "Environment Configuration Issues" in vocab["ENV"]
        assert "I/O Issues" in vocab["FS"]
        assert vocab["MISC"] == []


class TestStoreIO:
    def test_load_three_record_fixture(self, tmp_path, offline_provider):
        index = DemonstrationIndex([])
        for i in range(3):
            index.add(_record(f"r{i}"), offline_provider)
        save_store(index, tmp_path / "records.jsonl")
        loaded = load_store(tmp_path / "records.jsonl")
        assert len(loaded) == 3

    def test_duplicate_ids_rejected(self, tmp_path, offline_provider):
        index = DemonstrationIndex([])
        index.add(_record("dup"), offline_provider)
        save_store(index, tmp_path / "records.jsonl")
        lines = (tmp_path / "records.jsonl").read_text().splitlines()
        (tmp_path / "records.jsonl").write_text("\n".join(lines + [lines[1]]) + "\n")
        (tmp_path / "vectors.bin").unlink()
        with pytest.raises(SchemaViolation) as excinfo:
            load_store(tmp_path / "records.jsonl", offline_provider)
        assert excinfo.value.record_id == "dup"

    def test_missing_header_is_version_mismatch(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text("")
        with pytest.raises(VersionMismatch):
            load_store(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps({"schema": "flakidock-demo-store", "version": 99}) + "\n")
        with pytest.raises(VersionMismatch):
            load_store(path)

    def test_schema_violation_names_record_and_field(self, tmp_path, offline_provider):
        header = json.dumps({"schema": "flakidock-demo-store", "version": 1})
        bad = json.dumps(
            {
                "id": "broken-record",
                "static_part": "FROM a\n",
                "dynamic_part": "error: y",
                "category": "DEP",
                "repairs": ["FROM b\n", "FROM c\n"],
                "iterations": [1],
            }
        )
        path = tmp_path / "records.jsonl"
        path.write_text(header + "\n" + bad + "\n")
        with pytest.raises(SchemaViolation) as excinfo:
            load_store(path, offline_provider)
        assert excinfo.value.record_id == "broken-record"
        assert excinfo.value.field == "iterations"

    def test_unparseable_count_names_iterations(self, tmp_path):
        payloads = _store_payloads(3, 1)
        payloads[1]["iterations"] = ["x"]
        with pytest.raises(SchemaViolation) as excinfo:
            load_store(_write_store(tmp_path, payloads, _store_vectors(3, 1)))
        assert (excinfo.value.record_id, excinfo.value.field) == ("rec-00001", "iterations")

    def test_unknown_subcategory_warned_once_per_record(self, tmp_path, caplog):
        payloads = _store_payloads(3, 1)
        payloads[2]["category"] = "DEP/Made Up"
        path = _write_store(tmp_path, payloads, _store_vectors(3, 1))
        with caplog.at_level(logging.WARNING, logger="flakidock.demo_store"):
            load_store(path)
        assert sum("unknown subcategory" in r.getMessage() for r in caplog.records) == 1

    def test_canonical_round_trip(self, tmp_path, offline_provider):
        index = DemonstrationIndex([])
        for i in range(5):
            index.add(_record(f"rt-{i}", "DEP" if i % 2 else "CON"), offline_provider)
        first = tmp_path / "a" / "records.jsonl"
        save_store(index, first)
        reloaded = load_store(first)
        second = tmp_path / "b" / "records.jsonl"
        save_store(reloaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert (tmp_path / "a" / "vectors.bin").read_bytes() == (
            tmp_path / "b" / "vectors.bin"
        ).read_bytes()

    def test_loading_a_store_reads_the_taxonomy_at_most_once(
        self, tmp_path, offline_provider, monkeypatch
    ):
        index = DemonstrationIndex([])
        for i in range(4):
            index.add(_record(f"tx-{i}", "DEP", "Versioning Issues"), offline_provider)
        save_store(index, tmp_path / "records.jsonl")
        reads = []
        files = demo_store.resources.files
        monkeypatch.setattr(
            demo_store, "resources", SimpleNamespace(files=lambda pkg: reads.append(pkg) or files(pkg))
        )
        taxonomy.cache_clear()
        load_store(tmp_path / "records.jsonl")
        assert len(reads) <= 1

    @pytest.mark.parametrize("bad", [0.0, float("nan")])
    def test_unusable_stored_vector_rejected(self, tmp_path, offline_provider, bad):
        index = DemonstrationIndex([])
        for i in range(3):
            index.add(_record(f"zv-{i}"), offline_provider)
        save_store(index, tmp_path / "records.jsonl")
        vectors = tmp_path / "vectors.bin"
        blob = bytearray(vectors.read_bytes())
        dim = offline_provider.dim
        blob[4 + 4 * dim : 4 + 8 * dim] = np.full(dim, bad, dtype="<f4").tobytes()  # record 1
        vectors.write_bytes(bytes(blob))
        with pytest.raises(StoreError, match="vector 1"):
            load_store(tmp_path / "records.jsonl")

    def test_vectors_recomputed_when_missing(self, tmp_path, offline_provider):
        index = DemonstrationIndex([])
        index.add(_record("nv"), offline_provider)
        save_store(index, tmp_path / "records.jsonl")
        (tmp_path / "vectors.bin").unlink()
        loaded = load_store(tmp_path / "records.jsonl", offline_provider)
        assert loaded.matrix.dtype == np.float32 and loaded.matrix.shape == (1, offline_provider.dim)
        assert loaded.matrix.tobytes() == index.matrix.tobytes()
        with pytest.raises(StoreError):
            load_store(tmp_path / "records.jsonl")  # no provider to recompute

    def test_builtin_store_loads(self, offline_provider):
        index = load_store(builtin_store_path(), offline_provider)
        assert len(index) >= 6
        majors = {r.category.major for r in index.records}
        assert {
            MajorCategory.DEP,
            MajorCategory.CON,
            MajorCategory.SEC,
            MajorCategory.PMG,
            MajorCategory.ENV,
            MajorCategory.FS,
        } <= majors


class TestStats:
    def test_table_fixture_counts(self, offline_provider):
        index = _hundred_record_index(offline_provider)
        stats = category_stats(index)
        assert {m.value: s.count for m, s in stats.items()} == TABLE_COUNTS
        assert stats[MajorCategory.DEP].fraction == pytest.approx(0.63)

    def test_fractions_sum_to_one(self, offline_provider):
        index = _hundred_record_index(offline_provider)
        total = sum(s.fraction for s in category_stats(index).values())
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_empty_index_empty_map(self):
        assert category_stats(DemonstrationIndex([])) == {}

    def test_counts_match_brute_force_scan(self, offline_provider):
        index = _hundred_record_index(offline_provider)
        stats = category_stats(index)
        for major, share in stats.items():
            assert share.count == sum(
                1 for r in index.records if r.category.major is major
            )

    def test_sampled_store_tracks_taxonomy_weights(self, offline_provider):
        # Taxonomy frequency weights; DEP dominates at 61.29% of errors.
        weights = {
            "DEP": 61.29, "CON": 20.12, "SEC": 5.24, "PMG": 5.0,
            "ENV": 3.7, "FS": 0.75, "MISC": 3.9,
        }
        rng = random.Random(2024)
        majors = list(weights)
        index = DemonstrationIndex([])
        for i in range(1000):
            major = rng.choices(majors, weights=[weights[m] for m in majors])[0]
            index.add(_record(f"s{i:04d}", major), offline_provider)
        stats = category_stats(index)
        total_weight = sum(weights.values())
        for major, share in stats.items():
            assert share.fraction == pytest.approx(
                weights[major.value] / total_weight, abs=0.05
            )
        assert stats[MajorCategory.DEP].fraction == pytest.approx(0.6129, abs=0.05)


class TestExclusionFilters:
    def test_infrastructure_failure_detected(self):
        assert (
            classify_failure_exclusion("write /var/lib: no space left on device")
            == "infrastructure"
        )

    def test_docker_server_failure_detected(self):
        assert (
            classify_failure_exclusion("toomanyrequests: You have reached your pull rate limit")
            == "docker-server"
        )

    def test_project_source_failure_detected(self):
        assert (
            classify_failure_exclusion('  File "app.py", line 3\nSyntaxError: invalid syntax')
            == "project-source"
        )

    def test_raw_log_fallback_splits_on_newline_only(self):
        # A raw log keeps progress-bar overdraw; "\r" does not end a line, so
        # the docker-server regex `Service Unavailable.*registry` spans it.
        raw = "#9 12.40 pulling\r503 Service Unavailable\rretrying registry mirror\nexit 1"
        assert classify_failure_exclusion(raw) == "docker-server"

    def test_first_filter_in_order_wins_over_earlier_lines(self):
        text = "toomanyrequests: pull limit\nSyntaxError: invalid syntax\nno space left on device"
        assert classify_failure_exclusion(text) == "infrastructure"

    def test_ordinary_flaky_failure_not_excluded(self):
        assert classify_failure_exclusion("error: externally-managed-environment") is None

    def test_filters_load_once_and_reuse(self):
        filters = load_exclusion_filters()
        assert set(filters) == {"infrastructure", "docker-server", "project-source"}
        assert (
            classify_failure_exclusion("no space left on device", filters)
            == "infrastructure"
        )

    def test_alpine_repair_fixture_parses(self):
        validate_record(
            DemonstrationRecord(
                id="alpine",
                static_part=ALPINE_PIP,
                dynamic_part=ALPINE_PIP_LOG,
                category=FlakinessCategory(MajorCategory.ENV, "Environment Management Issues"),
                repairs=(ALPINE_PIP_REPAIRED,),
                iterations=(2,),
            )
        )


def _shipped_schema() -> dict:
    from importlib import resources

    data = resources.files("flakidock").joinpath("data/demonstration_record.schema.json")
    return json.loads(data.read_text(encoding="utf-8"))


class TestShippedSchema:
    def test_starter_store_validates_against_json_schema(self):
        import jsonschema

        schema = _shipped_schema()
        lines = builtin_store_path().read_text().splitlines()
        header = json.loads(lines[0])
        assert header == {"schema": "flakidock-demo-store", "version": 1}
        for line in lines[1:]:
            jsonschema.validate(json.loads(line), schema)

    def test_schema_rejects_bad_category(self):
        import jsonschema

        record = {
            "id": "x", "static_part": "FROM a\n", "dynamic_part": "error: y",
            "category": "BOGUS", "repairs": ["FROM b\n"], "iterations": [1],
        }
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(record, _shipped_schema())

    @pytest.mark.parametrize(
        "edit",
        [
            {"static_part": 123}, {"dynamic_part": ["error"]}, {"id": 7}, {"category": 5},
            {"repairs": "FROM b\n"}, {"repairs": [1]}, {"iterations": ["3"]}, {"iterations": 3},
            {"extra": "x"},
        ],
        ids=repr,
    )
    def test_loader_rejects_each_record_the_schema_rejects(self, edit, tmp_path):
        import jsonschema

        payloads = _store_payloads(2, 1)
        payloads[1].update(edit)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(payloads[1], _shipped_schema())
        with pytest.raises(SchemaViolation) as excinfo:
            load_store(_write_store(tmp_path, payloads, _store_vectors(2, 1)))
        assert excinfo.value.field == next(iter(edit))
        assert excinfo.value.record_id == ("<unknown>" if "id" in edit else "rec-00001")


# --- loading at scale ---

_CATEGORIES = ["DEP", "DEP/Versioning Issues", "CON/Timeout Issues", "SEC", "PMG", "ENV", "FS", "MISC"]
# Repair tails, each joined after a FROM line: continuations, comments, blank
# and whitespace-only lines, a BOM, CRLF and a lone backslash before a blank line.
_REPAIR_TAILS = [
    "RUN a \\\n  b\n", "# note\n", "\n", " \t\n", "RUN x\r\n", "\\\n\n", "\u3000\x85\n", "RUN y",
]


def _store_payloads(count: int, seed: int) -> list[dict]:
    rng = random.Random(seed)
    payloads = []
    for i in range(count):
        repairs = [
            rng.choice(["", "\ufeff"]) + "FROM busybox\n" + "".join(rng.choices(_REPAIR_TAILS, k=rng.randint(0, 4)))
            for _ in range(rng.randint(1, 3))
        ]
        payloads.append({
            "id": f"rec-{i:05d}",
            "static_part": f"FROM busybox\nRUN job-{i}\n",
            "dynamic_part": f"error: job {i} failed with code {rng.randint(1, 255)}",
            "category": rng.choice(_CATEGORIES),
            "repairs": repairs,
            "iterations": [rng.randint(1, 4) for _ in repairs],
        })
    return payloads


def _store_vectors(count: int, seed: int, dim: int = 16) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(count, dim)).astype(np.float32)


def _write_store(directory, payloads: list[dict], vectors: np.ndarray | None):
    directory.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps({"schema": "flakidock-demo-store", "version": 1})]
    lines += [json.dumps(p) for p in payloads]
    (directory / "records.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    if vectors is not None:
        (directory / "vectors.bin").write_bytes(
            struct.pack("<I", vectors.shape[1]) + vectors.astype("<f4").tobytes()
        )
    return directory / "records.jsonl"


def _outcome(loader, path, provider):
    """What a loader makes of a store: its records and vectors, or its error."""
    try:
        index = loader(path, provider)
    except Exception as exc:  # compared below, type and message
        return ("error", type(exc), str(exc), getattr(exc, "record_id", None), getattr(exc, "field", None))
    matrix, norms = index.scan()
    return ("ok", index.records, matrix.tobytes(), norms.tobytes())


_CASES = [
    "valid", "empty repair", "whitespace-only repair", "second BOM is content",
    "lone backslash before a blank line", "zero vector", "duplicate id", "row-count mismatch",
    "bad category", "bad record and bad vectors", "bad iteration count", "missing field",
    "missing vectors", "MISC with a subcategory",
]
_LOADABLE = {"valid", "second BOM is content", "lone backslash before a blank line", "missing vectors"}


def _make_case(name: str, payloads: list[dict], vectors: np.ndarray) -> np.ndarray | None:
    """Edit a seeded store into the named case; returns the vectors to write (None: no file)."""
    if name == "empty repair":  # two bad records: the first in file order must win
        payloads[20]["repairs"][-1] = ""
        payloads[50]["repairs"][-1] = ""
    elif name == "whitespace-only repair":
        payloads[7]["repairs"][-1] = "\ufeff \r\n\u3000\x0b\x1c\x85\n"
    elif name == "second BOM is content":
        payloads[7]["repairs"][-1] = "\ufeff\ufeff\n"
    elif name == "lone backslash before a blank line":
        payloads[3]["repairs"][-1] = "RUN x\n\\\n\n"
    elif name == "zero vector":
        vectors = vectors.copy()
        vectors[30] = 0.0
    elif name == "duplicate id":
        payloads[80]["id"] = payloads[10]["id"]
    elif name == "row-count mismatch":
        vectors = vectors[:-1]
    elif name == "bad category":
        payloads[60]["category"] = "NOPE"
    elif name == "bad record and bad vectors":  # the record error is reported
        payloads[70]["category"] = "NOPE"
        vectors = vectors[:5]
    elif name == "bad iteration count":
        payloads[12]["iterations"][0] = 0
    elif name == "missing field":
        del payloads[9]["dynamic_part"]
    elif name == "missing vectors":
        vectors = None
    elif name == "MISC with a subcategory":
        payloads[40]["category"] = "MISC/x"
    return vectors


class TestLoaderDifferential:
    @pytest.mark.parametrize("case", _CASES)
    def test_load_matches_reference_loader(self, case, tmp_path, offline_provider):
        payloads = _store_payloads(200, 11)
        vectors = _make_case(case, payloads, _store_vectors(200, 11))
        path = _write_store(tmp_path, payloads, vectors)
        provider = offline_provider if vectors is None else None
        ours = _outcome(load_store, path, provider)
        assert ours == _outcome(reference_load_store, path, provider)
        assert (ours[0] == "ok") == (case in _LOADABLE)
        if vectors is None:  # and without a provider to recompute them
            assert _outcome(load_store, path, None) == _outcome(reference_load_store, path, None)

    # Lines given new bytes, and the line whose error is reported: the header,
    # a record, a truncated sequence before a "\r\n" end, a blank line, and a
    # bad byte after a bad record, which is reported first.
    @pytest.mark.parametrize(
        "edits, reported",
        [
            ({1: b'{"schema": "flakidock-demo-store", "version": 1}\xff'}, "not UTF-8: line 1:"),
            ({3: b"\xff"}, "not UTF-8: line 3:"),
            ({3: b'{"id": "x\xe2\x82\r'}, "not UTF-8: line 3:"),
            ({3: b" \xa0 "}, "not UTF-8: line 3:"),
            ({2: b'{"id": 1}', 50: b"\xff"}, "record '<unknown>', field 'id'"),
        ],
        ids=["header", "record", "truncated-before-cr", "blank", "after-a-bad-record"],
    )
    def test_a_store_that_is_not_utf8_fails_as_the_reference(self, edits, reported, tmp_path):
        path = _write_store(tmp_path, _store_payloads(60, 3), _store_vectors(60, 3))
        lines = path.read_bytes().split(b"\n")
        for number, line in edits.items():
            lines[number - 1] = line
        path.write_bytes(b"\n".join(lines))
        ours = _outcome(load_store, path, None)
        assert ours == _outcome(reference_load_store, path, None)
        assert ours[0] == "error" and reported in ours[2]

    def test_first_bad_record_wins(self, tmp_path):
        payloads = _store_payloads(200, 11)
        vectors = _make_case("empty repair", payloads, _store_vectors(200, 11))
        field = f"repairs[{len(payloads[20]['repairs']) - 1}]"
        with pytest.raises(SchemaViolation) as excinfo:
            load_store(_write_store(tmp_path, payloads, vectors[:3]))
        assert (excinfo.value.record_id, excinfo.value.field) == ("rec-00020", field)
        assert str(excinfo.value).endswith("does not parse: no instructions found")

    def test_save_of_load_is_byte_identical(self, tmp_path):
        first = _write_store(tmp_path / "a", _store_payloads(200, 5), _store_vectors(200, 5))
        save_store(load_store(first), tmp_path / "b" / "records.jsonl")
        save_store(load_store(tmp_path / "b" / "records.jsonl"), tmp_path / "c" / "records.jsonl")
        for name in ("records.jsonl", "vectors.bin"):
            assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "c" / name).read_bytes()
        assert (tmp_path / "a" / "vectors.bin").read_bytes() == (tmp_path / "b" / "vectors.bin").read_bytes()

    def test_line_breaks_other_than_newline_survive_a_round_trip(self, tmp_path, offline_provider):
        record = dataclasses.replace(_record("nel"), repairs=("FROM a\nRUN x \x85\u2028\u2029 y\n",))
        index = DemonstrationIndex([])
        index.add(record, offline_provider)
        save_store(index, tmp_path / "records.jsonl")  # writes the three characters raw
        assert load_store(tmp_path / "records.jsonl").records[0].repairs == record.repairs

    def test_stores_saved_with_other_line_breaks_load_as_the_reference_loads_them(
        self, tmp_path, offline_provider
    ):
        breaks = "\x85\u2028\u2029\r"
        index = DemonstrationIndex([])
        for i in range(4):
            record = _record(f"br{i}", repairs=2)
            index.add(
                dataclasses.replace(
                    record,
                    dynamic_part=f"error:{breaks[i:]} step {i}\r\n{breaks[:i]}failed",
                    repairs=(record.repairs[0], f"FROM a\nRUN x {breaks[i]}{breaks} y\r\n"),
                ),
                offline_provider,
            )
        save_store(index, tmp_path / "records.jsonl")  # writes all but "\r" raw
        ours = _outcome(load_store, tmp_path / "records.jsonl", None)
        assert ours == _outcome(reference_load_store, tmp_path / "records.jsonl", None)
        assert ours[:2] == ("ok", index.records)

    @pytest.mark.parametrize(
        "shape",
        [
            "  {}", "\t{}", "{}  ", "{}\t", " \t{}\t ", "\ufeff{}", "{}{}", "{} {}", "{}[1]", "{}\u3000",
            "\x0c{}", "[1, 2]", '"text"', "5", "-0.5e3", "null",
        ],
        ids=repr,
    )
    def test_lines_the_scan_hands_on_load_as_the_reference_loads_them(self, tmp_path, shape):
        payloads = _store_payloads(5, 9)
        path = _write_store(tmp_path, payloads, _store_vectors(5, 9))
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[3] = shape.replace("{}", lines[3])  # the third record, in the shape
        path.write_text("\n".join(lines), encoding="utf-8")
        assert _outcome(load_store, path, None) == _outcome(reference_load_store, path, None)

    def test_raw_carriage_returns_in_record_lines_load_as_the_reference_loads_them(self, tmp_path):
        # "\r" is JSON whitespace, and a record line ends at "\n" only.
        path = _write_store(tmp_path, _store_payloads(5, 9), _store_vectors(5, 9))
        lines = path.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b'", "', b'",\r"', 1)  # between two JSON tokens
        lines[3] += b"\r"  # a record line ended by "\r\n"
        path.write_bytes(b"\n".join(lines))
        ours = _outcome(load_store, path, None)
        assert ours == _outcome(reference_load_store, path, None)
        assert ours[0] == "ok" and len(ours[1]) == 5

    def test_a_well_formed_store_is_parsed_through_json_loads_only_for_its_header(self, tmp_path, monkeypatch):
        path = _write_store(tmp_path, _store_payloads(50, 3), _store_vectors(50, 3))
        texts = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda text, **kw: texts.append(text) or loads(text, **kw))
        assert len(load_store(path)) == 50
        assert texts == [path.read_text(encoding="utf-8").split("\n")[0]]

    @pytest.mark.parametrize(
        "line, error, message",
        [(0, VersionMismatch, "unreadable header"), (2, SchemaViolation, "unreadable record line")],
        ids=["header", "record"],
    )
    @pytest.mark.parametrize("lead", ["", " "], ids=["bare", "after-a-space"])
    @pytest.mark.parametrize(
        "text, cause",
        [("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),  # a RecursionError
         ("[" + "9" * 5000 + "]", "Exceeds the limit")],  # a ValueError that is no JSONDecodeError
        ids=["nested-too-deep", "integer-past-the-digit-limit"],
    )
    def test_a_line_past_the_parsers_limits_is_the_files_error(
        self, tmp_path, line, error, message, lead, text, cause
    ):
        path = _write_store(tmp_path, _store_payloads(3, 1), _store_vectors(3, 1))
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[line] = lead + text
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(error, match=f"{message}: {cause}"):
            load_store(path)

    def test_loading_builds_no_parse_trees(self, tmp_path, monkeypatch):
        path = _write_store(tmp_path, _store_payloads(50, 3), _store_vectors(50, 3))
        calls = []
        monkeypatch.setattr(demo_store, "parse_dockerfile", lambda *a: calls.append(a))
        monkeypatch.setattr(dockerfile_model, "parse_dockerfile", lambda *a: calls.append(a))
        assert len(load_store(path)) == 50
        assert calls == []


# Single-record edits, each applied to the record at the drawn position.
_FIELD_EDITS = [
    lambda p: p.pop("static_part"), lambda p: p.pop("iterations"), lambda p: p.update(id=7),
    lambda p: p.update(category=None), lambda p: p.update(repairs="FROM b\n"), lambda p: p.update(extra="x"),
    lambda p: p.update(id=""), lambda p: p.update(dynamic_part=" \u3000\x85"),
    lambda p: p["iterations"].__setitem__(0, True), lambda p: p["iterations"].__setitem__(0, 0),
    lambda p: p["iterations"].__setitem__(0, -3), lambda p: p["iterations"].append(1),
    lambda p: p["repairs"].__setitem__(0, ""), lambda p: p["repairs"].__setitem__(0, "\u3000\n"),
    lambda p: p["repairs"].__setitem__(0, "\x85"), lambda p: p["repairs"].__setitem__(0, "\ufeff"),
    lambda p: p["repairs"].__setitem__(0, 5), lambda p: p.update(category="NOPE/Timeout Issues"),
    lambda p: p.update(category="MISC/x"), lambda p: p.update(category=" CON / Made Up "),
]


class _UnknownSubcategoryWarnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += "unknown subcategory" in record.getMessage()


def _outcome_and_warnings(loader, path) -> tuple:
    handler = _UnknownSubcategoryWarnings()
    logger = logging.getLogger("flakidock.demo_store")
    logger.addHandler(handler)
    try:
        return _outcome(loader, path, None), handler.count
    finally:
        logger.removeHandler(handler)


class TestStreamedLoad:
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        edits=st.dictionaries(st.integers(0, 29), st.sampled_from(range(len(_FIELD_EDITS))), max_size=2),
        unknown_sub=st.lists(st.integers(0, 29), max_size=4),
    )
    def test_load_matches_reference_loader(self, seed, edits, unknown_sub):
        payloads = _store_payloads(30, seed)
        for position in unknown_sub:  # records that share one subcategory outside the vocabulary
            payloads[position]["category"] = "DEP/Made Up"
        for position, edit in edits.items():
            _FIELD_EDITS[edit](payloads[position])
        with tempfile.TemporaryDirectory() as tmp:
            path = _write_store(Path(tmp), payloads, _store_vectors(30, seed))
            assert _outcome_and_warnings(load_store, path) == _outcome_and_warnings(reference_load_store, path)

    def test_records_sharing_an_unknown_subcategory_warn_once_each(self, tmp_path, caplog):
        payloads = _store_payloads(5, 1)
        payloads[1]["category"] = payloads[3]["category"] = "DEP/Made Up"
        path = _write_store(tmp_path, payloads, _store_vectors(5, 1))
        with caplog.at_level(logging.WARNING, logger="flakidock.demo_store"):
            load_store(path)
        assert sum("unknown subcategory" in r.getMessage() for r in caplog.records) == 2

    def test_each_category_string_is_parsed_once(self, tmp_path, monkeypatch):
        strings = _CATEGORIES + ["CON/Made Up"]
        payloads = _store_payloads(200, 4)
        for i, payload in enumerate(payloads):
            payload["category"] = strings[i % len(strings)]
        path = _write_store(tmp_path, payloads, _store_vectors(200, 4))
        calls = []
        parse = FlakinessCategory.from_string
        monkeypatch.setattr(FlakinessCategory, "from_string", staticmethod(lambda text: calls.append(text) or parse(text)))
        assert [r.category.as_string() for r in load_store(path).records] == [p["category"] for p in payloads]
        assert len(calls) <= len(set(strings)) == 9

    def test_crlf_line_ends_load_the_same_records(self, tmp_path):
        payloads = _store_payloads(50, 6)
        lf = _write_store(tmp_path / "lf", payloads, _store_vectors(50, 6))
        crlf = _write_store(tmp_path / "crlf", payloads, _store_vectors(50, 6))
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        assert load_store(crlf).records == load_store(lf).records

    @pytest.mark.parametrize("bad_record_first", [True, False])
    def test_first_problem_in_file_order_is_reported(self, tmp_path, bad_record_first):
        payloads = _store_payloads(10, 2)
        payloads[3]["iterations"][0] = 0
        path = _write_store(tmp_path, payloads, None)
        lines = path.read_bytes().split(b"\n")
        lines.insert(7 if bad_record_first else 2, b'{"id": "caf\xe9"}')  # latin-1
        path.write_bytes(b"\n".join(lines))
        if bad_record_first:
            with pytest.raises(SchemaViolation) as excinfo:
                load_store(path)
            assert (excinfo.value.record_id, excinfo.value.field) == ("rec-00003", "iterations")
        else:
            with pytest.raises(StoreError, match=f"^{path}: not UTF-8: line 3: 'utf-8' codec can't decode") as excinfo:
                load_store(path)
            assert not isinstance(excinfo.value, SchemaViolation)


class TestIndexGrowth:
    def test_duplicate_id_rejected_before_the_provider_call(self, offline_provider):
        index = DemonstrationIndex([])
        index.add(_record("dup"), offline_provider)
        calls = []

        class Counting(HashingEmbeddingProvider):
            def embed_values(self, text):
                calls.append(text)
                return super().embed_values(text)

        with pytest.raises(SchemaViolation) as excinfo:
            index.add(_record("dup"), Counting())
        assert excinfo.value.record_id == "dup" and calls == []
        assert len(index) == 1

    def test_store_of_another_dim_rejected_before_the_provider_call(self, offline_provider):
        index = DemonstrationIndex([])
        index.add(_record("d-0"), offline_provider)
        calls = []

        class Counting(HashingEmbeddingProvider):
            def embed_values(self, text):
                calls.append(text)
                return super().embed_values(text)

        with pytest.raises(DimensionMismatch, match="store dim 256 vs record dim 64"):
            index.add(_record("d-1"), Counting(dim=64))
        assert calls == [] and len(index) == 1

    def test_adds_write_in_place_between_growths(self, tmp_path, offline_provider):
        index = DemonstrationIndex([])
        for i in range(3):
            index.add(_record(f"g-{i}"), offline_provider)
        save_store(index, tmp_path / "records.jsonl")
        index = load_store(tmp_path / "records.jsonl")
        loaded = index.matrix
        index.add(_record("g-3"), offline_provider)  # writes the first spare row of the loaded buffer
        before = index.matrix
        index.add(_record("g-4"), offline_provider)
        assert np.shares_memory(loaded, before) and np.shares_memory(before, index.matrix)  # no copy of the earlier rows
        assert before.shape[0] == 4 and index.matrix.shape[0] == 5

    def test_a_load_that_recomputes_the_vectors_leaves_spare_rows(self, tmp_path, offline_provider):
        index = DemonstrationIndex([])
        for i in range(3):
            index.add(_record(f"r-{i}"), offline_provider)
        save_store(index, tmp_path / "records.jsonl")
        (tmp_path / "vectors.bin").unlink()
        loaded = load_store(tmp_path / "records.jsonl", offline_provider)
        before = loaded.matrix
        loaded.add(_record("r-3"), offline_provider)  # writes a spare row: no copy of the recomputed ones
        assert np.shares_memory(before, loaded.matrix)
        assert loaded.matrix[:3].tobytes() == index.matrix.tobytes() and loaded.matrix.dtype == np.float32

    def test_matrix_and_norms_track_records(self, offline_provider):
        index = DemonstrationIndex([])
        for i in range(70):
            index.add(_record(f"t-{i}"), offline_provider)
            matrix, norms = index.scan()
            assert matrix.shape == (i + 1, offline_provider.dim) and norms.shape == (i + 1,)
        expected = np.stack([embed(r.combined_text(), offline_provider) for r in index.records])
        assert np.array_equal(index.matrix, expected)
        assert np.array_equal(norms, np.linalg.norm(expected.astype(np.float64), axis=1))

    def test_row_norms_match_the_unblocked_expression(self):
        rows = 2 * demo_store._NORM_BLOCK + 7
        matrix = np.random.default_rng(3).normal(size=(rows, 8)).astype(np.float32)
        _, norms = DemonstrationIndex([_record(f"n-{i}") for i in range(rows)], matrix).scan()
        assert norms.tobytes() == np.linalg.norm(matrix.astype(np.float64), axis=1).tobytes()

    def test_dimension_mismatch_leaves_index_unchanged(self, offline_provider):
        index = DemonstrationIndex([])
        index.add(_record("d-0"), offline_provider)
        with pytest.raises(DimensionMismatch):
            index.add(_record("d-1"), HashingEmbeddingProvider(dim=3))
        assert len(index) == 1 and "d-1" not in index.by_id and index.matrix.shape[0] == 1

    @pytest.mark.parametrize("rows", [0, 2, 4])
    def test_matrix_needs_one_row_per_record(self, rows):
        records = [_record("m-0"), _record("m-1"), _record("m-2")]
        with pytest.raises(StoreError, match=f"{rows} embedding rows for 3 records"):
            DemonstrationIndex(records, np.ones((rows, 4), np.float32))
        with pytest.raises(StoreError, match="0 embedding rows for 3 records"):
            DemonstrationIndex(records)


def _scan_is_read_only(index: DemonstrationIndex) -> bool:
    matrix, norms = index.scan()
    return not (matrix.flags.writeable or norms.flags.writeable or index.matrix.flags.writeable)


class TestRowBuffer:
    def test_matrix_and_norms_are_read_only_in_every_state(self, tmp_path, offline_provider):
        index = DemonstrationIndex([])
        states = [_scan_is_read_only(index)]
        for i in range(3):
            index.add(_record(f"ro-{i}"), offline_provider)
            states.append(_scan_is_read_only(index))
        save_store(index, tmp_path / "records.jsonl")
        loaded = load_store(tmp_path / "records.jsonl")
        states.append(_scan_is_read_only(loaded))
        loaded.add(_record("ro-3"), offline_provider)
        states.append(_scan_is_read_only(loaded))
        (tmp_path / "vectors.bin").unlink()
        states.append(_scan_is_read_only(load_store(tmp_path / "records.jsonl", offline_provider)))
        built = DemonstrationIndex([_record("ro-0")], np.ones((1, 4), np.float32))
        states.append(_scan_is_read_only(built))
        assert states == [True] * 8
        with pytest.raises(ValueError):
            loaded.matrix[0] = 0  # a written row would keep a stale norm

    @settings(max_examples=120, deadline=None)
    @given(block=st.sampled_from([1, 2, 7, 64]), dim=st.sampled_from([1, 3, 256, 257]), data=st.data())
    def test_the_norm_pass_matches_the_whole_matrix(self, block, dim, data):
        rows = data.draw(st.sampled_from(sorted({0, 1, block - 1, block, block + 1, 3 * block})))
        scale = data.draw(st.sampled_from([1.0, 1e-30, 1e-42, 1e30, 1e38]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        with np.errstate(over="ignore"):
            matrix = (rng.normal(size=(rows, dim)) * scale).astype(np.float32)
        bad_value = data.draw(st.sampled_from([None, 0.0, np.nan, np.inf, -np.inf])) if rows else None
        if bad_value is not None:
            first = block * data.draw(st.integers(0, (rows - 1) // block))
            row = data.draw(st.sampled_from([first, min(first + block, rows) - 1]))
            matrix[row, slice(None) if bad_value == 0 else data.draw(st.integers(0, dim - 1))] = bad_value
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(demo_store, "_NORM_BLOCK", block):
            norms = np.empty(rows)
            demo_store._row_norms(matrix, norms)
            assert norms.tobytes() == np.linalg.norm(matrix.astype(np.float64), axis=1).tobytes()
            vectors = Path(tmp) / "vectors.bin"
            vectors.write_bytes(struct.pack("<I", dim) + matrix.astype("<f4").tobytes())
            try:
                expected = _reference_read_vectors(vectors, rows).tobytes()
            except StoreError as exc:
                expected = str(exc)
            try:
                index = demo_store._read_vectors(vectors, [_record(f"b-{i}") for i in range(rows)], None)
                assert index.scan()[1].tobytes() == norms.tobytes()
                got = index.matrix.tobytes()
            except StoreError as exc:
                got = str(exc)
        assert got == expected


class TestLoadMemory:
    def test_load_and_the_first_add_make_no_whole_matrix_temporaries(self, tmp_path, offline_provider):
        rows = np.random.default_rng(5).normal(size=(4000, 256)).astype(np.float32)
        save_store(DemonstrationIndex([_record(f"mem-{i}") for i in range(4000)], rows), tmp_path / "records.jsonl")
        embed("warm the embedder's tables", offline_provider)
        new = _record("mem-new")
        gc.collect()
        tracemalloc.start()
        try:
            index = load_store(tmp_path / "records.jsonl")
            kept, load_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            index.add(new, offline_provider)
            add_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert load_peak - kept < 2_000_000  # 16 MB when the file and masks of it were whole-matrix copies
        assert add_peak - kept < 500_000  # 8 MB when the first insert copied every loaded row
        assert index.matrix[:4000].tobytes() == rows.tobytes()


class TestLoadScaling:
    def test_load_time_grows_linearly_with_record_count(self, tmp_path):
        def best_of_three(path) -> float:
            timings = []
            for _ in range(3):
                start = time.perf_counter()
                load_store(path)
                timings.append(time.perf_counter() - start)
            return min(timings)

        small = _write_store(tmp_path / "small", _store_payloads(1_000, 1), _store_vectors(1_000, 1))
        large = _write_store(tmp_path / "large", _store_payloads(8_000, 2), _store_vectors(8_000, 2))
        # 8x the records: linear code takes about 8x the time, quadratic about 64x.
        assert best_of_three(large) / best_of_three(small) < 16


# --- saving ---

# Characters the JSON writer escapes or must leave raw, and letters.
_TRICKY = ['"', "\\", *map(chr, range(0x20)), "\x7f", "\x85", "\u2028", "\u2029", "\xe9", "\U0001f600"]
_texts = st.text(alphabet=st.sampled_from(_TRICKY + list(string.ascii_letters)), max_size=30)


@st.composite
def _any_records(draw) -> list[DemonstrationRecord]:
    records = []
    for _ in range(draw(st.integers(0, 4))):
        repairs = draw(st.lists(_texts, min_size=1, max_size=3))
        records.append(DemonstrationRecord(
            id=draw(_texts),
            static_part=draw(_texts),
            dynamic_part=draw(_texts),
            category=FlakinessCategory(draw(st.sampled_from(MajorCategory)), draw(st.none() | _texts.filter(bool))),
            repairs=tuple(repairs),
            iterations=tuple(draw(st.integers(1, 10**30)) for _ in repairs),
        ))
    return records


def _store_files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def _saved_bytes(saver, index, directory) -> dict[str, bytes]:
    saver(index, directory / "records.jsonl")
    return _store_files(directory)


class TestSaveDifferential:
    @settings(max_examples=150, deadline=None)
    @given(_any_records())
    def test_save_matches_reference_writer(self, records):
        matrix = np.repeat(np.arange(1, len(records) + 1, dtype=np.float32)[:, None], 4, axis=1)
        index = DemonstrationIndex(records, matrix)
        with tempfile.TemporaryDirectory() as tmp:
            ours = _saved_bytes(save_store, index, Path(tmp) / "ours")
            theirs = _saved_bytes(reference_save_store, index, Path(tmp) / "reference")
        assert ours == theirs

    @settings(max_examples=150, deadline=None)
    @given(_any_records())
    def test_saved_records_load_as_the_reference_loads_them(self, records):
        # Every escape the writer makes, and every raw character it leaves, goes through the scan.
        matrix = np.repeat(np.arange(1, len(records) + 1, dtype=np.float32)[:, None], 4, axis=1)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.jsonl"
            save_store(DemonstrationIndex(records, matrix), path)
            assert _outcome(load_store, path, None) == _outcome(reference_load_store, path, None)

    def test_seeded_store_matches_reference_writer(self, tmp_path):
        index = load_store(_write_store(tmp_path / "src", _store_payloads(2_000, 23), _store_vectors(2_000, 23)))
        ours = _saved_bytes(save_store, index, tmp_path / "ours")
        assert ours == _saved_bytes(reference_save_store, index, tmp_path / "reference")
        assert set(ours) == {"records.jsonl", "vectors.bin"}

    def test_failed_save_leaves_previous_store(self, tmp_path):
        path = _write_store(tmp_path, _store_payloads(50, 4), _store_vectors(50, 4))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        index = load_store(path)
        # A lone surrogate cannot be encoded as UTF-8: the write fails part-way.
        # The provider hands back a stored row, since the hashing embedder rejects the surrogate too.
        provider = SimpleNamespace(dim=16, token_limit=None, provider_id="row-0",
                                   embed_values=lambda text: index.matrix[0])
        index.add(dataclasses.replace(index.records[0], id="bad", static_part="FROM a\n\udc80"), provider)
        with pytest.raises(UnicodeEncodeError):
            save_store(index, path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert len(load_store(path)) == 50

    def test_saving_an_empty_index_removes_the_vectors(self, tmp_path, offline_provider):
        index = DemonstrationIndex([])
        index.add(_record("only"), offline_provider)
        save_store(index, tmp_path)
        save_store(DemonstrationIndex([]), tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["records.jsonl"]
        assert len(load_store(tmp_path)) == 0


# A provider for differential tests: cheap, deterministic, never a zero row.
_LENGTH_PROVIDER = SimpleNamespace(
    dim=4, token_limit=None, provider_id="length",
    embed_values=lambda text: np.array([len(text), text.count("\n") + 1, 2, 3], np.float32),
)


def _added_record(serial: int, text: str) -> DemonstrationRecord:
    """A valid record that carries `text` in each string field."""
    return DemonstrationRecord(
        id=f"{serial}-{text}", static_part=f"FROM a\n{text}", dynamic_part=f"error {text}",
        category=FlakinessCategory(MajorCategory.MISC), repairs=(f"FROM b\n{text}",), iterations=(1,),
    )


_save_ops = st.lists(st.one_of(
    st.tuples(st.just("add"), _texts),
    # the path by its number, and as its directory or its records.jsonl
    st.tuples(st.just("save"), st.integers(0, 1), st.booleans()),
    # another index, of the first k records in reverse order, saves over the path
    st.tuples(st.just("rewrite"), st.integers(0, 1), st.integers(0, 6)),
), max_size=14)


class TestAppendingSave:
    @settings(max_examples=120, deadline=None)
    @given(_save_ops)
    def test_interleaved_adds_and_saves_match_reference_writer(self, ops):
        index = DemonstrationIndex([])
        with tempfile.TemporaryDirectory() as tmp:
            dirs = [Path(tmp) / "a", Path(tmp) / "b"]
            for directory in dirs:
                directory.mkdir()
            last_saved = None  # the path whose files this index wrote last, untouched since
            for serial, op in enumerate(ops):
                if op[0] == "add":
                    index.add(_added_record(serial, op[1]), _LENGTH_PROVIDER)
                elif op[0] == "rewrite":
                    k = min(op[2], len(index))
                    other = DemonstrationIndex(index.records[:k][::-1], index.matrix[:k][::-1])
                    save_store(other, dirs[op[1]])
                    last_saved = None if last_saved == op[1] else last_saved
                else:
                    directory = dirs[op[1]]
                    inode = (directory / "records.jsonl").stat().st_ino if last_saved == op[1] else None
                    save_store(index, directory / "records.jsonl" if op[2] else directory)
                    reference = _saved_bytes(reference_save_store, index, Path(tmp) / f"reference-{serial}")
                    assert _store_files(directory) == reference, ops
                    if inode is not None and len(index):  # appended, not replaced
                        assert (directory / "records.jsonl").stat().st_ino == inode
                    last_saved = op[1] if len(index) else None

    @pytest.mark.parametrize("final_newline", [True, False])
    def test_appending_to_a_store_written_elsewhere_keeps_its_bytes(self, tmp_path, final_newline):
        # The layout of a store written by another program: default separators, ASCII escapes.
        payloads = _store_payloads(30, 8)
        payloads[3]["dynamic_part"] += " caf\u00e9 \u2028"
        lines = [json.dumps({"schema": "flakidock-demo-store", "version": 1})]
        lines += [json.dumps(p, sort_keys=True) for p in payloads]
        (tmp_path / "records.jsonl").write_text("\n".join(lines) + "\n" * final_newline, encoding="utf-8")
        vectors = _store_vectors(30, 8, dim=4)
        (tmp_path / "vectors.bin").write_bytes(struct.pack("<I", 4) + vectors.astype("<f4").tobytes())
        before = _store_files(tmp_path)
        index = load_store(tmp_path)
        for serial, text in enumerate(["x", "\u00e9\u2028\"", "\x85 y"]):
            index.add(_added_record(serial, text), _LENGTH_PROVIDER)
        save_store(index, tmp_path / "records.jsonl")
        after = _store_files(tmp_path)
        assert all(after[name].startswith(data) for name, data in before.items())
        reloaded = load_store(tmp_path)
        assert reloaded.records == index.records
        assert reloaded.matrix.tobytes() == index.matrix.tobytes()

    def test_each_save_back_appends(self, tmp_path, offline_provider):
        index = DemonstrationIndex([])
        index.add(_record("a-0"), offline_provider)
        save_store(index, tmp_path / "store" / "records.jsonl")
        inodes = [(tmp_path / "store" / name).stat().st_ino for name in ("records.jsonl", "vectors.bin")]
        for i in range(1, 4):
            index.add(_record(f"a-{i}"), offline_provider)
            save_store(index, tmp_path / "store")
            assert [(tmp_path / "store" / name).stat().st_ino for name in ("records.jsonl", "vectors.bin")] == inodes
            assert _store_files(tmp_path / "store") == _saved_bytes(reference_save_store, index, tmp_path / f"ref-{i}")

    def test_a_save_during_an_add_leaves_its_record_for_the_next_save(self, tmp_path):
        store = tmp_path / "store" / "records.jsonl"

        class SavingList(list):
            """Saves the index where add() has appended a record but not yet published its row."""

            def append(self, record):
                super().append(record)
                save_store(index, store)
                assert load_store(store).records == self[:-1]

        index = DemonstrationIndex(SavingList())
        for serial in range(4):  # saves an empty store, then replaces, then appends twice
            index.add(_added_record(serial, "x"), _LENGTH_PROVIDER)
        save_store(index, store)
        assert _store_files(store.parent) == _saved_bytes(reference_save_store, index, tmp_path / "reference")

    def test_a_save_with_nothing_added_writes_nothing(self, tmp_path, offline_provider):
        index = DemonstrationIndex([])
        index.add(_record("once"), offline_provider)
        save_store(index, tmp_path)
        stats = [(tmp_path / name).stat() for name in ("records.jsonl", "vectors.bin")]
        save_store(index, tmp_path)
        assert [(tmp_path / name).stat() for name in ("records.jsonl", "vectors.bin")] == stats

    def test_a_store_of_another_dim_is_replaced(self, tmp_path, offline_provider):
        # An empty store keeps the dim of its vectors.bin; the first add may bring another.
        store = _write_store(tmp_path / "store", [], np.zeros((0, 3), np.float32))
        index = load_store(store)
        index.add(_record("wide"), offline_provider)
        save_store(index, store)
        assert _store_files(store.parent) == _saved_bytes(reference_save_store, index, tmp_path / "reference")


class TestSaveScaling:
    def test_save_time_grows_linearly_with_record_count(self, tmp_path):
        def best_of_three(count: int, seed: int) -> float:
            index = load_store(_write_store(tmp_path / str(count), _store_payloads(count, seed), _store_vectors(count, seed)))
            timings = []
            for attempt in range(3):
                start = time.perf_counter()
                # A new directory each time: a save to the files it last wrote appends nothing.
                save_store(index, tmp_path / f"saved-{count}-{attempt}")
                timings.append(time.perf_counter() - start)
            return min(timings)

        # 8x the records: linear code takes about 8x the time, quadratic about 64x.
        assert best_of_three(8_000, 2) / best_of_three(1_000, 1) < 16
