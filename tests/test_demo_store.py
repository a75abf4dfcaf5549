from __future__ import annotations

import dataclasses
import json
import logging
import random
import string
import struct
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

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


class TestShippedSchema:
    def test_starter_store_validates_against_json_schema(self):
        import jsonschema
        from importlib import resources

        schema = json.loads(
            resources.files("flakidock")
            .joinpath("data/demonstration_record.schema.json")
            .read_text()
        )
        lines = builtin_store_path().read_text().splitlines()
        header = json.loads(lines[0])
        assert header == {"schema": "flakidock-demo-store", "version": 1}
        for line in lines[1:]:
            jsonschema.validate(json.loads(line), schema)

    def test_schema_rejects_bad_category(self):
        import jsonschema
        from importlib import resources

        schema = json.loads(
            resources.files("flakidock")
            .joinpath("data/demonstration_record.schema.json")
            .read_text()
        )
        record = {
            "id": "x", "static_part": "FROM a\n", "dynamic_part": "error: y",
            "category": "BOGUS", "repairs": ["FROM b\n"], "iterations": [1],
        }
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(record, schema)


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

    def test_loading_builds_no_parse_trees(self, tmp_path, monkeypatch):
        path = _write_store(tmp_path, _store_payloads(50, 3), _store_vectors(50, 3))
        calls = []
        monkeypatch.setattr(demo_store, "parse_dockerfile", lambda *a: calls.append(a))
        monkeypatch.setattr(dockerfile_model, "parse_dockerfile", lambda *a: calls.append(a))
        assert len(load_store(path)) == 50
        assert calls == []


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
        index.add(_record("g-3"), offline_provider)  # outgrows the loaded, read-only rows
        before = index.matrix
        index.add(_record("g-4"), offline_provider)
        assert np.shares_memory(before, index.matrix)  # no copy of the earlier rows
        assert before.shape[0] == 4 and index.matrix.shape[0] == 5

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


def _saved_bytes(saver, index, directory) -> dict[str, bytes]:
    saver(index, directory / "records.jsonl")
    return {p.name: p.read_bytes() for p in directory.iterdir()}


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


class TestSaveScaling:
    def test_save_time_grows_linearly_with_record_count(self, tmp_path):
        def best_of_three(count: int, seed: int) -> float:
            index = load_store(_write_store(tmp_path / str(count), _store_payloads(count, seed), _store_vectors(count, seed)))
            timings = []
            for _ in range(3):
                start = time.perf_counter()
                save_store(index, tmp_path / f"saved-{count}")
                timings.append(time.perf_counter() - start)
            return min(timings)

        # 8x the records: linear code takes about 8x the time, quadratic about 64x.
        assert best_of_three(8_000, 2) / best_of_three(1_000, 1) < 16
