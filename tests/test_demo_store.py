from __future__ import annotations

import json
import random
from types import SimpleNamespace

import numpy as np
import pytest

from flakidock import demo_store
from flakidock.demo_store import (
    DemonstrationIndex,
    DemonstrationRecord,
    FlakinessCategory,
    MajorCategory,
    builtin_store_path,
    category_stats,
    classify_failure_exclusion,
    load_exclusion_filters,
    load_store,
    save_store,
    suggest_label,
    taxonomy,
    validate_record,
)
from flakidock.errors import SchemaViolation, StoreError, VersionMismatch
from flakidock.providers import ScriptedTextProvider

from support import ALPINE_PIP, ALPINE_PIP_LOG, ALPINE_PIP_REPAIRED


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
        assert loaded.records[0].embedding is not None
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


class TestSuggestLabel:
    def test_scripted_category_with_sub(self):
        provider = ScriptedTextProvider(["- pinned version vanished\nCATEGORY: DEP / Versioning Issues"])
        suggestion = suggest_label("FROM a\n", "error: no candidate version", provider)
        assert suggestion.category.major is MajorCategory.DEP
        assert suggestion.category.sub == "Versioning Issues"
        assert suggestion.contributing_factors == ("pinned version vanished",)

    def test_alpine_case_labeled_env(self):
        provider = ScriptedTextProvider(["CATEGORY: ENV"])
        suggestion = suggest_label(ALPINE_PIP, "error: externally-managed-environment", provider)
        assert suggestion.category.major is MajorCategory.ENV
        assert suggestion.category.sub is None

    def test_free_prose_falls_back_to_misc(self):
        provider = ScriptedTextProvider(["I am not sure what went wrong here at all."])
        suggestion = suggest_label("FROM a\n", "error: mystery", provider)
        assert suggestion.category.major is MajorCategory.MISC
        assert suggestion.category.sub is None
        assert "not sure" in suggestion.raw_response

    def test_empty_dynamic_part_rejected(self):
        provider = ScriptedTextProvider(["CATEGORY: DEP"])
        with pytest.raises(ValueError):
            suggest_label("FROM a\n", "   ", provider)

    def test_prompt_carries_both_parts(self):
        provider = ScriptedTextProvider(["CATEGORY: FS"])
        suggest_label(ALPINE_PIP, "error: io busted", provider)
        prompt = provider.prompts[0]
        assert ALPINE_PIP in prompt
        assert "error: io busted" in prompt


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
