"""The durable-write module, and crash points over every command that writes.

The crash-point tests run a command under `crashpoint.py`, which kills the
process just before, just after, or in the middle of its k-th durable call,
for every k up to the command's total. After each kill the state must hold
whole journal lines only (bar one torn last line after a torn write), every
file written whole must be absent or byte-equal to an uninterrupted run's,
the state lock must be free, and a rerun must count every whole line the
kill left.
"""

from __future__ import annotations

import ast
import dataclasses
import errno
import fcntl
import itertools
import json
import os
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import crashpoint
from flakidock import durable
from flakidock.cli import main
from flakidock.demo_store import DemonstrationIndex, builtin_store_path, load_store, save_store
from flakidock.dockerfile_model import parse_dockerfile
from flakidock.errors import SchemaViolation, StoreError
from flakidock.providers import HashingEmbeddingProvider
from flakidock.similarity import embed
from support import ALPINE_PIP, ALPINE_PIP_LOG, ALPINE_PIP_REPAIRED, fenced, reference_save_store

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "flakidock"


class TestAppendLine:
    def test_appends_whole_lines(self, tmp_path):
        path = tmp_path / "j.jsonl"
        durable.append_line(path, b"a\n")
        durable.append_line(path, b"b\nc\n")
        assert path.read_bytes() == b"a\nb\nc\n"

    def test_a_torn_line_keeps_its_own_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_bytes(b'{"a": 1}\n{"b"')
        durable.append_line(path, b'{"c": 3}\n')
        assert path.read_bytes() == b'{"a": 1}\n{"b"\n{"c": 3}\n'

    def test_empty_data_writes_nothing(self, tmp_path):
        path = tmp_path / "j.jsonl"
        durable.append_line(path, b"")
        assert not path.exists()
        path.write_bytes(b"torn")
        durable.append_line(path, b"")
        assert path.read_bytes() == b"torn"

    def test_short_write_raises(self, tmp_path, monkeypatch):
        class ShortOs(crashpoint.CrashingOs):
            def write(self, fd, data):
                return os.write(fd, data[:3])

        monkeypatch.setattr(durable, "os", ShortOs("before", 0))
        with pytest.raises(OSError, match="short write"):
            durable.append_line(tmp_path / "j.jsonl", b"abcdef\n")


# Strings a journal line must carry: lone surrogates, line and paragraph
# separators, a raw \r and \n, quotes, backslashes and non-ASCII. A high
# surrogate just before a low one is no lone surrogate: JSON reads the two
# escapes back as the one character they encode.
_texts = st.text(st.sampled_from("a{}\"\\ \r\n\x00\x85\u2028\u2029\u00e9\ud800\udfff") | st.characters(),
                 max_size=12).filter(lambda text: "\ud800\udfff" not in text)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | _texts,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_texts, inner, max_size=3),
    max_leaves=12,
)
_json_objects = st.dictionaries(_texts, _json_values, max_size=4)


class TestAppendObjects:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(_json_objects, max_size=3), max_size=3),
           st.sampled_from([(b"", []), (b'{"torn": ', [None]), (b'{"k": 1}\n', [{"k": 1}])]))
    def test_read_lines_gives_back_the_objects_appended(self, batches, before):
        data, lines = before
        objects = [o for batch in batches for o in batch]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "j.jsonl"
            if data:
                path.write_bytes(data)
            for batch in batches:
                durable.append_objects(path, batch)
            if not data and not objects:
                assert not path.exists()
                return
            assert durable.read_lines(path) == lines + objects
            written = "".join(json.dumps(o, sort_keys=True) + "\n" for o in objects).encode("ascii")
            assert path.read_bytes().endswith(written)

    def test_one_call_is_one_write(self, tmp_path, monkeypatch):
        writes = []
        monkeypatch.setattr(durable, "append_line", lambda path, data: writes.append(data))
        durable.append_objects(tmp_path / "j.jsonl", [{"b": 2, "a": "\ud800"}, {"c": []}])
        assert writes == [b'{"a": "\\ud800", "b": 2}\n{"c": []}\n']

    def test_an_empty_list_makes_no_file(self, tmp_path):
        durable.append_objects(tmp_path / "j.jsonl", [])
        assert not (tmp_path / "j.jsonl").exists()


class TestAppending:
    def test_appends_and_keeps_what_the_block_leaves(self, tmp_path):
        path = tmp_path / "v.bin"
        path.write_bytes(b"old")
        with durable.appending(path, b"new"):
            assert path.read_bytes() == b"oldnew"
        assert path.read_bytes() == b"oldnew"

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_an_interrupted_block_cuts_the_file_back(self, tmp_path, error):
        path = tmp_path / "v.bin"
        path.write_bytes(b"old")
        with pytest.raises(error):
            with durable.appending(path, b"new"):
                raise error()
        assert path.read_bytes() == b"old"

    def test_a_short_write_is_cut_back(self, tmp_path, monkeypatch):
        class ShortOs(crashpoint.CrashingOs):
            def write(self, fd, data):
                return os.write(fd, data[:2])

        path = tmp_path / "v.bin"
        path.write_bytes(b"old")
        monkeypatch.setattr(durable, "os", ShortOs("before", 0))
        with pytest.raises(OSError, match="short write"):
            with durable.appending(path, b"new"):
                pass
        assert path.read_bytes() == b"old"

    def test_a_missing_file_is_not_made(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            with durable.appending(tmp_path / "v.bin", b"new"):
                pass
        assert not (tmp_path / "v.bin").exists()


class TestReplacing:
    def test_replaces_when_the_block_ends(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_bytes(b"old")
        with durable.replacing(path) as fh:
            fh.write(b"new")
            assert path.read_bytes() == b"old"
        assert path.read_bytes() == b"new"
        assert [p.name for p in tmp_path.iterdir()] == ["f.json"]

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_an_interrupted_block_leaves_the_old_file_and_no_temporary(self, tmp_path, error):
        path = tmp_path / "f.json"
        path.write_bytes(b"old")
        with pytest.raises(error):
            with durable.replacing(path) as fh:
                fh.write(b"new")
                raise error()
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["f.json"]

    def test_a_failed_replace_names_the_target_and_leaves_no_temporary(self, tmp_path):
        path = tmp_path / "Dockerfile.repaired"
        path.mkdir()
        with pytest.raises(OSError) as failed:
            with durable.replacing(path) as fh:
                fh.write(b"new")
        assert str(path) in str(failed.value) and ".tmp" not in str(failed.value)
        assert [p.name for p in tmp_path.iterdir()] == ["Dockerfile.repaired"]


def _parsed(line: bytes) -> dict | None:
    """What a journal line holds by the README's rule: its JSON object, or None."""
    try:
        value = json.loads(line.decode("utf-8", errors="replace"))
    except ValueError:
        return None
    return value if isinstance(value, dict) else None


def _object_line(key: int, pad: str, ascii_only: bool) -> tuple[bytes, dict]:
    value = {"k": key, "pad": pad}
    return json.dumps(value, ensure_ascii=ascii_only).encode("utf-8"), value


# (line bytes, what it holds). Raw U+0085, U+2028 and U+2029 inside an object,
# and a raw \r outside one, end no line: only \n does.
_whole_lines = st.builds(_object_line, st.integers(0, 3),
                         st.text(st.sampled_from('ab{}"\\ \r\x85\u2028\u2029\u00e9'), max_size=200), st.booleans())
_torn_lines = _whole_lines.flatmap(lambda line: st.integers(0, len(line[0]) - 1).map(lambda n: (line[0][:n], None)))
_other_lines = st.one_of(
    st.sampled_from([b"[1]", b"3", b'"s"', b"null", b"not json", b"", b"\r", b"1\r2", "\u2028".encode(), b"\xff{"]),
    st.binary(max_size=20).filter(lambda data: b"\n" not in data),
).map(lambda line: (line, _parsed(line)))
_journals = st.tuples(st.lists(st.one_of(_whole_lines, _torn_lines, _other_lines), max_size=8), st.booleans())


def _journal_bytes(lines: list[tuple[bytes, dict | None]], terminated: bool):
    """The file the lines make, ending in a newline or not, and its lines: an
    empty unterminated last line is no line at all."""
    data = b"\n".join(line for line, _ in lines) + (b"\n" if terminated and lines else b"")
    if lines and not terminated and lines[-1][0] == b"":
        lines = lines[:-1]
    return data, lines


class TestReaders:
    @settings(max_examples=100, deadline=None)
    @given(_journals)
    def test_read_lines_numbers_the_lines_of_a_newline_split(self, journal):
        data, lines = _journal_bytes(*journal)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "j.jsonl"
            path.write_bytes(data)
            assert durable.read_lines(path) == [value for _, value in lines]

    @settings(max_examples=60, deadline=None)
    @given(_journals, st.integers(0, 3))
    def test_newest_line_is_the_newest_accepted_whole_line_of_the_tail(self, journal, key):
        data, lines = _journal_bytes(*journal)
        offsets = list(itertools.accumulate((len(line) + 1 for line, _ in lines), initial=0))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "j.jsonl"
            path.write_bytes(data)
            for tail_bytes in range(1, len(data) + 2):
                start = max(0, len(data) - tail_bytes)
                objects = [value for (_, value), offset in zip(lines, offsets)
                           if offset >= start and value is not None][::-1]  # newest first
                match = next((i for i, value in enumerate(objects) if value["k"] == key), None)
                seen = []
                found = durable.newest_line(path, lambda entry: seen.append(entry) or entry["k"] == key, tail_bytes)
                assert found == (None if match is None else objects[match], start == 0)
                assert seen == (objects if match is None else objects[:match + 1])

    def test_a_tail_that_opens_at_a_line_start_holds_that_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_bytes(b'{"k": 1}\n{"k": 2}\n')
        assert durable.newest_line(path, lambda entry: entry["k"] == 2, 9) == ({"k": 2}, False)
        assert durable.newest_line(path, lambda entry: entry["k"] == 1, 9) == (None, False)
        assert durable.newest_line(path, lambda entry: entry["k"] == 1, 18) == ({"k": 1}, True)

    def test_a_line_nested_too_deep_to_parse_holds_no_object(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_bytes(b'{"k": 1}\n' + b"[" * 100_000 + b"\n")
        assert durable.read_lines(path) == [{"k": 1}, None]
        assert durable.newest_line(path, bool, 200_000) == ({"k": 1}, True)

    def test_a_missing_file_is_an_empty_journal(self, tmp_path):
        assert durable.read_lines(tmp_path / "none.jsonl") == []
        assert durable.newest_line(tmp_path / "none.jsonl", lambda entry: True, 10) == (None, True)

    @pytest.mark.parametrize("read", [durable.read_lines, lambda path: durable.newest_line(path, bool, 10)],
                             ids=["read_lines", "newest_line"])
    def test_a_directory_is_an_error_that_names_it(self, tmp_path, read):
        (tmp_path / "dir").mkdir()
        with pytest.raises(IsADirectoryError) as failed:
            read(tmp_path / "dir")
        assert str(tmp_path / "dir") in str(failed.value)


_OS_WRITES = ("write", "replace", "rename", "O_APPEND", "O_WRONLY", "O_RDWR", "O_TRUNC")


def _write_of(node: ast.AST) -> str | None:
    """The way of writing a file that node is, if it is one."""
    if isinstance(node, ast.Attribute):
        if node.attr in ("write_text", "write_bytes"):
            return node.attr
        if isinstance(node.value, ast.Name) and node.value.id == "os" and node.attr in _OS_WRITES:
            return f"os.{node.attr}"
    if isinstance(node, ast.Call):
        func = node.func
        if getattr(func, "attr", None) == "NamedTemporaryFile":
            return "NamedTemporaryFile"
        # open(path, mode) or path.open(mode); os.open is judged by its flags above
        if isinstance(func, ast.Name) and func.id == "open":
            mode = node.args[1] if len(node.args) > 1 else None
        elif isinstance(func, ast.Attribute) and func.attr == "open" and getattr(func.value, "id", "") != "os":
            mode = node.args[0] if node.args else None
        else:
            return None
        mode = next((k.value for k in node.keywords if k.arg == "mode"), mode)
        if mode is not None and not (isinstance(mode, ast.Constant) and not set(mode.value) & set("wax+")):
            return "open"
    return None


def _writes_outside_durable(tree: ast.Module) -> list[tuple[str, str]]:
    """(enclosing function, way) for each way of writing a file in a module."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            way = _write_of(child)
            if way:
                found.append((function, way))
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_only_durable_writes_files():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "durable":
            for function, what in _writes_outside_durable(ast.parse(path.read_text(encoding="utf-8"))):
                found.setdefault(path.stem, []).append((function, what))
    # The build input handed to the engine, and the state lock's fd.
    assert found == {"build_engine": [("build", "NamedTemporaryFile")], "cli": [("_lock_state", "os.O_RDWR")]}


def test_only_demo_store_appends_lines_itself():
    # A store's lines are its canonical UTF-8 JSON; every other journal line is
    # written by `append_objects`.
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "durable":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call) and "append_line" in (getattr(node.func, "id", None),
                                                                    getattr(node.func, "attr", None)):
                    callers.add(path.stem)
    assert callers == {"demo_store"}


def test_durable_exposes_seven_names():
    tree = ast.parse((PACKAGE / "durable.py").read_text(encoding="utf-8"))
    names = [node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assigned = [t.id for node in tree.body if isinstance(node, ast.Assign) for t in node.targets]
    public = [n for n in names + assigned if not n.startswith("_")]
    assert public == ["append_line", "append_objects", "appending", "replacing", "read_lines", "newest_line",
                      "read_input"]


def test_read_input_keeps_every_carriage_return(tmp_path):
    path = tmp_path / "input.txt"
    path.write_bytes(b"a\rb\r\nc\xff")
    assert durable.read_input(path, errors="replace") == "a\rb\r\nc\ufffd"
    assert durable.read_input(path, errors=None) == b"a\rb\r\nc\xff"
    path.write_bytes(b"a\rb\r\nc")
    assert durable.read_input(path) == "a\rb\r\nc"


# --- crash points ---


def _write_scenario(path: Path, builds, responses=None) -> Path:
    path.write_text(json.dumps({"builds": builds, **({"responses": responses} if responses else {})}))
    return path


FAIL = {"status": "failure", "log": ALPINE_PIP_LOG, "exit_code": 1}


def _detect_world(root: Path) -> list[str]:
    (root / "p").mkdir()
    (root / "p" / "Dockerfile").write_text(ALPINE_PIP)
    scenario = _write_scenario(root / "s.json", [{"match": None, "outcomes": [{"status": "success"}, FAIL]}])
    return ["--json", "--state-dir", str(root / "state"), "--driver", f"simulated:{scenario}",
            "detect", str(root / "p" / "Dockerfile")]


def _monitor_world(root: Path, rounds: int = 2) -> list[str]:
    lines = []
    for name, text in (("bad", "FROM busybox\n# bad\n"), ("good", "FROM busybox\n")):
        (root / name).mkdir(exist_ok=True)
        (root / name / "Dockerfile").write_text(text)
        lines.append(f"{name} {root / name}\n")
    (root / "manifest.txt").write_text("".join(lines))
    scenario = _write_scenario(root / "s.json", [
        {"match": "bad", "outcomes": [FAIL]},
        {"match": None, "outcomes": [{"status": "success"}]},
    ])
    return ["--json", "--state-dir", str(root / "state"), "--driver", f"simulated:{scenario}",
            "monitor", str(root / "manifest.txt"), "--rounds", str(rounds)]


def _monitor_world_with_untallied_history(root: Path) -> list[str]:
    """The monitor world, after an older version that wrote no `tally` ran it."""
    args = _monitor_world(root)
    (root / "state" / "history").mkdir(parents=True)
    for name, statuses in (("bad", ["failure", "success", "failure"]), ("good", ["success"])):
        content_hash = parse_dockerfile((root / name / "Dockerfile").read_bytes()).content_hash
        lines = [{"status": status, "started_at": "2024-01-01T00:00:00+00:00", "duration": 1.0, "exclusion": None,
                  "dockerfile_hash": content_hash} for status in statuses]
        text = "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)
        (root / "state" / "history" / f"{name}.jsonl").write_text(text)
    return args


def _repair_world(root: Path) -> list[str]:
    (root / "project").mkdir()
    (root / "project" / "Dockerfile").write_text(ALPINE_PIP)
    scenario = _write_scenario(
        root / "s.json",
        [{"match": "venv", "outcomes": [{"status": "success", "log": "ok"}]}, {"match": None, "outcomes": [FAIL]}],
        responses=[fenced(ALPINE_PIP_REPAIRED)],
    )
    (root / "flakidock.conf").write_text(f"generation_provider = scripted:{scenario}\n")
    return ["--json", "--state-dir", str(root / "state"), "--driver", f"simulated:{scenario}",
            "--config", str(root / "flakidock.conf"), "repair", str(root / "project" / "Dockerfile")]


def _journal(path: Path) -> tuple[list[dict], bytes]:
    """The records of a journal's whole lines, each of which must parse, and
    its unterminated tail (b"" when it ends in a newline)."""
    *lines, tail = path.read_bytes().split(b"\n")
    return [json.loads(line) for line in lines], tail


def _written_whole(root: Path) -> dict[str, bytes]:
    """Every file under state/ that is not a journal, a lock or a leftover
    temporary, and the repaired Dockerfile: relative path -> bytes."""
    files = [p for p in (root / "state").rglob("*") if p.is_file() and p.suffix not in (".jsonl", ".tmp")]
    files += list(root.glob("project/*.repaired"))
    return {str(p.relative_to(root)): p.read_bytes() for p in files if p.name != ".lock"}


def _lock_is_free(state: Path) -> bool:
    fd = os.open(state / ".lock", os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        return True
    except BlockingIOError:
        return False
    finally:
        os.close(fd)


def _rerun_detect(root: Path, args: list[str], journals: dict[Path, tuple]) -> None:
    """A rerun's two builds land on their own lines, numbered after every line the kill left."""
    assert CliRunner().invoke(main, args).exit_code == 2
    (path,) = (root / "state" / "builds").glob("*/builds.jsonl")
    before, tail = journals.get(path, ([], b""))
    lines = path.read_bytes().split(b"\n")
    assert len(lines) - 1 == len(before) + bool(tail) + 2
    assert [json.loads(line)["status"] for line in lines[-3:-1]] == ["success", "failure"]


def _rerun_monitor(root: Path, args: list[str], journals: dict[Path, tuple]) -> None:
    """A rerun of one round counts every whole failure line the kill left, plus its own."""
    result = CliRunner().invoke(main, args[:-1] + ["1"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)["projects"]
    for name, own in (("bad", 1), ("good", 0)):
        before, _ = journals.get(root / "state" / "history" / f"{name}.jsonl", ([], b""))
        assert report[name]["failures"] == sum(h["status"] == "failure" for h in before) + own


def _rerun_repair(root: Path, args: list[str], reference: dict[str, bytes]) -> None:
    """A rerun repairs as an uninterrupted run does, in a session directory of its own."""
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    session = Path(json.loads(result.output)["session_dir"]).name
    written = _written_whole(root)
    for name, data in reference.items():
        parts = name.split("/")
        if parts[:2] == ["state", "sessions"]:
            parts[2] = session
        assert written["/".join(parts)] == data, parts


WORLDS = {"detect": _detect_world, "monitor": _monitor_world, "monitor-untallied": _monitor_world_with_untallied_history,
          "repair": _repair_world}


@pytest.mark.parametrize("command", sorted(WORLDS))
def test_every_crash_point_leaves_consistent_state(tmp_path, command):
    world = WORLDS[command]
    ref = tmp_path / "ref"
    ref.mkdir()
    proc, calls = crashpoint.run(world(ref), ref)
    assert proc.returncode in (0, 2), proc.stderr
    assert calls and "write" in calls
    if command == "repair":
        assert "replace" in calls
    reference = _written_whole(ref)
    points = [(when, k) for k, call in enumerate(calls, 1)
              for when in ("before", "after", "torn") if call == "write" or when != "torn"]
    for when, k in points:
        root = tmp_path / f"{when}-{k}"
        root.mkdir()
        args = world(root)
        proc, _ = crashpoint.run(args, root, when, k)
        assert proc.returncode == crashpoint.KILLED, (when, k, proc.stderr)
        journals = {path: _journal(path) for path in (root / "state").rglob("*.jsonl")}
        torn = [path for path, (_, tail) in journals.items() if tail]
        assert len(torn) == (when == "torn"), (when, k, torn)
        for name, data in _written_whole(root).items():
            assert reference.get(name) == data, (when, k, name)
        assert _lock_is_free(root / "state")
        if command == "detect":
            _rerun_detect(root, args, journals)
        elif command.startswith("monitor"):
            _rerun_monitor(root, args, journals)
        else:
            _rerun_repair(root, args, reference)


def test_no_crash_point_leaves_a_repaired_verdict_without_the_repaired_file(tmp_path):
    ref = tmp_path / "ref"
    ref.mkdir()
    proc, calls = crashpoint.run(_repair_world(ref), ref)
    assert proc.returncode == 0, proc.stderr
    repaired = (ref / "project" / "Dockerfile.repaired").read_bytes()
    seen_repaired = False
    for k in range(1, len(calls) + 1):  # a kill before call k leaves what one after call k - 1 does
        root = tmp_path / f"after-{k}"
        root.mkdir()
        proc, _ = crashpoint.run(_repair_world(root), root, "after", k)
        assert proc.returncode == crashpoint.KILLED, (k, proc.stderr)
        verdicts = [json.loads(p.read_bytes())["verdict"] for p in root.glob("state/sessions/*/verdict.json")]
        if "repaired" in verdicts:
            seen_repaired = True
            written = root / "project" / "Dockerfile.repaired"
            assert written.exists() and written.read_bytes() == repaired, k
    assert seen_repaired


@pytest.mark.xfail(
    raises=StoreError, strict=True,
    reason="ROADMAP item 3: records.jsonl is not yet the store's one commit point, so a kill "
           "between the vectors and the records replace leaves new vectors beside old records",
)
def test_save_killed_after_the_vectors_replace_leaves_a_loadable_store(tmp_path):
    full = load_store(builtin_store_path(), HashingEmbeddingProvider())
    store = tmp_path / "store" / "records.jsonl"
    save_store(DemonstrationIndex(full.records[:-1], full.matrix[:-1]), store)
    code = (
        "from flakidock.demo_store import builtin_store_path, load_store, save_store\n"
        "from flakidock.providers import HashingEmbeddingProvider\n"
        f"save_store(load_store(builtin_store_path(), HashingEmbeddingProvider()), {str(store)!r})\n"
    )
    proc, _ = crashpoint.run(["-c", code], tmp_path, "after", 1)  # the first call replaces vectors.bin
    assert proc.returncode == crashpoint.KILLED, proc.stderr
    assert len(load_store(store)) in (len(full) - 1, len(full))  # the old store or the new one


# --- appending store saves ---


def _partial_builtin_store(store: Path) -> list[str]:
    """Save the builtin store but its last two records to `store`; their ids."""
    full = load_store(builtin_store_path(), HashingEmbeddingProvider())
    save_store(DemonstrationIndex(full.records[:-2], full.matrix[:-2]), store)
    return [r.id for r in full.records[:-2]]


# Adds two records to the store at STORE and saves it back, which appends them.
_APPEND_CODE = """
import dataclasses
from flakidock.demo_store import load_store, save_store
from flakidock.providers import HashingEmbeddingProvider
index = load_store(STORE)
for i in range(2):
    index.add(dataclasses.replace(index.records[i], id=f"added-{i}"), HashingEmbeddingProvider())
save_store(index, STORE)
"""


def _dataset_add_args(root: Path, store: Path, record_id: str) -> list[str]:
    for name, text in (("Dockerfile", ALPINE_PIP), ("build.log", ALPINE_PIP_LOG), ("fixed", ALPINE_PIP_REPAIRED)):
        (root / name).write_text(text)
    return ["--json", "--state-dir", str(root / "state"), "dataset", "add", str(store), "--id", record_id,
            "--category", "ENV", "--dockerfile", str(root / "Dockerfile"), "--log", str(root / "build.log"),
            "--repair", str(root / "fixed")]


def _killed_store(store: Path) -> list[str] | str:
    """The ids of the store a kill left, or the error its load raises. A store
    that loads holds each record's own embedding as its row."""
    try:
        index = load_store(store)
    except (StoreError, SchemaViolation) as exc:
        return str(exc)
    provider = HashingEmbeddingProvider()
    for record, row in zip(index.records, index.matrix):
        assert row.tobytes() == embed(record.combined_text(), provider).tobytes(), record.id
    return [r.id for r in index.records]


def _store_world(command: str, root: Path) -> tuple[list[str], Path, list[str], list[str]]:
    """(arguments, store, old ids, new ids) of an appending save over a store save_store wrote."""
    store = root / "store" / "records.jsonl"
    if command == "save_store":
        old = _partial_builtin_store(store)
        return ["-c", _APPEND_CODE.replace("STORE", repr(str(store)))], store, old, old + ["added-0", "added-1"]
    first = CliRunner().invoke(main, _dataset_add_args(root, store, "first"))
    assert first.exit_code == 0, first.output
    return _dataset_add_args(root, store, "second"), store, ["first"], ["first", "second"]


@pytest.mark.parametrize("command", ["save_store", "dataset add"])
def test_every_crash_point_of_an_appending_save_leaves_the_old_store_the_new_one_or_an_error(tmp_path, command):
    ref = tmp_path / "ref"
    ref.mkdir()
    args, store, old, new = _store_world(command, ref)
    proc, calls = crashpoint.run(args, ref)
    assert proc.returncode == 0, proc.stderr
    assert calls == ["write", "write"]  # the rows, then the lines: nothing is replaced
    assert _killed_store(store) == new
    seen = set()
    for k in (1, 2):
        for when in ("before", "after", "torn"):
            root = tmp_path / f"{when}-{k}"
            root.mkdir()
            args, store, old, new = _store_world(command, root)
            proc, _ = crashpoint.run(args, root, when, k)
            assert proc.returncode == crashpoint.KILLED, (when, k, proc.stderr)
            left = _killed_store(store)
            if (when, k) in (("after", 1), ("before", 2)):  # the rows are in, their lines are not
                assert left.endswith(f"{len(new)} vectors for {len(old)} records"), left
            assert isinstance(left, str) or left in (old, new), (when, k, left)
            seen.add("error" if isinstance(left, str) else len(left))
    assert seen == {"error", len(old), len(new)}


class _FailingOs(crashpoint.CrashingOs):
    """`os` for flakidock.durable whose k-th write or replace fails as on a full disk."""

    def _syscall(self, call, *args):
        self.calls.append(call.__name__)
        if len(self.calls) == self.k:
            raise OSError(errno.ENOSPC, "No space left on device")
        return call(*args)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def _reference_files(index: DemonstrationIndex, directory: Path) -> dict[str, bytes]:
    reference_save_store(index, directory / "records.jsonl")
    return _files(directory)


def _loaded_partial_store(tmp_path: Path) -> tuple[Path, DemonstrationIndex, dict[str, bytes]]:
    store = tmp_path / "store"
    _partial_builtin_store(store / "records.jsonl")
    return store, load_store(store), _files(store)


@pytest.mark.parametrize("failure", ["unencodable record", "full disk"])
def test_a_failed_append_leaves_both_files_as_they_were(tmp_path, monkeypatch, failure):
    store, index, before = _loaded_partial_store(tmp_path)
    if failure == "unencodable record":
        # The provider hands back a stored row, since the hashing embedder rejects the surrogate too.
        provider = SimpleNamespace(dim=index.matrix.shape[1], token_limit=None, provider_id="row-0",
                                   embed_values=lambda text: index.matrix[0])
        record = dataclasses.replace(index.records[0], id="added", static_part="FROM a\n\udc80")
        error, calls = UnicodeEncodeError, []
    else:  # the second write, of the lines, fails after the rows were appended
        provider = HashingEmbeddingProvider()
        record = dataclasses.replace(index.records[0], id="added")
        error, calls = OSError, ["write", "write"]
    index.add(record, provider)
    monkeypatch.setattr(durable, "os", failing := _FailingOs("before", 2))
    with pytest.raises(error):
        save_store(index, store)
    assert failing.calls == calls
    assert _files(store) == before
    if failure == "full disk":
        monkeypatch.undo()
        save_store(index, store)  # the files are not as this index left them: a full save
        assert _files(store) == _reference_files(index, tmp_path / "reference")


def test_dataset_add_to_a_large_store_writes_only_the_new_record(tmp_path, monkeypatch):
    builtin = load_store(builtin_store_path(), HashingEmbeddingProvider())
    rows = [i % len(builtin) for i in range(2_000)]
    records = [dataclasses.replace(builtin.records[row], id=f"r-{i:04d}") for i, row in enumerate(rows)]
    store = tmp_path / "store"
    save_store(DemonstrationIndex(records, builtin.matrix[rows]), store / "records.jsonl")
    assert (store / "vectors.bin").stat().st_size > 64 * 1024

    written = []

    class CountingOs(crashpoint.CrashingOs):
        """Counts the bytes each write makes and each replace publishes."""

        def _syscall(self, call, *args):
            written.append(len(args[1]) if call is os.write else os.stat(args[0]).st_size)
            return call(*args)

    monkeypatch.setattr(durable, "os", CountingOs("before", 0))
    result = CliRunner().invoke(main, _dataset_add_args(tmp_path, store, "added"))
    assert result.exit_code == 0, result.output
    assert 0 < sum(written) < 64 * 1024, written
    monkeypatch.undo()
    index = load_store(store)
    assert len(index) == 2_001
    assert _files(store) == _reference_files(index, tmp_path / "reference")
