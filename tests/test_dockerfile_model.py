from __future__ import annotations

import hashlib
import itertools
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flakidock.dockerfile_model import (
    diff_docs,
    has_instructions,
    parse_dockerfile,
    render_diff,
)
from flakidock.errors import EmptyDocument, FlakiDockError, MalformedEncoding

from support import ALPINE_PIP, ALPINE_PIP_REPAIRED, GOLANG_TWO_STAGE, reference_parse_dockerfile


class TestParse:
    def test_two_instruction_snippet(self):
        text = "FROM alpine:latest\nRUN apk add --update python3 py3-pip git tcpdump"
        doc = parse_dockerfile(text)
        assert (doc.raw_text, doc.stage_count) == (text, 1)

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyDocument):
            parse_dockerfile("")

    def test_blank_only_input_rejected(self):
        with pytest.raises(EmptyDocument):
            parse_dockerfile("\n\n   \n")

    def test_two_stage_fixture(self):
        doc = parse_dockerfile(GOLANG_TWO_STAGE)
        assert doc.stage_count == 2
        assert "FROM golang:1.22 AS build-env" in doc.raw_text
        assert "FROM scratch" in doc.raw_text

    def test_non_utf8_bytes_rejected(self):
        with pytest.raises(MalformedEncoding):
            parse_dockerfile(b"FROM alpine\xff\xfe\n")

    def test_text_without_utf8_form_rejected(self):
        # A lone surrogate is a legal JSON escape but no file can hold it.
        with pytest.raises(MalformedEncoding):
            parse_dockerfile("FROM alpine\nRUN echo \ud800\n")

    def test_continuation_lines_merged(self):
        # A FROM inside a continuation is an argument; one split by a
        # continuation is joined before the first word is read.
        assert parse_dockerfile("RUN apk add \\\n    FROM \\\n    py3-pip\nCMD [\"sh\"]\n").stage_count == 0
        assert parse_dockerfile("FR\\\nOM alpine\n").stage_count == 1
        assert parse_dockerfile("\\\nFROM alpine\n").stage_count == 1
        assert parse_dockerfile("FROM a\nRUN x \\\n# FROM b\n").stage_count == 1

    def test_comment_and_unknown_classification(self):
        text = "# FROM build stage\nFROM alpine\nFROOM typo here\n"
        doc = parse_dockerfile(text)
        assert doc.stage_count == 1
        # Unknown lines survive verbatim so generated repairs are never destroyed
        assert doc.raw_text == text

    def test_lowercase_keywords_recognized(self):
        assert parse_dockerfile("from alpine\nrun echo hi\nFrOm scratch\n").stage_count == 2

    def test_every_line_covered_once(self):
        # Each line is read once: as a blank, a comment, an instruction's first
        # line or a continuation, so only the FROMs that start one count.
        text = "FROM a\n\nRUN x \\\n  FROM b\n# FROM c\n \t\nFROM d \\\n  FROM e\n"
        assert parse_dockerfile(text).stage_count == 2

    @given(
        st.lists(
            st.text(alphabet="ab $-\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\r", max_size=12),
            min_size=1,
            max_size=8,
        ),
        st.sampled_from(["\n", "\r\n"]),
    )
    @settings(max_examples=200)
    def test_only_newline_ends_an_instruction(self, args, eol):
        # The engine splits on `\n` alone (dropping a `\r` before it), so
        # other Unicode line breaks stay inside their instruction.
        text = "".join(f"FROM {arg}{eol}" for arg in args)
        doc = parse_dockerfile(text)
        assert doc.stage_count == len(args)
        assert doc.raw_text == text


class TestEmptinessRule:
    @pytest.mark.parametrize(
        "text", ["RUN x\n\\\n\n", "\\\n  \n", "\\\n\\\n\n", "RUN x\n  \\  \r\n\t\n"]
    )
    def test_lone_backslash_before_blank_line_is_unknown(self, text):
        # The `\` joins the blank line into an instruction with no words.
        doc = parse_dockerfile(text)
        assert doc.stage_count == 0
        assert doc.raw_text == text

    @pytest.mark.parametrize(
        "text, expected",
        [("", False), ("\ufeff", False), ("\ufeff \r\n\u3000\x0b\x1c\x85\t", False),
         ("\ufeff\ufeff", True), ("#", True), ("\\", True), ("\n\nx", True)],
    )
    def test_has_instructions_examples(self, text, expected):
        assert has_instructions(text) is expected

    @given(st.text(alphabet="\ufeff\r\n\\# \t\x0b\x0c\x1c\x85\u2028\u3000\xa0aZ", max_size=16))
    @settings(max_examples=500)
    def test_empty_document_exactly_when_predicate_is_false(self, text):
        for source in (text, text.encode("utf-8")):
            try:
                parse_dockerfile(source)  # any other exception fails the test
            except EmptyDocument:
                assert not has_instructions(text)
            else:
                assert has_instructions(text)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            ALPINE_PIP,
            ALPINE_PIP_REPAIRED,
            GOLANG_TWO_STAGE,
            "FROM alpine",  # no trailing newline
            "FROM alpine\r\nRUN echo hi\r\n",  # CRLF
            "FROM alpine\nRUN a \\\n b \\\n c\n",
            "# only a comment\n",
            "WEIRD token line\nFROM x\n",
        ],
    )
    def test_serialize_parse_identity(self, text):
        assert parse_dockerfile(text).raw_text == text

    def test_bytes_round_trip_with_bom(self):
        raw = b"\xef\xbb\xbfFROM alpine\nRUN echo hi\n"
        doc = parse_dockerfile(raw)
        assert (doc.raw_text, doc.stage_count) == ("\ufeffFROM alpine\nRUN echo hi\n", 1)
        assert doc.raw_text.encode() == raw

    def test_content_hash_is_sha256_of_the_utf8_text(self):
        doc = parse_dockerfile("FROM busybox\n")
        assert doc.content_hash == "bd6eb7cda7ad09a623e33e656ea3d9cc9f9d6fca40fb80b26c15b4638d2025b3"

    @given(
        st.lists(
            st.sampled_from(
                [
                    "FROM alpine\n",
                    "RUN echo hi\n",
                    "RUN a \\\n",
                    "  b\n",
                    "# comment\n",
                    "\n",
                    "   \n",
                    "COPY . /srv\n",
                    "weird line\n",
                    "CMD [\"x\"]",
                ]
            ),
            max_size=12,
        )
    )
    def test_round_trip_generated(self, lines):
        text = "".join(lines)
        try:
            doc = parse_dockerfile(text)
        except EmptyDocument:
            return
        assert doc.raw_text == text

    @given(st.text(max_size=200))
    @settings(max_examples=200)
    def test_round_trip_arbitrary_text(self, text):
        try:
            doc = parse_dockerfile(text)
        except EmptyDocument:
            return
        assert doc.raw_text == text


_BOM = "\ufeff"
# Fragments that meet the parser's rules: keywords in any case, continuations
# into FROM, `#` lines inside continuations, a comment ending in `\` (it
# continues nothing), a `\` before trailing whitespace, a lone `\` before a
# blank line, `\r\n`, and whitespace and line breaks other than `\n` that
# `str.isspace` or `str.splitlines` knows.
_PIECES = [
    "FROM", "from", "FrOm", "RUN", "x", "a b", " ", "\t", "\\", "#", "\n", "\r\n", "\r",
    "\\\n", "\\\n\n", "\\\n# c\n", "\\\nFROM x\n", "FR\\\nOM", "\\ \t\r\n", "\t# c \\\n", _BOM,
    "\u3000", "\xa0", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029", "\u017f",
]
_TEXTS = st.tuples(
    st.sampled_from(["", _BOM, _BOM * 2]),
    st.lists(st.one_of(st.sampled_from(_PIECES), st.text(max_size=3)), max_size=16),
).map(lambda parts: parts[0] + "".join(parts[1]))
_SOURCES = st.one_of(
    _TEXTS,
    _TEXTS.map(lambda text: text.encode("utf-8")),
    st.tuples(_TEXTS, st.binary(min_size=1, max_size=2)).map(lambda p: p[0].encode("utf-8") + p[1]),
)


class TestDifferential:
    """The text-only parser against the instruction-tree parser it replaced."""

    @given(_SOURCES)
    @example(_BOM + "FROM a\r\nRUN b\r\n")
    @example(b"\xef\xbb\xbfFROM a\n")
    @example("RUN x\n\\\n\nFROM y\n")
    @example("RUN \\\nFROM x\nFROM y \\\n# c\n  z\n")
    @example("  # a comment does not continue \\\nFROM x\n")
    @example("FR\\ \t\r\nOM x\n")
    @example("\u2028FROM x\x85FROM y\n\u3000from\x0bz\n")
    @settings(max_examples=2000, deadline=None)
    def test_matches_the_instruction_tree_parser(self, source):
        try:
            want = reference_parse_dockerfile(source)
        except FlakiDockError as exc:
            with pytest.raises(type(exc)):
                parse_dockerfile(source)
            return
        doc = parse_dockerfile(source)
        assert (doc.raw_text, doc.stage_count, doc.content_hash) == want
        if isinstance(source, bytes):  # the hash names the file's bytes
            assert doc.content_hash == hashlib.sha256(source).hexdigest()


class TestDiff:
    def test_identical_documents_all_keep(self):
        doc = parse_dockerfile(ALPINE_PIP)
        edits = diff_docs(doc, doc)
        assert all(e.op == "keep" for e in edits)
        assert len(edits) == len(ALPINE_PIP.splitlines())

    def test_alpine_repair_diff(self):
        before = parse_dockerfile(ALPINE_PIP)
        after = parse_dockerfile(ALPINE_PIP_REPAIRED)
        edits = diff_docs(before, after)
        removed = [e.text for e in edits if e.op == "remove"]
        added = [e.text for e in edits if e.op == "add"]
        assert removed == ["RUN pip3 install -r requirements.txt\n"]
        assert added == [
            "RUN python3 -m venv venv\n",
            "RUN . venv/bin/activate && pip install -r requirements.txt\n",
        ]

    def test_single_added_run_is_one_edit(self):
        before = parse_dockerfile("FROM alpine\nRUN a\n")
        after = parse_dockerfile("FROM alpine\nRUN a\nRUN b\n")
        edits = diff_docs(before, after)
        non_keep = [e for e in edits if e.op != "keep"]
        assert len(non_keep) == 1 and non_keep[0].op == "add"

    def test_patch_reproduces_after(self):
        before = parse_dockerfile(ALPINE_PIP)
        after = parse_dockerfile(GOLANG_TWO_STAGE)
        edits = diff_docs(before, after)
        assert "".join(e.text for e in edits if e.op != "remove") == after.raw_text
        assert "".join(e.text for e in edits if e.op != "add") == before.raw_text

    def test_render_diff_markers(self):
        before = parse_dockerfile("FROM alpine\nRUN a\n")
        after = parse_dockerfile("FROM alpine\nRUN b\n")
        rendered = render_diff(diff_docs(before, after))
        assert "- RUN a" in rendered and "+ RUN b" in rendered

    @given(
        st.lists(st.sampled_from(["FROM a\n", "RUN x\n", "RUN y\n", "COPY . /\n"]), min_size=1, max_size=8),
        st.lists(st.sampled_from(["FROM a\n", "RUN x\n", "RUN y\n", "COPY . /\n"]), min_size=1, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_minimality_matches_brute_force_lcs(self, lines_a, lines_b):
        before = parse_dockerfile("".join(lines_a))
        after = parse_dockerfile("".join(lines_b))
        edits = diff_docs(before, after)
        keeps = sum(1 for e in edits if e.op == "keep")
        a = before.raw_text.splitlines(keepends=True)
        b = after.raw_text.splitlines(keepends=True)
        assert keeps == _exhaustive_lcs(a, b)
        assert "".join(e.text for e in edits if e.op != "remove") == after.raw_text
        assert "".join(e.text for e in edits if e.op != "add") == before.raw_text


def _exhaustive_lcs(a: list[str], b: list[str]) -> int:
    """Try every subsequence of `a` against `b`; the definition, verbatim."""
    best = 0
    for size in range(len(a), 0, -1):
        if size <= best:
            break
        for combo in itertools.combinations(a, size):
            it = iter(b)
            if all(any(x == y for y in it) for x in combo):
                best = max(best, size)
                break
    return best


def _table_lcs(a: list[str], b: list[str]) -> int:
    """The length of a longest common subsequence, by the (n+1)×(m+1) table."""
    row = [0] * (len(b) + 1)
    for x in a:
        diagonal = 0
        for j, y in enumerate(b, 1):
            diagonal, row[j] = row[j], diagonal + 1 if x == y else max(row[j], row[j - 1])
    return row[-1]


_LINES = st.lists(st.sampled_from(["FROM a\n", "RUN x\n", "RUN y\n", "COPY . /\n", "\n", "RUN z"]), max_size=60)


@given(_LINES, _LINES)
@settings(max_examples=300, deadline=None)
def test_long_scripts_are_minimal_and_remove_before_they_add(lines_a, lines_b):
    before = parse_dockerfile("FROM a\n" + "".join(lines_a) + "RUN end\n")
    after = parse_dockerfile("FROM b\n" + "".join(lines_b))
    edits = diff_docs(before, after)
    a = before.raw_text.splitlines(keepends=True)
    b = after.raw_text.splitlines(keepends=True)
    assert sum(e.op == "keep" for e in edits) == _table_lcs(a, b)
    assert "".join(e.text for e in edits if e.op != "remove") == after.raw_text
    assert "".join(e.text for e in edits if e.op != "add") == before.raw_text
    hunks = "".join(e.op[0] for e in edits).split("k")  # the removals and additions between two keeps
    assert all(hunk == "r" * hunk.count("r") + "a" * hunk.count("a") for hunk in hunks)


def test_a_long_file_with_few_changes_diffs_in_linear_time_and_space():
    lines = [f"RUN step-{i} --flag {i % 7}\n" for i in range(2_000)]
    changed = list(lines)
    for k in range(10):
        changed[100 + 190 * k] = f"RUN changed-{k}\n"
    before, after = parse_dockerfile("".join(lines)), parse_dockerfile("".join(changed))
    timings = []
    for _ in range(5):
        start = time.perf_counter()
        edits = diff_docs(before, after)
        timings.append(time.perf_counter() - start)
    assert [e.op for e in edits].count("keep") == 1_990
    assert [e.text for e in edits if e.op == "add"] == [f"RUN changed-{k}\n" for k in range(10)]
    # A table of (n+1)×(m+1) entries took about half a second here, and 32 MB.
    assert min(timings) < 0.005, timings
    tracemalloc.start()
    try:
        diff_docs(before, after)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 1024 * 1024, peak
