from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flakidock.dockerfile_model import (
    Keyword,
    apply_edits,
    diff_docs,
    has_instructions,
    parse_dockerfile,
    render_diff,
    serialize,
)
from flakidock.errors import EmptyDocument, MalformedEncoding

from support import ALPINE_PIP, ALPINE_PIP_REPAIRED, GOLANG_TWO_STAGE


class TestParse:
    def test_two_instruction_snippet(self):
        doc = parse_dockerfile(
            "FROM alpine:latest\nRUN apk add --update python3 py3-pip git tcpdump"
        )
        assert [ins.keyword for ins in doc.instructions] == [Keyword.FROM, Keyword.RUN]
        assert doc.stage_count == 1
        assert doc.instructions[0].arguments == "alpine:latest"

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

    def test_continuation_lines_merged(self):
        doc = parse_dockerfile("RUN apk add \\\n    python3 \\\n    py3-pip\nCMD [\"sh\"]\n")
        assert len(doc.instructions) == 2
        run = doc.instructions[0]
        assert run.keyword is Keyword.RUN
        assert run.source_span == (1, 3)
        assert "python3" in run.arguments and "py3-pip" in run.arguments

    def test_comment_and_unknown_classification(self):
        doc = parse_dockerfile("# build stage\nFROM alpine\nFROOM typo here\n")
        keywords = [ins.keyword for ins in doc.instructions]
        assert keywords == [Keyword.COMMENT, Keyword.FROM, Keyword.UNKNOWN]
        # UNKNOWN lines survive verbatim so generated repairs are never destroyed
        assert serialize(doc) == "# build stage\nFROM alpine\nFROOM typo here\n"

    def test_lowercase_keywords_recognized(self):
        doc = parse_dockerfile("from alpine\nrun echo hi\n")
        assert [i.keyword for i in doc.instructions] == [Keyword.FROM, Keyword.RUN]

    def test_every_line_covered_once(self):
        text = "FROM alpine\n\nRUN a \\\n  b\n# note\n   \nCMD [\"x\"]\n"
        doc = parse_dockerfile(text)
        covered = set()
        for ins in doc.instructions:
            span = range(ins.source_span[0], ins.source_span[1] + 1)
            assert not covered.intersection(span)
            covered.update(span)
        blanks = {n for n, _ in doc.blank_lines}
        assert not covered.intersection(blanks)
        assert covered | blanks == set(range(1, len(text.splitlines()) + 1))

    def test_spans_strictly_increasing(self):
        doc = parse_dockerfile(GOLANG_TWO_STAGE)
        spans = [ins.source_span for ins in doc.instructions]
        for (a_first, a_last), (b_first, _) in zip(spans, spans[1:]):
            assert a_first <= a_last < b_first

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
        text = "".join(f"RUN {arg}{eol}" for arg in args)
        doc = parse_dockerfile(text)
        assert [ins.keyword for ins in doc.instructions] == [Keyword.RUN] * len(args)
        assert serialize(doc) == text


class TestEmptinessRule:
    @pytest.mark.parametrize(
        "text", ["RUN x\n\\\n\n", "\\\n  \n", "\\\n\\\n\n", "RUN x\n  \\  \r\n\t\n"]
    )
    def test_lone_backslash_before_blank_line_is_unknown(self, text):
        doc = parse_dockerfile(text)
        last = doc.instructions[-1]
        assert (last.keyword, last.arguments) == (Keyword.UNKNOWN, "")
        assert serialize(doc) == text

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
        assert serialize(parse_dockerfile(text)) == text

    def test_bytes_round_trip_with_bom(self):
        raw = b"\xef\xbb\xbfFROM alpine\nRUN echo hi\n"
        doc = parse_dockerfile(raw)
        assert doc.had_bom
        assert doc.to_bytes() == raw

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
        assert serialize(doc) == text

    @given(st.text(max_size=200))
    @settings(max_examples=200)
    def test_round_trip_arbitrary_text(self, text):
        try:
            doc = parse_dockerfile(text)
        except EmptyDocument:
            return
        assert serialize(doc) == text


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
        assert apply_edits(before.raw_text, edits) == after.raw_text

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
        assert apply_edits(before.raw_text, edits) == after.raw_text


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
