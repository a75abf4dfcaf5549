from __future__ import annotations

import random
import re
import time
from dataclasses import replace
from itertools import compress
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flakidock import log_preprocess
from flakidock.errors import InvalidRule
from flakidock.log_preprocess import (
    EXCERPT_LINE_CAP,
    PreprocessedLog,
    RuleSet,
    _parse_rule,
    _required_literal,
    _segment,
    classify_failure_exclusion,
    preprocess_log,
)
from flakidock.providers import HashingEmbeddingProvider
from flakidock.similarity import embed

from support import (
    ALPINE_PIP_LOG,
    preprocess_corpus,
    reference_classify_failure_exclusion,
    reference_match_names,
    reference_preprocess_log,
    reference_segment_stages,
    reference_strip_ansi,
    template_raw_logs,
)


def _sections(log: str) -> list[tuple]:
    """`_segment(log)` as one `(header, lines)` per stage, in log order. The
    preamble, whose header is None, is left out when it is empty and the log
    has a banner, as `reference_segment_stages` leaves it out."""
    lines, banners = _segment(log)
    bounds = zip([-1, *banners], [*banners, len(lines)])
    sections = [(lines[lo] if lo >= 0 else None, lines[lo + 1 : hi]) for lo, hi in bounds]
    return sections if sections[0][1] or len(sections) == 1 else sections[1:]


class TestSegmentation:
    def test_recognizes_classic_banner(self):
        headers = [header for header, _ in _sections(ALPINE_PIP_LOG) if header]
        assert any("[5/5]" in h for h in headers)

    def test_empty_log_single_preamble(self):
        assert _segment("") == ([], [])
        assert _sections("") == [(None, [])]
        assert preprocess_log("").stages == 0

    def test_two_banner_fixture(self):
        log = "\n".join(
            ["> [1/2] RUN step one", "a", "b", "c", "> [2/2] RUN step two", "d", "e", "f"]
        )
        assert _segment(log) == (log.split("\n"), [0, 4])
        assert _sections(log) == [
            ("> [1/2] RUN step one", ["a", "b", "c"]), ("> [2/2] RUN step two", ["d", "e", "f"]),
        ]
        assert preprocess_log(log).stages == 2

    def test_named_stage_banner(self):
        assert _segment("> [build-env 4/4] RUN go build:\nboom\n")[1] == [0]

    def test_buildkit_hash_banner_and_timestamps(self):
        log = "#5 [2/4] RUN apt-get update\n#5 0.412 Reading package lists...\n#5 1.900 Done\n"
        assert _sections(log) == [
            ("#5 [2/4] RUN apt-get update", ["#5 0.412 Reading package lists...", "#5 1.900 Done"]),
        ]
        # The timings put the error in second 1 with "Done", and the line of
        # second 0 two lines above it is dropped.
        assert preprocess_log(log + "#5 1.950 ERROR: fetch failed\n").lines == [
            "#5 [2/4] RUN apt-get update", "#5 1.900 Done", "#5 1.950 ERROR: fetch failed",
        ]

    def test_preamble_kept_when_nonempty(self):
        log = "pulling metadata\n> [1/1] RUN x\nok\n"
        assert _segment(log) == (["pulling metadata", "> [1/1] RUN x", "ok"], [1])
        assert _sections(log) == [(None, ["pulling metadata"]), ("> [1/1] RUN x", ["ok"])]

    def test_stage_header_and_lines_hold_no_escapes(self):
        log = "\x1b[1m#5 [2/2] RUN make\x1b[0m\n#5 0.100 \x1b[31mcompiling\x1b[0m\n"
        assert _segment(log) == (["#5 [2/2] RUN make", "#5 0.100 compiling"], [0])

    def test_carriage_returns_give_the_excerpt_of_plain_line_ends(self):
        # The real driver journals the engine's "\r" progress frames and "\r\n"
        # ends; `splitlines` breaks at them, as at the "\n" that replace them.
        for log in template_raw_logs(10):
            framed = log.replace("\n", "\n#9 0.100 10%\r#9 0.200 50%\r#9 0.300 error: x\r\n", 1)
            framed = framed.replace("\n", "\r\n").replace("\r\r\n", "\r\n")
            plain = framed.replace("\r\n", "\n").replace("\r", "\n")
            assert "\r" in framed and preprocess_log(framed) == preprocess_log(plain)

    def test_stage_indices_unique_across_restarting_banners(self):
        # A restarted [i/k] numbering still opens a new section, in log order.
        log = "> [1/2] RUN a\nx\n> [2/2] RUN b\n> [1/3] RUN c\ny\n"
        assert _sections(log) == [
            ("> [1/2] RUN a", ["x"]), ("> [2/2] RUN b", []), ("> [1/3] RUN c", ["y"]),
        ]
        assert preprocess_log(log).stages == 3


class TestRules:
    def test_default_rules_load(self):
        rules = RuleSet.default()
        assert rules.matching_lines(["error: externally-managed-environment"])
        assert rules.matching_lines(["E: Unable to locate package"])
        assert not rules.matching_lines(["Installing collected packages"])

    def test_exclusion_rule_vetoes(self):
        rules = RuleSet.default()
        assert not rules.matching_lines(["warning: error while loading preferences"])

    def test_a_vetoed_line_and_a_hit_in_one_scan(self):
        # The shipped `!substr:warning:` veto drops line 0; line 1 is named by the include that hit it.
        assert RuleSet.default().matching_lines(["warning: error x", "error: y"]) == [(1, ["substr:error"])]

    def test_invalid_regex_rejected_at_load(self):
        with pytest.raises(InvalidRule):
            RuleSet.from_lines(["regex:[unclosed"])

    def test_unknown_prefix_rejected(self):
        with pytest.raises(InvalidRule):
            RuleSet.from_lines(["glob:*.log"])

    def test_comments_and_blanks_skipped(self):
        rules = RuleSet.from_lines(["# heading", "", "substr:boom"])
        assert rules.matching_lines(["it went BOOM today"])

    def test_rule_file_round_trip(self, tmp_path):
        path = tmp_path / "custom.rules"
        path.write_text("substr:kaput\n!substr:ignore-me\n")
        rules = RuleSet.from_file(path)
        assert rules.matching_lines(["kaput happened"])
        assert not rules.matching_lines(["kaput but ignore-me"])


class TestExtraction:
    def test_alpine_log_keeps_error_lines(self):
        result = preprocess_log(ALPINE_PIP_LOG)
        text = result.as_text()
        assert "error: externally-managed-environment" in text
        assert (
            'ERROR: process "/bin/sh -c pip3 install -r requirements.txt" '
            "did not complete successfully: exit code: 1" in text
        )

    def test_no_matches_empty_excerpts(self):
        result = preprocess_log("> [1/1] RUN echo hi\nhello\nworld\n")
        assert result.lines == []
        assert result.as_text() == ""
        assert result.total_lines_out == 0

    def test_timestamp_bucket_joins_distant_lines(self):
        # One root-cause line and an ERROR line 150+ lines apart but in the
        # same integer second; only they (and same-bucket lines) survive.
        lines = ["#4 [1/1] RUN make release"]
        lines.append("#4 12.001 make: entering directory '/src'")
        for i in range(150):
            lines.append(f"#4 {20 + i}.500 compiling unit {i}")
        lines.append("#4 12.900 ERROR failed to link module core")
        result = preprocess_log("\n".join(lines), RuleSet.default())
        assert result.lines == [
            "#4 [1/1] RUN make release",
            "#4 12.001 make: entering directory '/src'",
            "#4 12.900 ERROR failed to link module core",
        ]
        assert result.total_lines_out == 2

    def test_adjacency_window_without_timestamps(self):
        log = "> [1/1] RUN x\na\nb\nBOOM error happened\nc\nd\ne\n"
        result = preprocess_log(log)
        assert result.lines == ["> [1/1] RUN x", "a", "b", "BOOM error happened", "c", "d"]

    @pytest.mark.parametrize(
        "log, lines, total_out, rule_hits, stages",
        [
            # An empty stage keeps nothing, and a banner that matches a rule is no hit.
            ("> [1/3] RUN a\nx\nerror: one\ny\n\nz\n> [2/3] RUN error-prone\n#5 [3/3] RUN failed step\n"
             "#5 0.1 fine\n#5 0.5 E: broken\n#5 1.0 later",
             ["> [1/3] RUN a", "x", "error: one", "y", "#5 [3/3] RUN failed step", "#5 0.1 fine", "#5 0.5 E: broken"],
             5, {"substr:error": 1, "substr:E:": 1}, 3),
            ("> [1/1] RUN make error", [], 0, {}, 1),
            ("", [], 0, {}, 0),
            # A banner on the last line, and banners on consecutive lines.
            ("error: early\nctx\n> [1/1] RUN error late", ["error: early"], 1, {"substr:error": 1}, 1),
            ("> [1/3] RUN a\n> [2/3] RUN b\n> [3/3] RUN c\nerror: x\nafter",
             ["> [3/3] RUN c", "error: x", "after"], 2, {"substr:error": 1}, 3),
        ],
        ids=["empty-stage-and-matching-banner", "matching-banner-only", "empty-log", "banner-last",
             "consecutive-banners"],
    )
    def test_banners_are_never_hits(self, log, lines, total_out, rule_hits, stages):
        got = _assert_matches_reference(log)
        assert (got.lines, got.total_lines_out, got.stages) == (lines, total_out, stages)
        assert list(got.rule_hits.items()) == list(rule_hits.items())

    def test_preamble_lines_kept_only_on_direct_match(self):
        log = "context line\nerror: preamble exploded\nanother context line\n"
        result = preprocess_log(log)
        assert result.lines == ["error: preamble exploded"]

    def test_rule_hits_populated(self):
        result = preprocess_log(ALPINE_PIP_LOG)
        assert result.rule_hits.get("substr:error", 0) >= 2

    def test_cap_keeps_earliest_and_latest_regions(self):
        body = "\n".join(f"error line {i}" for i in range(300))
        log = "> [1/1] RUN x\n" + body + "\n"
        result = preprocess_log(log)
        assert result.total_lines_out == EXCERPT_LINE_CAP
        # The header once, then the first 60 and the last 60 kept lines.
        half = EXCERPT_LINE_CAP // 2
        assert result.lines == ["> [1/1] RUN x"] + [
            f"error line {i}" for i in [*range(half), *range(300 - half, 300)]
        ]

    def test_ansi_codes_do_not_block_matching(self):
        log = "> [1/1] RUN x\n\x1b[31merror: tinted failure\x1b[0m\n"
        result = preprocess_log(log)
        # Matching ignores the escapes, and the excerpt holds the plain line.
        assert result.lines == ["> [1/1] RUN x", "error: tinted failure"]

    def test_coloured_and_plain_copies_give_one_excerpt_and_vector(self):
        plain = (
            "#5 [2/2] RUN make\n#5 0.100 compiling\n#5 0.400 ERROR: boom\n"
            "#5 0.700 warning: deprecated failed flag\n#5 1.200 done\n"
        )
        coloured = (
            "#5 \x1b[1m[2/2] RUN make\x1b[0m\n#5 0.100 compiling\x1b[2K\n"
            "#5 0.400 \x1b[31mERROR: boom\x1b[0m\n\x1b[0m\n"
            "#5 0.700 \x1b[33mwarning: deprecated failed flag\x1b[0m\n#5 1.200 done\n"
        )
        want, got = preprocess_log(plain), preprocess_log(coloured)
        assert got.lines == want.lines
        assert got.as_text() == (
            "#5 [2/2] RUN make\n#5 0.100 compiling\n#5 0.400 ERROR: boom\n"
            "#5 0.700 warning: deprecated failed flag"
        )
        provider = HashingEmbeddingProvider()
        assert embed(got.as_text(), provider).tobytes() == embed(want.as_text(), provider).tobytes()


_LOG_LINES = st.lists(
    st.sampled_from(
        [
            "> [1/2] RUN build",
            "> [2/2] RUN test",
            "#3 0.100 progress",
            "#3 0.900 error: bad thing",
            "error: direct hit",
            "ordinary output",
            "fetching layer",
            "E: broken archive",
            "warning: error-shaped but excluded",
            "",
        ]
    ),
    max_size=40,
)


class TestProperties:
    @given(_LOG_LINES)
    @settings(max_examples=150, deadline=None)
    def test_kept_lines_are_subsequence_of_input(self, lines):
        log = "\n".join(lines)
        result = preprocess_log(log)
        # Headers included: each is the input line that opens its stage.
        it = iter(log.splitlines())
        assert all(any(k == raw for raw in it) for k in result.lines)
        assert result.total_lines_out <= result.total_lines_in

    @given(_LOG_LINES)
    @settings(max_examples=100, deadline=None)
    def test_extraction_is_idempotent(self, lines):
        first = preprocess_log("\n".join(lines))
        second = preprocess_log(first.as_text())
        assert second.lines == first.lines

    @given(_LOG_LINES)
    @settings(max_examples=100, deadline=None)
    def test_adding_an_include_rule_is_monotone(self, lines):
        log = "\n".join(lines)
        base = RuleSet.from_lines(["substr:error"])
        extended = RuleSet.from_lines(["substr:error", "substr:fetching"])
        out_base = preprocess_log(log, base).total_lines_out
        out_ext = preprocess_log(log, extended).total_lines_out
        assert out_ext >= out_base

    def test_result_shape(self):
        result = preprocess_log(ALPINE_PIP_LOG)
        assert isinstance(result, PreprocessedLog)
        assert result.total_lines_in == len(ALPINE_PIP_LOG.splitlines())


# Rule sets for the differential tests: the shipped rules; substrings whose
# lowercase differs in length or script (U+0130, U+1E9E, the Kelvin sign) or
# holds regex syntax, beside regexes and `!` vetoes of both kinds; and a set
# with regex includes only.
_DIFF_RULESETS = {
    "default": RuleSet.default(),
    "unicode-veto-regex": RuleSet.from_lines(
        [
            "substr:İstanbul",
            "substr:straẞe",
            "substr:\u212aelvin",
            "substr:a.b",
            "substr:(x)",
            "substr:[1/2]",
            "substr:*",
            "substr:error",
            "regex:bo+m",
            "regex:^E: ",
            "!substr:IGNORE",
            "!regex:harmless",
        ]
    ),
    "regex-only": RuleSet.from_lines(
        ["regex:fail(ed|ure)?", "regex:exit code: \\d+", "!substr:WARNING"]
    ),
}


def _reference_sections(log: str) -> list[tuple]:
    """`reference_segment_stages(log)` de-escaped, in the shape of `_sections`;
    `TestPipelineReference` checks the timestamps it pairs with each line.

    The reference numbers its stages and flags its preamble; `_sections`
    carries neither, so both must follow from list position and header:
    stage indices run 0, 1, ... in list order, and the preamble is the section
    whose header is None."""
    reference = reference_segment_stages(log)
    stages = [index for index, _, preamble, _ in reference if not preamble]
    assert stages == list(range(len(stages)))
    assert all((header is None) == preamble for _, header, preamble, _ in reference)
    assert all(index == -1 for index, _, preamble, _ in reference if preamble)
    return [
        (header and reference_strip_ansi(header), [reference_strip_ansi(text) for _, text in lines])
        for _, header, _, lines in reference
    ]


# Banners, BuildKit and bare timings (Unicode digits and overlong ones too),
# ANSI escapes, and every line break `str.splitlines` knows.
_SEGMENT_PIECES = st.sampled_from(
    [
        "> [1/2] RUN a", "#5 [2/4] RUN b", "=> CACHED [build-env 3/3] COPY", "#5 0.412 ",
        "  1.900 done", "#7 \u0663.\u0664 x", "1" * 320 + ".5 long", "\x1b[31m", "\x1b[0m",
        "\x1b[2K", "error: boom", "  ", "\t", "[", "]", "/", "#", ".", "7", "x",
        "\n", "\r", "\r\n", "\x0b", "\x1c", "\x85", "\u2028",
    ]
)


class TestDifferential:
    """The linear-time extraction against a transcription of the first version."""

    @staticmethod
    def _assert_segments_as_reference(log: str) -> None:
        want = _reference_sections(log)
        assert _sections(log) == want
        assert preprocess_log(log).stages == sum(header is not None for header, _ in want)

    def test_segmentation_matches_reference_on_seeded_corpus(self):
        for log in preprocess_corpus():
            self._assert_segments_as_reference(log)

    @given(st.lists(_SEGMENT_PIECES, max_size=30).map("".join))
    @settings(max_examples=300, deadline=None)
    def test_segmentation_matches_reference(self, log):
        self._assert_segments_as_reference(log)

    # Lines holding "[", with and without "/": only a banner holds both and matches.
    @pytest.mark.parametrize(
        "line, banner",
        [
            ("#1 [internal] load build definition from Dockerfile", False),
            ("#2 [internal] load metadata for docker.io/library/alpine:3.19", False),
            ("=> CACHED [build-env 4/4] COPY . .", True),
            ("\x1b[36m#5 [2/4] RUN make\x1b[0m", True),
            ("[a/b]", False),
            ("[1/2", False),
            ("[1/2]", True),
            ("[ERROR] Failed to execute goal", False),
        ],
    )
    def test_bracketed_lines_segment_as_the_reference(self, line, banner):
        log = f"pulling\n{line}\nerror: boom\n"
        assert _segment(log)[1] == ([1] if banner else [])
        self._assert_segments_as_reference(log)

    def test_corpus_has_every_shape(self):
        logs = preprocess_corpus()
        results = [preprocess_log(log) for log in logs]
        sections = [_sections(log) for log in logs]
        assert any(r.total_lines_out == EXCERPT_LINE_CAP for r in results)
        assert any(len(s) == 1 and s[0][0] is None and r.lines for s, r in zip(sections, results))
        assert any(header and header.startswith("#") for secs in sections for header, _ in secs)
        assert any(header and "CACHED" in header for secs in sections for header, _ in secs)
        reference = [reference_segment_stages(log) for log in logs]
        assert any(ts is not None for secs in reference for *_, lines in secs for ts, _ in lines)
        assert any("\x1b[" in log for log in logs)
        assert any(r.rule_hits.get("substr:E:") for r in results)
        custom = _DIFF_RULESETS["unicode-veto-regex"]
        hits = [preprocess_log(log, custom).rule_hits for log in logs]
        for source in ("substr:İstanbul", "substr:straẞe", "substr:\u212aelvin", "regex:bo+m"):
            assert any(h.get(source) for h in hits), source

    @given(
        st.one_of(
            st.text(max_size=40),
            st.text(alphabet="errofailkelvinstaßẞİıiIK\u212a .()*[]/:E!0123456789-", max_size=30),
        ).filter(lambda line: "\n" not in line)  # split on "\n" only, such a text is two lines
    )
    @settings(max_examples=300, deadline=None)
    def test_single_line_matches_reference(self, line):
        for rules in _DIFF_RULESETS.values():
            names = reference_match_names(rules, line)
            assert rules.matching_lines([line]) == ([(0, names)] if names else [])


def _compiles(pattern: str) -> bool:
    try:
        re.compile(pattern, re.IGNORECASE)
    except re.error:
        return False
    return True


# Random `regex:` patterns: literal runs around a quantifier, and patterns of
# literals (case-folding letters among them), escapes, classes, quantifiers,
# groups, alternation and anchors.
_REGEX_ATOMS = st.sampled_from(
    ["s", "k", "i", "t", "S", "K", "I", "a", "x", " ", ":", "-", "\\.", "\\-", "\\ ", "\\d",
     "\\w", "\\s", ".", "[sk]", "[^a]"]
)
_REGEX_QUANTIFIERS = st.sampled_from(["", "", "", "?", "*", "+", "{0,2}", "{2}", "*?", "+?"])
# A group is at most optional, never repeated, and the patterns and lines are
# short: no generated pattern backtracks for long.
_REGEX_BODIES = st.recursive(
    st.lists(st.tuples(_REGEX_ATOMS, _REGEX_QUANTIFIERS).map("".join), min_size=1, max_size=3).map("".join),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(["(", "(?:"]), inner, st.sampled_from(["", "?"])).map(
            lambda t: f"{t[0]}{t[1]}){t[2]}"
        ),
        st.lists(inner, min_size=2, max_size=3).map("|".join),
        st.tuples(inner, inner).map("".join),
    ),
    max_leaves=3,
)
_LITERAL_RUNS = st.text(alphabet="skiSKI", min_size=1, max_size=2)
_REGEXES = st.one_of(
    st.tuples(_LITERAL_RUNS, _REGEX_QUANTIFIERS, _LITERAL_RUNS).map("".join),
    st.tuples(st.sampled_from(["", "^", "\\b"]), _REGEX_BODIES, st.sampled_from(["", "$"]))
    .map("".join)
    .filter(_compiles),
)
# Lines of ASCII only, and lines with characters that `re.IGNORECASE` folds
# onto ASCII letters (long s, the Kelvin sign, U+0130) or that lowercase apart
# (dotless i, sigma and final sigma).
_GATE_LINES = st.one_of(
    st.text(alphabet="skitSKIax :-.0123", max_size=12),
    st.text(alphabet="skitSKIax :-.0123\u017f\u212a\u0130\u0131\u03a3\u03c3\u03c2", max_size=12),
)
# "s", "k" and "i" to characters that `re.IGNORECASE` folds onto them.
_FOLDS = str.maketrans({"s": "\u017f", "S": "\u017f", "k": "\u212a", "K": "\u212a", "i": "\u0130"})


def _pattern_lines(patterns: list[str]):
    """Subsequences of a pattern's text: lines that hit it through an optional
    character, or with `_FOLDS` applied, through a fold."""
    return st.sampled_from(patterns).flatmap(
        lambda p: st.lists(st.booleans(), min_size=len(p), max_size=len(p)).map(
            lambda keep: "".join(compress(p, keep))
        )
    )


class TestRegexGate:
    """A `regex:` rule scans only when its required literal can be in the text."""

    @pytest.mark.parametrize(
        "pattern, literal",
        [("ab*c", "a"), ("ab+", "ab"), ("x|y", None), ("\\.x", ".x"), ("^a", None),
         ("(?i)a", None), ("\\dx", None)],
    )
    def test_required_literal(self, pattern, literal):
        assert _required_literal(re.compile(pattern, re.IGNORECASE)) == literal

    @given(st.lists(_REGEXES, min_size=1, max_size=2), st.data())
    @settings(max_examples=600, deadline=None)
    def test_matching_lines_matches_reference(self, patterns, data):
        lines = data.draw(st.lists(st.one_of(_GATE_LINES, _pattern_lines(patterns)), max_size=6))
        if data.draw(st.booleans()):  # no ASCII "s", "k" or "i" is left to find a literal by
            lines = [line.translate(_FOLDS) for line in lines]
        rules = RuleSet.from_lines([f"regex:{p}" for p in patterns])
        want = [(i, names) for i, line in enumerate(lines) if (names := reference_match_names(rules, line))]
        assert rules.matching_lines(lines) == want

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("SyntaxError: invalid \u017fyntax", "project-source"),
            ("503 Service Unavailable from regi\u017ftry", "docker-server"),
            ("received unexpected http \u017ftatus: 502", "docker-server"),
            ("caf\u00e9\ncompilation terminated. (caf\u00e9)", "project-source"),
        ],
    )
    def test_shipped_regex_hits_non_ascii_text(self, text, expected):
        # The first three hit only through a fold of `re.IGNORECASE`.
        assert classify_failure_exclusion(text) == reference_classify_failure_exclusion(text) == expected


def _one_stage_timed_log(lines: int) -> str:
    """One BuildKit stage, 100 lines per second, every tenth line an error."""
    body = [
        f"#8 {i * 0.01:.3f} error: unit {i} failed"
        if i % 10 == 0
        else f"#8 {i * 0.01:.3f} compiling unit {i}"
        for i in range(lines)
    ]
    return "#8 [3/5] RUN make\n" + "\n".join(body)


class TestScaling:
    def test_time_grows_linearly_with_log_length(self):
        def timed(log: str) -> float:
            start = time.perf_counter()
            preprocess_log(log)
            return time.perf_counter() - start

        small_log, large_log = _one_stage_timed_log(5_000), _one_stage_timed_log(40_000)
        # Alternating the sizes spreads a stretch of host load over both, and the
        # best of seven runs each is the one least slowed by it.
        runs = [(timed(small_log), timed(large_log)) for _ in range(7)]
        small, large = (min(timings) for timings in zip(*runs))
        # 8x the lines: linear code takes about 8x the time, quadratic about 44x.
        assert large / small < 16


def _timed_stage(kept: int, step: int = 5) -> list[str]:
    """A BuildKit stage whose error seconds hold `kept` lines in all: each
    opens with an error and is followed by a second of progress only."""
    sizes = [4] * (kept // 4) + ([kept % 4] if kept % 4 else [])
    lines = [f"#{step} [{step}/9] RUN make"]
    for n, size in enumerate(sizes):
        second = 2 * n
        lines.append(f"#{step} {second}.100 error: unit {n} failed")
        lines += [f"#{step} {second}.{200 + j:03d} compiling {n}.{j}" for j in range(size - 1)]
        lines += [f"#{step} {second + 1}.{j}00 linking {n}.{j}" for j in range(3)]
    return lines


def _assert_matches_reference(log: str, rules: RuleSet | None = None) -> PreprocessedLog:
    rules = rules or RuleSet.default()
    got, want = preprocess_log(log, rules), reference_preprocess_log(log, rules)
    assert (tuple(got.lines), got.total_lines_in, got.total_lines_out, got.rule_hits) == (
        want.lines, want.total_lines_in, want.total_lines_out, want.rule_hits
    )
    return got


class TestCapWalk:
    """The excerpt's head and tail are walked from the ends of the log, and a
    timestamp is read only for a line that the walk reaches."""

    @pytest.mark.parametrize("kept", [60, 61, 119, 120, 121, 122])
    @pytest.mark.parametrize("timed", [True, False], ids=["timed", "untimed"])
    def test_kept_counts_around_the_cap(self, kept, timed):
        lines = _timed_stage(kept) if timed else ["> [1/1] RUN x", *(f"error {i}" for i in range(kept))]
        got = _assert_matches_reference("\n".join(lines))
        assert got.total_lines_out == min(kept, EXCERPT_LINE_CAP)

    @pytest.mark.parametrize("first, second", [(70, 65), (60, 61), (61, 60), (59, 62), (121, 3)])
    def test_head_in_one_timed_stage_and_tail_in_the_next(self, first, second):
        # Both stages count their seconds from 0: a second is bucketed within its stage.
        log = "\n".join(_timed_stage(first) + _timed_stage(second, step=6))
        got = _assert_matches_reference(log)
        assert got.total_lines_out == min(first + second, EXCERPT_LINE_CAP)

    def test_a_middle_hit_and_its_whole_second_are_dropped(self):
        lines = _timed_stage(200)
        middle = lines.index("#5 50.100 error: unit 25 failed")
        lines[middle + 1] = "#5 50.200 fatal: only in the middle"
        got = _assert_matches_reference("\n".join(lines))
        assert got.rule_hits["substr:fatal"] == 1
        assert not any(line.startswith("#5 50.") for line in got.lines)

    def test_untimed_hits_inside_a_timed_stage(self):
        lines = _timed_stage(200)
        for at in (6, 30, 400, len(lines) - 20, len(lines) - 3):
            lines.insert(at, "E: untimed failure")
        lines.insert(8, "")
        _assert_matches_reference("\n".join(lines))

    def test_a_stage_whose_only_timed_line_is_the_hit(self):
        lone = ["#6 [6/9] RUN test", "a", "b", "#6 3.100 error: lone timed hit", "c", "d"]
        for log in ("\n".join(lone), "\n".join(_timed_stage(130) + lone), "\n".join(lone + _timed_stage(130))):
            got = _assert_matches_reference(log)
            assert "#6 3.100 error: lone timed hit" in got.lines and "b" not in got.lines

    def test_walked_lines_with_unicode_digit_and_overlong_timestamps(self):
        # Seconds 4 and 98 hold an error and 5 does not; an overlong timing is
        # no timing, so its error is untimed and its progress line is dropped.
        lines = _timed_stage(200)
        overlong = "#5 " + "1" * 330 + ".5 overlong progress"
        for at, (kept, dropped) in ((3, ("٤", "٥")), (len(lines) - 5, ("٩٨", "٩٩"))):
            lines[at:at] = [f"#5 {kept}.500 unicode kept", f"#5 {dropped}.5 unicode dropped", overlong]
        for at in (20, len(lines) - 20):
            lines.insert(at, "#5 " + "9" * 330 + ".1 error: untimed by overflow")
        lines.insert(12, "#5 ٦.900 error: unicode hit")
        got = _assert_matches_reference("\n".join(lines))
        assert got.lines.count("#5 ٤.500 unicode kept") == got.lines.count("#5 ٩٨.500 unicode kept") == 1
        assert not {"#5 ٥.5 unicode dropped", "#5 ٩٩.5 unicode dropped", overlong} & set(got.lines)

    def test_float_reads_every_digit_a_timestamp_may_hold(self):
        # The timestamp pattern's `\d` takes any Unicode decimal digit.
        digits = "".join(re.findall(r"\d", "".join(map(chr, range(0x110000)))))
        assert len(digits) > 600 and float(digits) == float("inf")

    def test_a_capped_timed_log_reads_few_timestamps(self, monkeypatch):
        # A 2,000-line BuildKit stage in the benchmark's shape: 8 lines a
        # second, one in ten an error, then the summary stage.
        rng = random.Random(3)
        t, errors = rng.uniform(0, 3), set(rng.sample(range(2000), 200))
        lines = ["#1 [internal] load build definition from Dockerfile", "#1 DONE 0.0s", "", "#5 [2/2] RUN make"]
        for i in range(2000):
            t += rng.uniform(0.5, 1.5) / 8
            lines.append(f"#5 {t:.3f} " + (f"error: unit {i} failed" if i in errors else f"compiling unit {i}"))
        lines += ["------", " > [2/2] RUN make:", "error: unit failed", "------",
                  'ERROR: failed to solve: process "/bin/sh -c make" did not complete successfully: exit code: 2']
        log = "\n".join(lines)
        want = preprocess_log(log)
        assert want.total_lines_out == EXCERPT_LINE_CAP

        class CountingPattern:
            calls = 0

            def match(self, line):
                CountingPattern.calls += 1
                return pattern.match(line)

        pattern = log_preprocess._TIMESTAMP_RE
        monkeypatch.setattr(log_preprocess, "_TIMESTAMP_RE", CountingPattern())
        assert preprocess_log(log) == want
        # Reading every line of the stage would be over 2,000.
        assert CountingPattern.calls < 700

    def test_a_timed_log_reads_each_timestamp_once_when_the_call_runs(self, monkeypatch):
        # 89 kept lines: the back walk runs down to the front walk's last kept
        # line, a timed line that no hit keeps, and stops short of it.
        log = "\n".join(_timed_stage(59) + _timed_stage(30, step=6))
        want = preprocess_log(log)
        pattern, read = log_preprocess._TIMESTAMP_RE, []
        spy = SimpleNamespace(match=lambda line: read.append(line) or pattern.match(line))
        monkeypatch.setattr(log_preprocess, "_TIMESTAMP_RE", spy)
        assert preprocess_log(log) == want
        # A pattern bound at import would read none through the spy.
        assert read and len(read) == len(set(read)) and set(read) <= set(log.splitlines())


class TestWholeTextScan:
    """`matching_lines` finds each needle in the lowercased lines joined by "\\n"."""

    @staticmethod
    def _assert_as_reference(rules: RuleSet, lines: list[str]) -> None:
        want = [(i, names) for i, line in enumerate(lines) if (names := reference_match_names(rules, line))]
        assert rules.matching_lines(lines) == want
        _assert_matches_reference("\n".join(["> [1/1] RUN x", *lines]), rules)

    def test_a_needle_holding_a_newline_hits_no_line(self):
        rules = RuleSet([_parse_rule("substr:a\nb"), _parse_rule("substr:error"), _parse_rule("!substr:r\ne")])
        lines = ["a", "b", "xa", "by error", "error a", "b error", "er", "error"]
        self._assert_as_reference(rules, lines)
        assert [i for i, _ in rules.matching_lines(lines)] == [3, 4, 5, 7]

    def test_lines_that_lowercase_longer_map_each_hit_to_its_own_line(self):
        # "İ" lowercases to two characters, so every later offset moves.
        rules = RuleSet.from_lines(["substr:error", "substr:i̇x", "substr:failed", "!substr:warning:"])
        lines = ["İİİ error", "İ", "plain error", "İİ failed İX error",
                 "", "İİİİİİİİ", "error", "İ warning: error", "xİx"]
        self._assert_as_reference(rules, lines)
        assert [i for i, _ in rules.matching_lines(lines)] == [0, 2, 3, 6, 8]

    def test_vetoes_run_in_the_same_scan(self):
        # "^\d" has no required literal; the veto needle "skip" follows "İ",
        # which lowercases to two characters, so every later offset moves.
        rules = RuleSet.from_lines(["substr:error", "regex:fail", "!regex:^\\d", "!substr:skip"])
        lines = ["İ error skip", "İİ error", "1 error", "x fail", "2 fail İ", "İskip failed",
                 "error", "skİp error", "ok", "3 ok", "İ", "İİ skip", "fail"]
        self._assert_as_reference(rules, lines)
        assert [i for i, _ in rules.matching_lines(lines)] == [1, 3, 6, 7, 12]
        # The veto regex searches the hit lines only, not every line.
        searched = []
        veto = re.compile(r"^\d", re.IGNORECASE)
        spy = SimpleNamespace(pattern=veto.pattern, flags=veto.flags,
                              search=lambda line: searched.append(line) or veto.search(line))
        spied = RuleSet([replace(r, compiled=spy) if r.exclude and r.kind == "regex" else r for r in rules.rules])
        assert spied.matching_lines(lines) == rules.matching_lines(lines)
        assert searched == [lines[i] for i in (0, 1, 2, 3, 4, 5, 6, 7, 12)]
