"""Whole-pipeline differential tests: preprocessing and the exclusion filters
against references in `support.py` that use none of the program's
segmentation, matching or extraction code.

`reference_preprocess_log` segments with `reference_segment_stages`, so a
segmentation fault that the extractor would tolerate still shows here.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flakidock.log_preprocess import (
    RuleSet,
    classify_failure_exclusion,
    load_exclusion_filters,
    preprocess_log,
)

from support import (
    preprocess_corpus,
    reference_classify_failure_exclusion,
    reference_preprocess_log,
)
from test_log_preprocess import _DIFF_RULESETS, _SEGMENT_PIECES


def _assert_same(log: str, rules: RuleSet) -> None:
    got = preprocess_log(log, rules)
    want = reference_preprocess_log(log, rules)
    assert got.as_text() == want.as_text()
    assert got.total_lines_in == want.total_lines_in
    assert got.total_lines_out == want.total_lines_out
    assert got.rule_hits == want.rule_hits


# `_SEGMENT_PIECES` (banners, BuildKit and bare timings with Unicode digits
# and overflowing ones, ANSI escapes, every line break) plus rule hits and
# vetoes of every rule set, several timed stages, and timed hits.
_PIPELINE_LINES = st.lists(
    st.one_of(
        _SEGMENT_PIECES,
        st.sampled_from(
            [
                "\n#6 [3/4] RUN c\n", "\n#5 0.100 fetching\n", "\n#5 0.900 error: late\n",
                "\n#5 1.050 E: broken archive\n", "\n  2.500 exit code: 2\n",
                "\n#8 \u0661.5 failed here\n", "\n" + "9" * 330 + ".1 error: huge\n",
                "warning: error-shaped but excluded", "WARNING: retry failed once",
                "\x1b[31mERROR: tinted\x1b[0m", "progress 10%\x1b[2K\rfatal: overdraw",
                "\u0130STANBUL not found", "STRA\u1e9eE boooom", "\u212aELVIN cannot",
                "IGNORE this error",
                "harmless error", "matched a.b and (x) and *", "\n\n", "   \n",
            ]
        ),
    ),
    max_size=40,
).map("".join)


class TestPipelineReference:
    @pytest.mark.parametrize("name", sorted(_DIFF_RULESETS))
    def test_seeded_corpus(self, name):
        for log in preprocess_corpus():
            _assert_same(log, _DIFF_RULESETS[name])

    @given(_PIPELINE_LINES)
    @settings(max_examples=400, deadline=None)
    def test_generated_logs(self, log):
        for rules in _DIFF_RULESETS.values():
            _assert_same(log, rules)


# Custom filters with vetoes of both kinds, a needle two filters share, a
# regex beside the literals, and case edges (U+0130, final sigma, Kelvin).
_CUSTOM_FILTERS = {
    "infrastructure": RuleSet.from_lines(
        ["substr:disk full", "substr:\u0130stanbul", "regex:oom.?kill", "!substr:simulated"]
    ),
    "docker-server": RuleSet.from_lines(
        ["substr:disk full", "substr:toomanyrequests", "substr:\u039f\u0394\u039f\u03a3",
         "!regex:^#"]
    ),
    "project-source": RuleSet.from_lines(
        ["regex:syntaxerror", "substr:kelvin", "substr:toomanyrequests", "!substr:test"]
    ),
    "unlisted": RuleSet.from_lines(["substr:never consulted"]),
}
_FILTER_SETS = [
    None,
    load_exclusion_filters(),
    _CUSTOM_FILTERS,
    {k: v for k, v in _CUSTOM_FILTERS.items() if k != "infrastructure"},
    {"project-source": _CUSTOM_FILTERS["project-source"]},
    {},
]

_EXCERPT_LINES = st.lists(
    st.one_of(
        st.sampled_from(
            [
                "write /var/lib: no space left on device",
                "NO SPACE LEFT ON DEVICE (simulated)",
                "toomanyrequests: You have reached your pull rate limit",
                "received unexpected HTTP status: 503 Service Unavailable",
                "503 Service Unavailable\rretrying registry mirror",
                "npm ERR! missing script: start", "Test suite failed to run",
                "SyntaxError: invalid syntax", "compilation terminated.",
                "disk full", "# disk full", "disk full in test", "OOM-KILL by kernel",
                "oomkill simulated",
                "\u0130stanbul", "istanbul", "i\u0307stanbul", "\u039f\u0394\u039f\u03a3",
                "\u03bf\u03b4\u03bf\u03c2", "\u03bf\u03b4\u03bf\u03c3",
                "\u039f\u0394\u039f\u03a3\nx",
                "\u212aELVIN probe", "Kelvin test",
                "never consulted", "error: externally-managed-environment", "", "\r",
            ]
        ),
        st.text(
            alphabet="\u03a3\u03c3\u03c2\u039f\u0394\u0130i\u0307\u212aKkdisk ful\n\r#",
            max_size=12,
        ),
    ),
    max_size=12,
).map("\n".join)


class TestExclusionReference:
    @given(_EXCERPT_LINES, st.sampled_from(range(len(_FILTER_SETS))))
    @settings(max_examples=400, deadline=None)
    def test_matches_per_filter_loop(self, text, which):
        filters = _FILTER_SETS[which]
        assert classify_failure_exclusion(text, filters) == reference_classify_failure_exclusion(
            text, filters
        )

    def test_corpus_reaches_every_outcome(self):
        cases = {
            "disk full": "infrastructure",  # two filters hit; the first in order wins
            "disk full simulated": "docker-server",  # the first is vetoed
            "# disk full simulated": None,  # both are vetoed
            "\u039f\u0394\u039f\u03a3\nx": "docker-server",  # final sigma before a line break
            "\u212aELVIN": "project-source",
            "\u212aelvin test": None,
            "SyntaxError here\noomkill simulated": "project-source",
            "never consulted": None,  # a name outside the shipped order is not tried
        }
        for text, expected in cases.items():
            assert classify_failure_exclusion(text, _CUSTOM_FILTERS) == expected, text
            assert reference_classify_failure_exclusion(text, _CUSTOM_FILTERS) == expected, text
