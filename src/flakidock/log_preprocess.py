"""Reduce raw build logs to error-focused excerpts.

A log is first segmented into `(header, lines)` sections, one per executed
instruction, by recognizing stage banner lines. Within each stage, lines
matching the configured error expressions are kept together with their
temporal neighbors: lines sharing the same integer second offset when the
engine prints per-line timings, otherwise a +/-2 line window. Lines before
the first banner form the preamble, the section whose header is None, and
are kept only when they match a rule themselves. The result is one list of
lines: each kept stage's header, then that stage's kept lines. Over 120 kept
lines, the first 60 and the last 60 stay.

Segmentation splits a log once into its lines, removes their ANSI escapes,
and keeps each stage's lines once, in that form: rules match them, and
the excerpt is built from them, so it holds no escape sequence. Every
line pays for the split, a "[" test and one lowercase. The ANSI pass runs
only when the log holds an ESC, and the banner regex only on lines that
contain "[", as every banner does. The rules scan the lines of all stages
at once: the lines are joined by "\n" and lowercased once, each include
needle is found with `str.find` in that text, and a hit line takes its rule
names, in rule order, from the scans that found it. An include `regex:` rule
searches the lines only when its required literal, the lowercased leading
literal run of its pattern, can occur in the text. The `!` vetoes run in
the same scan over the same lowered text: a veto needle is one more
`str.find` pass, and a veto regex searches only the hit lines. Timestamps
are parsed only in a stage with a rule hit: each hit line's once, and
another line's only when the walk for the excerpt's first or last 60 kept
lines reaches it and has not kept it.

The shipped exclusion filters are rule sets too: `classify_failure_exclusion`
names the non-flaky cause (infrastructure, engine backend, project source)
that a failure's excerpt matches, if any. It lowercases the excerpt once,
and every filter, in order, runs the same scan over that text.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cache, cached_property
from importlib import resources
from itertools import accumulate, compress, count, groupby, islice, repeat, takewhile
from operator import add, contains, itemgetter
from pathlib import Path

from .durable import read_input
from .errors import InvalidRule

# `#7 [3/5] RUN ...`, `> [5/5] RUN ...:`, `=> CACHED [build-env 4/4] ...`
_BANNER_RE = re.compile(
    r"^\s*(?:#\d+\s+)?(?:=>\s+|>\s+)?(?:CACHED\s+)?\[(?:[\w.-]+\s+)?\d+/\d+\]"
)
# Per-line timing: BuildKit's `#8 0.412 Reading package lists...` (group 1)
# or a bare `0.412 Reading ...` (group 2).
_TIMESTAMP_RE = re.compile(r"^(?:#\d+\s+(\d+\.\d+)\s|\s*(\d+\.\d+)\s+\S)")
_ANSI_RE = re.compile(r"\x1b\[[0-9;?]*[ -/]*[@-~]")

ADJACENCY_RADIUS = 2
EXCERPT_LINE_CAP = 120


@dataclass(frozen=True)
class Rule:
    source: str
    kind: str  # "substr" | "regex"
    pattern: str
    exclude: bool
    compiled: re.Pattern | None


def _parse_rule(line: str) -> Rule:
    source = line
    exclude = False
    if line.startswith("!"):
        exclude = True
        line = line[1:]
    if line.startswith("substr:"):
        pattern = line[len("substr:"):]
        if not pattern:
            raise InvalidRule(f"empty substring pattern in rule {source!r}")
        return Rule(source, "substr", pattern, exclude, None)
    if line.startswith("regex:"):
        pattern = line[len("regex:"):]
        try:
            compiled = re.compile(pattern, re.IGNORECASE)
        except re.error as exc:
            raise InvalidRule(f"bad regex in rule {source!r}: {exc}") from exc
        return Rule(source, "regex", pattern, exclude, compiled)
    raise InvalidRule(f"rule {source!r} must start with 'substr:', 'regex:' or '!'")


def _required_literal(rx: re.Pattern) -> str | None:
    """Lowercased ASCII text that every match of `rx` holds, or None.

    It is the pattern's leading run of literal characters (an escaped
    non-alphanumeric counts as one), up to the first metacharacter or
    alphanumeric escape, and before any character that `?`, `*` or `{` can
    make optional. A pattern with a `|` anywhere, a verbose one, and one whose
    run is empty or not ASCII have none.
    """
    pattern = rx.pattern
    if "|" in pattern or rx.flags & re.VERBOSE:
        return None
    run = []
    i = 0
    while i < len(pattern):
        char, step = pattern[i], 1
        if char == "\\":
            char, step = pattern[i + 1 : i + 2], 2
            if not char or char.isalnum():
                break
        elif char in ".^$*+?{}[]()":
            break
        if pattern[i + step : i + step + 1] in ("?", "*", "{"):
            break
        run.append(char)
        i += step
    literal = "".join(run)
    return literal.lower() if literal and literal.isascii() else None


class RuleSet:
    """Ordered error-expression rules; `!`-prefixed rules veto a match."""

    def __init__(self, rules: list[Rule]):
        if not any(not r.exclude for r in rules):
            raise InvalidRule("rule set contains no include rules")
        self.rules = rules
        # (name, needle, regex, required literal) per include rule: a `substr:`
        # rule's needle is its pattern lowercased once, here; it has no regex.
        self._includes = [
            (r.source, r.pattern.lower(), None, None) if r.kind == "substr"
            else (r.source, None, r.compiled, _required_literal(r.compiled))
            for r in rules if not r.exclude
        ]
        # A line is vetoed when the vetoes, as include rules, hit it.
        vetoes = [replace(r, exclude=False) for r in rules if r.exclude]
        self._vetoes = RuleSet(vetoes) if vetoes else None

    @classmethod
    def from_lines(cls, lines: list[str]) -> "RuleSet":
        rules = []
        for raw in lines:
            line = raw.rstrip("\r\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            rules.append(_parse_rule(line))
        return cls(rules)

    @classmethod
    def from_file(cls, path) -> "RuleSet":
        return cls.from_lines(read_input(Path(path)).splitlines())

    @classmethod
    @cache
    def default(cls) -> "RuleSet":
        data = resources.files("flakidock").joinpath("data/default.rules")
        return cls.from_lines(data.read_text(encoding="utf-8").splitlines())

    def matching_lines(self, lines: list[str]) -> list[tuple[int, list[str]]]:
        """`(i, names)` for each line `lines[i]` that an include rule hits and
        no veto hits, in order; `names` are the include rules it hits, in rule
        order. No line may hold a "\n"; a needle holding one hits no line."""
        return self._matching(_LoweredLines(lines, "\n".join(lines)))

    def _matching(self, lowered: "_LoweredLines") -> list[tuple[int, list[str]]]:
        lines = lowered.lines
        named = self._hits(lowered, range(len(lines)), lines)
        hit = sorted(named)
        if self._vetoes is not None and hit:
            vetoed = self._vetoes._hits(lowered, hit, [lines[i] for i in hit])
            hit = [i for i in hit if i not in vetoed]
        return [(i, named[i]) for i in hit]

    def _hits(self, lowered: "_LoweredLines", indices: "range | list[int]", searched: list[str]) -> dict[int, list[str]]:
        """Line index -> the include rules it hits, in rule order.

        Each needle is found in the lowered text, resuming at the next line
        after a hit. A regex searches `searched`, the lines at `indices`, and
        only when its required literal is in the lowered text, when it has
        none, or when the text is not ASCII: `re.IGNORECASE` folds `ſ`, the
        Kelvin sign and `İ` onto ASCII letters, and `str.lower` does not."""
        text = lowered.text
        named: dict[int, list[str]] = {}
        for name, needle, rx, literal in self._includes:
            if rx is None:
                pos = -1 if "\n" in needle else text.find(needle)
                while pos >= 0:
                    i = bisect_right(lowered.starts, pos) - 1
                    named.setdefault(i, []).append(name)
                    pos = text.find(needle, lowered.starts[i + 1])
            elif literal is None or not lowered.is_ascii or literal in text:
                for i in compress(indices, map(rx.search, searched)):
                    named.setdefault(i, []).append(name)
        return named


class _LoweredLines:
    """Lines, and their text joined by "\n" and lowercased once, which lowers
    each line as on its own: a final sigma sees "\n" as a line's end. Where
    each line starts in that text is found on the first needle hit."""

    def __init__(self, lines: list[str], text: str):
        self.lines, self.text, self.is_ascii = lines, text.lower(), text.isascii()
        self._length = len(text)

    @cached_property
    def starts(self) -> list[int]:
        # `str.lower` lengthens only "İ": when the text kept its length, so did each line.
        lines = self.lines if len(self.text) == self._length else self.text.split("\n")
        return [0, *accumulate(map(add, map(len, lines), repeat(1)))]


@dataclass
class StageSection:
    header: str | None  # the banner line, without ANSI escapes; None for the preamble
    lines: list[str]  # the stage's lines, without ANSI escapes


def _timestamp(line: str) -> float | None:
    """The line's per-line timing in seconds, or None when it has none."""
    match = _TIMESTAMP_RE.match(line)
    if not match:
        return None
    try:
        value = float(match[1] or match[2])
    except ValueError:
        return None
    return value if math.isfinite(value) else None  # over ~308 digits it is inf: untimed


def segment_stages(log: str) -> list[StageSection]:
    """Split a raw log into per-instruction sections, in execution order.

    Every banner opens a section, also when a multi-stage build restarts the
    [i/k] numbering. Lines before the first banner form the preamble, the
    section whose header is None; it is present when it has lines or when the
    log has no banner. Each line is de-escaped once, here; `splitlines` also
    breaks at "\\r", so no line keeps carriage-return overdraw.
    """
    lines = log.splitlines()
    if "\x1b" in log:
        lines = list(map(_ANSI_RE.sub, repeat(""), lines))
    # Every banner holds a "[", which most lines lack: only those lines meet the regex.
    bracketed = compress(count(), map(contains, lines, repeat("[")))
    banners = [i for i in bracketed if _BANNER_RE.match(lines[i])]
    ends = [*banners[1:], len(lines)]
    sections = [StageSection(lines[b], lines[b + 1 : e]) for b, e in zip(banners, ends)]
    preamble = lines[: banners[0]] if banners else lines
    if preamble or not sections:
        sections.insert(0, StageSection(None, preamble))
    return sections


@dataclass(frozen=True)
class PreprocessedLog:
    lines: list[str]  # each kept stage's header, if any, then its kept lines
    total_lines_in: int
    total_lines_out: int
    rule_hits: dict[str, int]

    def as_text(self) -> str:
        return "\n".join(self.lines)


def extract_error_context(sections: list[StageSection], rules: RuleSet) -> PreprocessedLog:
    # One scan over every section's lines; the hits are split back by section.
    log_lines: list[str] = []
    starts = [0]
    for section in sections:
        log_lines += section.lines
        starts.append(len(log_lines))
    total_in = len(log_lines) + sum(s.header is not None for s in sections)
    rule_hits: dict[str, int] = {}
    # Per section with a hit, in log order: its position, the lines it keeps
    # without reading a timestamp, and the seconds of its timed hits.
    plans: list[tuple[int, set[int], set[int]]] = []
    end = 0  # where the section of the last hit ends
    for i, names in rules.matching_lines(log_lines):
        for name in names:
            rule_hits[name] = rule_hits.get(name, 0) + 1
        if i >= end:
            k = bisect_right(starts, i) - 1
            start, end, lines, keep, seconds = starts[k], starts[k + 1], sections[k].lines, set(), set()
            plans.append((k, keep, seconds))
        mi = i - start
        keep.add(mi)
        if sections[k].header is None:  # the preamble keeps its hits only
            continue
        ts = _timestamp(lines[mi])
        if ts is not None:
            seconds.add(int(ts))
        else:
            # Blank neighbors carry no error context and would not survive a
            # text round trip, so expansion only pulls in non-blank lines.
            lo = max(0, mi - ADJACENCY_RADIUS)
            hi = min(len(lines), mi + ADJACENCY_RADIUS + 1)
            keep.update(j for j in range(lo, hi) if lines[j].strip())

    # Over the cap, keep the earliest and latest lines and drop the middle.
    # The kept lines are walked from the front until one more than half the
    # cap is found; only then from the back, until half the cap is found or
    # the walk reaches the front's last line, when every kept line is known.
    half = EXCERPT_LINE_CAP // 2
    kept = list(islice(_kept_pairs(sections, plans, False), half + 1))
    if len(kept) > half:
        back = list(islice(takewhile(kept[-1].__lt__, _kept_pairs(sections, plans, True)), half))
        kept = (kept[:half] if len(back) == half else kept) + back[::-1]
    # Kept lines are a subsequence of the input by construction: the pairs
    # rise strictly and each index lies in its section.
    assert all(a < b for a, b in zip(kept, kept[1:]))
    assert all(0 <= i < len(sections[k].lines) for k, i in kept)
    # A stage's header precedes its first kept line. The lines are ANSI-free,
    # so a coloured and a plain copy of one log give the same lines.
    out: list[str] = []
    for k, pairs in groupby(kept, itemgetter(0)):
        if sections[k].header is not None:
            out.append(sections[k].header)
        out.extend(sections[k].lines[i] for _, i in pairs)
    return PreprocessedLog(out, total_in, len(kept), rule_hits)


def _kept_pairs(sections: list[StageSection], plans: list[tuple[int, set[int], set[int]]], backward: bool):
    """The kept `(section position, line index)` pairs, in log order or
    backward: a line is kept when its plan keeps it, or when its timestamp
    falls in a second of its stage's timed hits. A timestamp is parsed only
    for a line that the plan does not already keep."""
    for k, keep, seconds in reversed(plans) if backward else plans:
        if not seconds:
            yield from zip(repeat(k), sorted(keep, reverse=backward))
            continue
        lines = sections[k].lines
        for i in range(len(lines) - 1, -1, -1) if backward else range(len(lines)):
            if i in keep or ((ts := _timestamp(lines[i])) is not None and int(ts) in seconds):
                yield k, i


def preprocess_log(log: str, rules: RuleSet | None = None) -> PreprocessedLog:
    """Segment and extract in one step with the default rules."""
    return extract_error_context(segment_stages(log), rules or RuleSet.default())


EMPTY_OUTPUT = "(empty build output)"


def excerpt_or_tail(log: str, preprocessed: PreprocessedLog) -> str:
    """The excerpt text of `log`, else its last 2000 characters, else, when
    those are blank, EMPTY_OUTPUT: a failure always has text."""
    text = preprocessed.as_text() or log[-2000:]
    return text if text.strip() else EMPTY_OUTPUT


# --- failure-cause exclusion filters ---

_FILTER_NAMES = ("infrastructure", "docker-server", "project-source")


@cache
def _shipped_filters() -> tuple[tuple[str, RuleSet], ...]:
    data = resources.files("flakidock").joinpath("data/filters")
    return tuple(
        (name, RuleSet.from_lines(data.joinpath(f"{name}.rules").read_text(encoding="utf-8").splitlines()))
        for name in _FILTER_NAMES
    )


def load_exclusion_filters() -> dict[str, RuleSet]:
    """The shipped pre-label predicates that remove non-flaky failure causes.

    They are parsed once per process; each call returns a new dict over the
    shared rule sets."""
    return dict(_shipped_filters())


def classify_failure_exclusion(
    preprocessed_text: str, filters: dict[str, RuleSet] | None = None
) -> str | None:
    """Name of the first exclusion filter matching the failure, if any.

    The text is split on "\\n" only, and the filters are tried in
    `_FILTER_NAMES` order. A non-None result means the failure should not
    count toward flakiness: its cause lies in the infrastructure, the engine
    backend, or the project source rather than the build definition.
    """
    filters = filters if filters is not None else load_exclusion_filters()
    lowered = _LoweredLines(preprocessed_text.split("\n"), preprocessed_text)
    for name in _FILTER_NAMES:
        ruleset = filters.get(name)
        if ruleset is not None and ruleset._matching(lowered):
            return name
    return None
