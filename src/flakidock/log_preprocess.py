"""Reduce raw build logs to error-focused excerpts.

A log is split once into its lines, without ANSI escapes, and the indices
of its banner lines, one per executed instruction, are noted in order.
Stage k >= 1 is the lines after banner k - 1, its header, up to the next
banner or the end of the log; stage 0, the preamble, is the lines before
the first banner and has no header. Within a stage, lines matching the
configured error expressions are kept together with their temporal
neighbors: lines sharing the same integer second offset when the engine
prints per-line timings, otherwise a +/-2 line window. The preamble keeps
only its lines that match a rule themselves, and a banner is never a hit.
The result is each kept stage's header, then that stage's kept lines. Over
120 kept lines, the first 60 and the last 60 stay.

The rules scan all lines at once, in one pass over the rules: the lines are
joined by "\n" and lowercased once, and each needle, include or `!` veto, is
found with `str.find` in that text. A `regex:` rule searches only when its
required literal, the lowercased leading literal run of its pattern, can
occur in the text; a veto regex searches the hit lines only. A stage whose
hits are all untimed keeps them and their windows without a walk. In a stage
with a timed hit, the walk for the excerpt's first or last 60 kept lines
reads the timestamp of a line it reaches and has not kept, never twice.

The shipped exclusion filters are rule sets too: `classify_failure_exclusion`
names the non-flaky cause (infrastructure, engine backend, project source)
that a failure's excerpt matches, if any. It lowercases the excerpt once,
and every filter, in order, runs the same scan over that text.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cache
from importlib import resources
from itertools import accumulate, compress, count, islice, repeat
from operator import add, attrgetter, contains, lt
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
        # (name, needle, regex, required literal, veto) per rule, includes first. A
        # needle is a `substr:` pattern lowercased once; one holding "\n" hits no line.
        self._scan = [
            (r.source, r.pattern.lower(), None, None, r.exclude) if r.kind == "substr"
            else (r.source, None, r.compiled, _required_literal(r.compiled), r.exclude)
            for r in sorted(rules, key=attrgetter("exclude"))
            if r.kind == "regex" or "\n" not in r.pattern
        ]

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
        """Each needle is found in the lowered text, resuming at the next line
        after a hit. A regex searches when its required literal is in the text,
        when it has none, or when the text is not ASCII: `re.IGNORECASE` folds
        `ſ`, the Kelvin sign and `İ` onto ASCII letters; `str.lower` does not."""
        lines, text, starts = lowered.lines, lowered.text, lowered.starts
        named: dict[int, list[str]] = {}
        vetoed: set[int] = set()
        hit = None  # the hit lines, known when the first veto runs
        for name, needle, rx, literal, veto in self._scan:
            if veto and hit is None and not (hit := sorted(named)):
                break
            if rx is None:
                pos = text.find(needle)
                if pos >= 0 and starts is None:
                    starts = lowered.find_starts()
                while pos >= 0:
                    i = bisect_right(starts, pos) - 1
                    if veto:
                        vetoed.add(i)
                    else:
                        named.setdefault(i, []).append(name)
                    pos = text.find(needle, starts[i + 1])
            elif literal is None or not lowered.is_ascii or literal in text:
                if veto:
                    vetoed.update(compress(hit, map(rx.search, [lines[i] for i in hit])))
                else:
                    for i in compress(count(), map(rx.search, lines)):
                        named.setdefault(i, []).append(name)
        return [(i, named[i]) for i in (sorted(named) if hit is None else hit) if i not in vetoed]


class _LoweredLines:
    """Lines, and their text joined by "\n" and lowercased once, which lowers
    each line as on its own: a final sigma sees "\n" as a line's end. Where
    each line starts in that text is found on the first needle hit."""

    def __init__(self, lines: list[str], text: str):
        self.lines, self.text, self.is_ascii = lines, text.lower(), text.isascii()
        self._length, self.starts = len(text), None

    def find_starts(self) -> list[int]:
        # `str.lower` lengthens only "İ": when the text kept its length, so did each line.
        lines = self.lines if len(self.text) == self._length else self.text.split("\n")
        self.starts = [0, *accumulate(map(add, map(len, lines), repeat(1)))]
        return self.starts


def _second(timing: re.Match) -> int | None:
    """The whole second of a `_TIMESTAMP_RE` match: `float` reads every `\\d`.
    Over ~308 digits it is inf, and the line untimed."""
    value = float(timing[1] or timing[2])
    return int(value) if math.isfinite(value) else None


def _segment(log: str) -> tuple[list[str], list[int]]:
    """The log's lines, de-escaped, and the ascending indices of its banners.
    `splitlines` also breaks at "\\r": no line keeps carriage-return overdraw."""
    lines = log.splitlines()
    if "\x1b" in log:
        lines = list(map(_ANSI_RE.sub, repeat(""), lines))
    # Every banner holds a "[" and a "/", which most lines lack: only those lines meet the regex.
    bracketed = compress(count(), map(contains, lines, repeat("[")))
    return lines, [i for i in bracketed if "/" in lines[i] and _BANNER_RE.match(lines[i])]


@dataclass(frozen=True)
class PreprocessedLog:
    lines: list[str]  # each kept stage's header, if any, then its kept lines
    total_lines_in: int
    total_lines_out: int
    rule_hits: dict[str, int]
    stages: int  # the log's banners, restarted [i/k] numbering included

    def as_text(self) -> str:
        return "\n".join(self.lines)


def _extract(lines: list[str], banners: list[int], rules: RuleSet) -> PreprocessedLog:
    """The excerpt of `lines`, whose banners stand at the ascending indices
    `banners`. A hit's stage k is how many banners stand at or before it."""
    timestamp = _TIMESTAMP_RE.match
    rule_hits: dict[str, int] = {}
    # Per stage with a hit, in log order: its header, its bounds, the lines
    # it keeps without reading a timestamp, and the seconds of its timed hits.
    plans: list[tuple[str | None, int, int, set[int], set[int]]] = []
    end = 0  # where the body of the last hit's stage ends
    for i, names in rules.matching_lines(lines):
        if i >= end:  # past the last hit's stage body, as every later banner is
            k = bisect_right(banners, i)
            lo = banners[k - 1] + 1 if k else 0
            if lo > i:  # the hit is banner k - 1, and a banner is never a hit
                continue
            end = banners[k] if k < len(banners) else len(lines)
            header = lines[lo - 1] if k else None
            keep, seconds = set(), set()
            plans.append((header, lo, end, keep, seconds))
        for name in names:
            rule_hits[name] = rule_hits.get(name, 0) + 1
        keep.add(i)
        if header is None:
            continue
        timing = timestamp(lines[i])
        if timing and (second := _second(timing)) is not None:
            seconds.add(second)
        else:
            # Blank neighbors carry no error context and would not survive a
            # text round trip, so expansion only pulls in non-blank lines.
            for j in range(max(lo, i - ADJACENCY_RADIUS), min(end, i + ADJACENCY_RADIUS + 1)):
                if lines[j].strip():
                    keep.add(j)

    # Over the cap, the earliest and latest lines stay. The front walk stops one
    # past half the cap; only then does the back walk run, to half the cap or
    # to the front's last line, when every kept line is known.
    half = EXCERPT_LINE_CAP // 2
    kept = list(islice(_kept(lines, plans, timestamp), half + 1))
    if len(kept) > half:
        back = list(islice(_kept(lines, plans, timestamp, kept[-1]), half))
        kept = (kept[:half] if len(back) == half else kept) + back[::-1]
    # By construction, the kept lines rise strictly, and each lies in its plan's body.
    assert all(map(lt, kept, kept[1:]))
    out, j = [], 0  # the excerpt, and the first of the next plan's kept lines
    for header, lo, hi, _, _ in plans:
        n = bisect_left(kept, hi, j)
        if n > j:
            assert kept[j] >= lo
            if header is not None:
                out.append(header)
            out += [lines[i] for i in kept[j:n]]
            j = n
    assert j == len(kept)
    return PreprocessedLog(out, len(lines), len(kept), rule_hits, len(banners))


def _kept(lines: list[str], plans: list, timestamp, above: int | None = None):
    """The kept lines' indices, in log order or, given `above`, backward down
    to the line after `above`: the lines each plan keeps, and in a stage with
    timed hits, the lines whose timestamp falls in one of their seconds."""
    for _, lo, hi, keep, seconds in plans if above is None else reversed(plans):
        if above is not None and (lo := max(lo, above + 1)) >= hi:
            return
        if not seconds:
            yield from sorted(keep) if above is None else sorted(filter(lo.__le__, keep), reverse=True)
            continue
        for i in range(lo, hi) if above is None else range(hi - 1, lo - 1, -1):
            if i in keep or ((timing := timestamp(lines[i])) and _second(timing) in seconds):
                yield i


def preprocess_log(log: str, rules: RuleSet | None = None) -> PreprocessedLog:
    """Segment and extract in one step with the default rules."""
    return _extract(*_segment(log), rules or RuleSet.default())


EMPTY_OUTPUT = "(empty build output)"
LOG_TAIL_CHARS = 2000  # the most of a log shown without an excerpt, and of a success log journaled


def excerpt_or_tail(log: str, preprocessed: PreprocessedLog) -> str:
    """The excerpt text of `log`, else its last LOG_TAIL_CHARS characters, else,
    when those are blank, EMPTY_OUTPUT: a failure always has text."""
    text = preprocessed.as_text() or log[-LOG_TAIL_CHARS:]
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
