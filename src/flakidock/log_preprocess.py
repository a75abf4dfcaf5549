"""Reduce raw build logs to error-focused excerpts.

A log is first segmented into stages, one per executed instruction, by
recognizing stage banner lines. Within each stage, lines matching the
configured error expressions are kept together with their temporal
neighbors: lines sharing the same integer second offset when the engine
prints per-line timings, otherwise a +/-2 line window. Lines before the
first banner form a synthetic preamble and are kept only when they match
a rule themselves.

The shipped exclusion filters are rule sets too: `classify_failure_exclusion`
names the non-flaky cause (infrastructure, engine backend, project source)
that a failure's excerpt matches, if any.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from importlib import resources
from itertools import compress, count, repeat
from typing import NamedTuple

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

    def matches(self, line: str, lowered: str) -> bool:
        """Whether the rule hits `line`; `lowered` is `line.lower()`, made once per line."""
        if self.kind == "substr":
            return self.pattern.lower() in lowered
        return self.compiled.search(line) is not None


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


class RuleSet:
    """Ordered error-expression rules; `!`-prefixed rules veto a match."""

    def __init__(self, rules: list[Rule]):
        if not any(not r.exclude for r in rules):
            raise InvalidRule("rule set contains no include rules")
        self.rules = rules
        includes = [r for r in rules if not r.exclude]
        literals = [re.escape(r.pattern.lower()) for r in includes if r.kind == "substr"]
        # Searched over `line.lower()`, this is `pattern.lower() in line.lower()`
        # for every include substring at once; `(?!)` never matches.
        self._include_literals = re.compile("|".join(literals) or "(?!)")
        self._include_regexes = [r.compiled for r in includes if r.kind == "regex"]

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
        with open(path, encoding="utf-8") as fh:
            return cls.from_lines(fh.read().splitlines())

    _default: "RuleSet | None" = None

    @classmethod
    def default(cls) -> "RuleSet":
        if cls._default is None:
            data = resources.files("flakidock").joinpath("data/default.rules")
            cls._default = cls.from_lines(data.read_text(encoding="utf-8").splitlines())
        return cls._default

    def matching_lines(self, lines: list[str]) -> list[tuple[int, list[str]]]:
        """`(i, self.match_names(lines[i]))` for each line with a name, in order."""
        # Most lines hit no include rule; they are settled by C-level scans.
        hits = set(compress(count(), map(self._include_literals.search, map(str.lower, lines))))
        for rx in self._include_regexes:
            hits.update(compress(count(), map(rx.search, lines)))
        return [(i, names) for i in sorted(hits) if (names := self.match_names(lines[i]))]

    def match_names(self, line: str) -> list[str]:
        """Names of include rules hit by this line; empty if vetoed."""
        lowered = line.lower()
        # A line that hits no include rule has no names whatever the vetoes
        # say, so most lines are settled by this one scan.
        if not self._include_literals.search(lowered) and not any(
            rx.search(line) for rx in self._include_regexes
        ):
            return []
        if any(r.matches(line, lowered) for r in self.rules if r.exclude):
            return []
        return [r.source for r in self.rules if not r.exclude and r.matches(line, lowered)]


class LogLine(NamedTuple):
    timestamp: float | None
    text: str  # as logged
    plain: str  # `text` without ANSI escapes: what the rules match


@dataclass
class StageSection:
    stage_index: int  # execution order, 0-based; -1 for the preamble
    header: str | None
    lines: list[LogLine] = field(default_factory=list)
    is_preamble: bool = False


def _timestamp(match: re.Match | None) -> float | None:
    if not match:
        return None
    try:
        value = float(match[1] or match[2])
    except ValueError:
        return None
    return value if math.isfinite(value) else None  # over ~308 digits it is inf: untimed


def segment_stages(log: str) -> list[StageSection]:
    """Split a raw log into per-instruction sections.

    Stage indices follow encounter order, which is execution order, so they
    stay unique even when multi-stage builds restart the [i/k] numbering.
    Each line is de-escaped once, here; `splitlines` also breaks at "\\r", so
    no line keeps carriage-return overdraw.
    """
    texts = log.splitlines()
    plains = [_ANSI_RE.sub("", t) if "\x1b" in t else t for t in texts]
    banners = list(compress(count(), map(_BANNER_RE.match, plains)))
    preamble = StageSection(-1, None, is_preamble=True)
    sections = [StageSection(k, texts[b]) for k, b in enumerate(banners)]
    for section, lo, hi in zip(
        [preamble, *sections], [0, *(b + 1 for b in banners)], [*banners, len(texts)]
    ):
        stamps = map(_timestamp, map(_TIMESTAMP_RE.match, plains[lo:hi]))
        # tuple.__new__ builds each LogLine without a Python-level __new__ call.
        section.lines = list(
            map(tuple.__new__, repeat(LogLine), zip(stamps, texts[lo:hi], plains[lo:hi]))
        )
    if preamble.lines or not sections:
        sections.insert(0, preamble)
    return sections


@dataclass(frozen=True)
class Excerpt:
    stage_index: int
    header: str | None
    kept_lines: tuple[str, ...]


@dataclass(frozen=True)
class PreprocessedLog:
    excerpts: tuple[Excerpt, ...]
    total_lines_in: int
    total_lines_out: int
    rule_hits: dict[str, int]

    def as_text(self) -> str:
        chunks: list[str] = []
        for ex in self.excerpts:
            if ex.header is not None:
                chunks.append(ex.header)
            chunks.extend(ex.kept_lines)
        return "\n".join(chunks)


def extract_error_context(sections: list[StageSection], rules: RuleSet) -> PreprocessedLog:
    total_in = sum(len(s.lines) for s in sections)
    total_in += sum(1 for s in sections if s.header is not None)

    rule_hits: dict[str, int] = {}
    raw_excerpts: list[tuple[StageSection, list[int]]] = []
    for section in sections:
        match_idx: list[int] = []
        for idx, names in rules.matching_lines([ll.plain for ll in section.lines]):
            match_idx.append(idx)
            for name in names:
                rule_hits[name] = rule_hits.get(name, 0) + 1
        if not match_idx:
            continue
        keep = set(match_idx)
        if not section.is_preamble:
            # Blank neighbors carry no error context and would not survive a
            # text round trip, so expansion only pulls in non-blank lines.
            buckets: dict[int, list[int]] | None = None
            for mi in match_idx:
                ts = section.lines[mi].timestamp
                if ts is not None:
                    if buckets is None:
                        buckets = _timestamp_buckets(section.lines)
                    # A bucket is added whole the first time, so pop it.
                    keep.update(buckets.pop(int(ts), ()))
                else:
                    lo = max(0, mi - ADJACENCY_RADIUS)
                    hi = min(len(section.lines), mi + ADJACENCY_RADIUS + 1)
                    keep.update(
                        i for i in range(lo, hi) if section.lines[i].text.strip()
                    )
        raw_excerpts.append((section, sorted(keep)))

    total_kept = sum(len(idx) for _, idx in raw_excerpts)
    if total_kept > EXCERPT_LINE_CAP:
        raw_excerpts = _cap_excerpts(raw_excerpts, EXCERPT_LINE_CAP)
        total_kept = sum(len(idx) for _, idx in raw_excerpts)

    excerpts = tuple(
        Excerpt(
            section.stage_index,
            section.header,
            tuple(section.lines[i].text for i in kept),
        )
        for section, kept in raw_excerpts
    )
    # Kept lines are a subsequence of the input by construction. The check
    # reads the kept indices only: they rise strictly and stay in range.
    assert all(
        kept
        and 0 <= kept[0]
        and kept[-1] < len(sec.lines)
        and all(a < b for a, b in zip(kept, kept[1:]))
        and ex.kept_lines == tuple(sec.lines[i].text for i in kept)
        for ex, (sec, kept) in zip(excerpts, raw_excerpts)
    )
    return PreprocessedLog(excerpts, total_in, total_kept, rule_hits)


def _timestamp_buckets(lines: list[LogLine]) -> dict[int, list[int]]:
    """Indices of the non-blank timed lines, by integer second."""
    buckets: dict[int, list[int]] = {}
    for i, ll in enumerate(lines):
        if ll.timestamp is not None and ll.text.strip():
            buckets.setdefault(int(ll.timestamp), []).append(i)
    return buckets


def _cap_excerpts(
    raw_excerpts: list[tuple[StageSection, list[int]]], cap: int
) -> list[tuple[StageSection, list[int]]]:
    """Over the cap, keep the earliest and latest regions and drop the middle."""
    flat = [
        (pos, idx)
        for pos, (_, kept) in enumerate(raw_excerpts)
        for idx in kept
    ]
    head = flat[: cap // 2]
    tail = flat[len(flat) - cap // 2:]
    selected: dict[int, list[int]] = {}
    for pos, idx in head + tail:
        selected.setdefault(pos, []).append(idx)
    return [
        (raw_excerpts[pos][0], sorted(set(idxs)))
        for pos, idxs in sorted(selected.items())
    ]


def preprocess_log(log: str, rules: RuleSet | None = None) -> PreprocessedLog:
    """Segment and extract in one step with the default rules."""
    return extract_error_context(segment_stages(log), rules or RuleSet.default())


def excerpt_or_tail(log: str, preprocessed: PreprocessedLog) -> str:
    """The excerpt text of `log`, or its last 2000 characters when no rule matched."""
    return preprocessed.as_text() or log[-2000:]


# --- failure-cause exclusion filters ---

_FILTER_NAMES = ("infrastructure", "docker-server", "project-source")


def load_exclusion_filters() -> dict[str, RuleSet]:
    """The shipped pre-label predicates that remove non-flaky failure causes."""
    filters = {}
    for name in _FILTER_NAMES:
        data = resources.files("flakidock").joinpath(f"data/filters/{name}.rules")
        filters[name] = RuleSet.from_lines(data.read_text(encoding="utf-8").splitlines())
    return filters


def classify_failure_exclusion(
    preprocessed_text: str, filters: dict[str, RuleSet] | None = None
) -> str | None:
    """Name of the first exclusion filter matching the failure, if any.

    The text is split once, on "\\n" only, and the filters are tried in
    `_FILTER_NAMES` order. A non-None result means the failure should not
    count toward flakiness: its cause lies in the infrastructure, the engine
    backend, or the project source rather than the build definition.
    """
    filters = filters if filters is not None else load_exclusion_filters()
    lines = preprocessed_text.split("\n")
    for name in _FILTER_NAMES:
        ruleset = filters.get(name)
        if ruleset is not None and ruleset.matching_lines(lines):
            return name
    return None
