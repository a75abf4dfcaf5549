"""Reduce raw build logs to error-focused excerpts.

A log is first segmented into stages, one per executed instruction, by
recognizing stage banner lines. Within each stage, lines matching the
configured error expressions are kept together with their temporal
neighbors: lines sharing the same integer second offset when the engine
prints per-line timings, otherwise a +/-2 line window. Lines before the
first banner form a synthetic preamble and are kept only when they match
a rule themselves.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from importlib import resources

from .errors import InvalidRule

# `#7 [3/5] RUN ...`, `> [5/5] RUN ...:`, `=> CACHED [build-env 4/4] ...`
_BANNER_RE = re.compile(
    r"^\s*(?:#\d+\s+)?(?:=>\s+|>\s+)?(?:CACHED\s+)?\[(?:[\w.-]+\s+)?\d+/\d+\]"
)
# BuildKit per-line timing: `#8 0.412 Reading package lists...`
_TIMED_RE = re.compile(r"^#\d+\s+(\d+\.\d+)\s")
_BARE_TIMED_RE = re.compile(r"^\s*(\d+\.\d+)\s+\S")
_ANSI_RE = re.compile(r"\x1b\[[0-9;?]*[ -/]*[@-~]")

ADJACENCY_RADIUS = 2
EXCERPT_LINE_CAP = 120


def strip_ansi(line: str) -> str:
    """Drop ANSI escapes and carriage-return overdraw for matching purposes."""
    if "\x1b" in line:
        line = _ANSI_RE.sub("", line)
    if "\r" in line:
        line = line.rsplit("\r", 1)[-1]
    return line


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


@dataclass(frozen=True)
class LogLine:
    timestamp: float | None
    text: str


@dataclass
class StageSection:
    stage_index: int  # execution order, 0-based; -1 for the preamble
    header: str | None
    lines: list[LogLine] = field(default_factory=list)
    is_preamble: bool = False


def _parse_timestamp(plain: str) -> float | None:
    m = _TIMED_RE.match(plain) or _BARE_TIMED_RE.match(plain)
    if not m:
        return None
    try:
        value = float(m.group(1))
    except ValueError:
        return None
    return value if math.isfinite(value) else None  # over ~308 digits it is inf: untimed


def segment_stages(log: str) -> list[StageSection]:
    """Split a raw log into per-instruction sections.

    Stage indices follow encounter order, which is execution order, so they
    stay unique even when multi-stage builds restart the [i/k] numbering.
    """
    preamble = StageSection(-1, None, is_preamble=True)
    sections: list[StageSection] = []
    current = preamble
    counter = 0
    for line in log.splitlines():
        plain = strip_ansi(line)
        if _BANNER_RE.match(plain):
            current = StageSection(counter, line)
            sections.append(current)
            counter += 1
        else:
            current.lines.append(LogLine(_parse_timestamp(plain), line))
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
        for idx, logline in enumerate(section.lines):
            names = rules.match_names(strip_ansi(logline.text))
            if names:
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
    # Kept lines are a subsequence of the input by construction; cheap to verify.
    assert all(
        list(ex.kept_lines) == [ll.text for i, ll in enumerate(sec.lines) if i in kept]
        for ex, (sec, _), kept in zip(excerpts, raw_excerpts, (set(k) for _, k in raw_excerpts))
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
