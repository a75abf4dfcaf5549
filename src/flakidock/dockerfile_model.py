"""Line-oriented build-definition model: parse, serialize, diff.

The parser is deliberately shallow. It only needs to recover instruction
boundaries (so build stages can be aligned with log sections) and to
re-emit documents byte-faithfully (so candidate repairs are never mangled).
Heredocs and JSON exec forms stay opaque argument text; unrecognized
instructions are preserved verbatim as UNKNOWN rather than rejected.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from enum import Enum

from .errors import EmptyDocument, MalformedEncoding

_BOM = "﻿"
# One line with its ending. As in the engine's parser, only `\n` ends a line
# (`_strip_eol` drops a `\r` before it): a form feed, `\x1c`-`\x1e`, `\x85`,
# U+2028/2029 or a lone `\r` stays inside its line, unlike `str.splitlines`.
_LINE_RE = re.compile(r"[^\n]*\n|[^\n]+")
_KEYWORD_RE = re.compile(r"\s*(\S+)\s?")


class Keyword(str, Enum):
    FROM = "FROM"
    RUN = "RUN"
    COPY = "COPY"
    ADD = "ADD"
    WORKDIR = "WORKDIR"
    ENV = "ENV"
    ARG = "ARG"
    ENTRYPOINT = "ENTRYPOINT"
    CMD = "CMD"
    EXPOSE = "EXPOSE"
    LABEL = "LABEL"
    USER = "USER"
    VOLUME = "VOLUME"
    SHELL = "SHELL"
    HEALTHCHECK = "HEALTHCHECK"
    ONBUILD = "ONBUILD"
    STOPSIGNAL = "STOPSIGNAL"
    MAINTAINER = "MAINTAINER"
    COMMENT = "COMMENT"
    UNKNOWN = "UNKNOWN"


_RECOGNIZED = {k.value for k in Keyword} - {"COMMENT", "UNKNOWN"}


@dataclass(frozen=True)
class Instruction:
    """One instruction, possibly spanning several physical lines."""

    keyword: Keyword
    arguments: str
    source_span: tuple[int, int]  # 1-based, inclusive
    raw: str  # exact original text of the span, line endings preserved

    def __post_init__(self):
        first, last = self.source_span
        if first > last:
            raise ValueError(f"inverted source span {self.source_span}")


@dataclass(frozen=True)
class DockerfileDoc:
    """A parsed build definition plus everything needed to re-emit it."""

    instructions: tuple[Instruction, ...]
    blank_lines: tuple[tuple[int, str], ...]  # (line number, raw line)
    raw_text: str  # exact original text (BOM included when present)
    had_bom: bool = False

    @property
    def stage_count(self) -> int:
        return sum(1 for ins in self.instructions if ins.keyword is Keyword.FROM)

    @property
    def content_hash(self) -> str:
        return hashlib.sha256(self.to_bytes()).hexdigest()

    def to_bytes(self) -> bytes:
        return serialize(self).encode("utf-8")


def _strip_eol(line: str) -> str:
    if line.endswith("\n"):
        line = line[:-1]
    if line.endswith("\r"):
        line = line[:-1]
    return line


def has_instructions(text: str) -> bool:
    """Whether `parse_dockerfile(text)` finds an instruction (comments count).

    It does exactly when, after one leading BOM, some character is not
    whitespace by `str.isspace`: a line of whitespace only is blank, and
    every other line becomes an instruction or part of one.
    """
    body = text.removeprefix(_BOM)
    return bool(body) and not body.isspace()


def parse_dockerfile(text: bytes | str) -> DockerfileDoc:
    """Parse a build definition from bytes or text.

    Every input line ends up either inside exactly one instruction span or
    recorded as a blank line, which is what makes serialization lossless.
    A trailing backslash merges the following line into the instruction.

    Raises:
        MalformedEncoding: input bytes are not UTF-8.
        EmptyDocument: no instructions at all, by `has_instructions`.
    """
    had_bom = False
    if isinstance(text, bytes):
        if text.startswith(b"\xef\xbb\xbf"):
            had_bom = True
            text = text[3:]
        try:
            body = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedEncoding(f"input is not valid UTF-8: {exc}") from exc
    else:
        body = text
        if body.startswith(_BOM):
            had_bom = True
            body = body[len(_BOM):]
    raw_text = (_BOM if had_bom else "") + body
    if not has_instructions(raw_text):
        raise EmptyDocument("no instructions found")

    lines = _LINE_RE.findall(body)
    instructions: list[Instruction] = []
    blanks: list[tuple[int, str]] = []

    i = 0
    while i < len(lines):
        stripped = _strip_eol(lines[i])
        if not stripped.strip():
            blanks.append((i + 1, lines[i]))
            i += 1
            continue
        if stripped.lstrip().startswith("#"):
            comment_text = stripped.lstrip()[1:].strip()
            instructions.append(
                Instruction(Keyword.COMMENT, comment_text, (i + 1, i + 1), lines[i])
            )
            i += 1
            continue

        start = i
        logical_parts: list[str] = []
        while True:
            part = _strip_eol(lines[i])
            continued = part.rstrip().endswith("\\") and i + 1 < len(lines)
            if continued:
                logical_parts.append(part.rstrip()[:-1])
            else:
                logical_parts.append(part)
            i += 1
            if not continued:
                break
        raw = "".join(lines[start:i])
        logical = "".join(logical_parts)
        match = _KEYWORD_RE.match(logical)
        if match is None:  # a lone `\` joined to a blank line: no keyword at all
            keyword, arguments = Keyword.UNKNOWN, ""
        else:
            token = match.group(1).upper()
            keyword = Keyword(token) if token in _RECOGNIZED else Keyword.UNKNOWN
            arguments = logical[match.end():]
        instructions.append(Instruction(keyword, arguments, (start + 1, i), raw))

    return DockerfileDoc(
        instructions=tuple(instructions),
        blank_lines=tuple(blanks),
        raw_text=raw_text,
        had_bom=had_bom,
    )


def serialize(doc: DockerfileDoc) -> str:
    """Reassemble the original text from the parsed structure."""
    parts: dict[int, str] = {}
    for lineno, raw in doc.blank_lines:
        parts[lineno] = raw
    for ins in doc.instructions:
        for offset, line in enumerate(_LINE_RE.findall(ins.raw)):
            parts[ins.source_span[0] + offset] = line
    body = "".join(parts[n] for n in sorted(parts))
    return (_BOM if doc.had_bom else "") + body


# --- line-level diffing ---

@dataclass(frozen=True)
class LineEdit:
    op: str  # "keep" | "remove" | "add"
    text: str


def diff_docs(before: DockerfileDoc, after: DockerfileDoc) -> list[LineEdit]:
    """Minimal line-level edit script between two documents.

    Minimality means the number of keep edits equals the length of a longest
    common subsequence of the two line lists, so no smaller add/remove set
    exists. Applying the result to `before` reproduces `after` byte-exactly.
    """
    a = _LINE_RE.findall(before.raw_text)
    b = _LINE_RE.findall(after.raw_text)
    n, m = len(a), len(b)

    # dp[i][j] = LCS length of a[i:], b[j:]
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        row, nxt = dp[i], dp[i + 1]
        for j in range(m - 1, -1, -1):
            if a[i] == b[j]:
                row[j] = nxt[j + 1] + 1
            else:
                row[j] = nxt[j] if nxt[j] >= row[j + 1] else row[j + 1]

    edits: list[LineEdit] = []
    i = j = 0
    while i < n and j < m:
        if a[i] == b[j]:
            edits.append(LineEdit("keep", a[i]))
            i += 1
            j += 1
        elif dp[i + 1][j] >= dp[i][j + 1]:
            edits.append(LineEdit("remove", a[i]))
            i += 1
        else:
            edits.append(LineEdit("add", b[j]))
            j += 1
    edits.extend(LineEdit("remove", line) for line in a[i:])
    edits.extend(LineEdit("add", line) for line in b[j:])
    return edits


def apply_edits(base_text: str, edits: list[LineEdit]) -> str:
    """Apply an edit script produced by diff_docs to the original text."""
    src = _LINE_RE.findall(base_text)
    out: list[str] = []
    i = 0
    for edit in edits:
        if edit.op == "keep":
            if i >= len(src) or src[i] != edit.text:
                raise ValueError(f"edit script does not match base text at line {i + 1}")
            out.append(src[i])
            i += 1
        elif edit.op == "remove":
            if i >= len(src) or src[i] != edit.text:
                raise ValueError(f"edit script does not match base text at line {i + 1}")
            i += 1
        elif edit.op == "add":
            out.append(edit.text)
        else:
            raise ValueError(f"unknown edit op {edit.op!r}")
    if i != len(src):
        raise ValueError("edit script ended before the base text was consumed")
    return "".join(out)


def render_diff(edits: list[LineEdit]) -> str:
    """Human-readable +/- rendering of an edit script."""
    prefix = {"keep": "  ", "remove": "- ", "add": "+ "}
    return "".join(prefix[e.op] + _strip_eol(e.text) + "\n" for e in edits)
