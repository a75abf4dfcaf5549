"""Build definitions as text: parse, diff.

A Dockerfile reaches the model as text and a repair is a whole new file, so
a parsed document is the exact text plus its stage count and content hash.
The parser only counts FROM instructions, by the engine's line rules, and
rejects input that has no UTF-8 form or no instruction at all.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from functools import cached_property

from .errors import EmptyDocument, MalformedEncoding

_BOM = "\ufeff"
# One line with its ending. As in the engine's parser, only `\n` ends a line
# (`_strip_eol` drops a `\r` before it): a form feed, `\x1c`-`\x1e`, `\x85`,
# U+2028/2029 or a lone `\r` stays inside its line, unlike `str.splitlines`.
_LINE_RE = re.compile(r"[^\n]*\n|[^\n]+")


@dataclass(frozen=True)
class DockerfileDoc:
    """A build definition: its exact text and the number of its build stages."""

    raw_text: str  # exact original text (BOM included when present)
    stage_count: int  # FROM instructions

    @cached_property  # computed on first read; the document is immutable
    def content_hash(self) -> str:
        """sha256 of the file's UTF-8 bytes; it names the build directory."""
        return hashlib.sha256(self.raw_text.encode("utf-8")).hexdigest()


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

    An instruction starts at each line that is not a `#` comment, and a
    trailing backslash joins the following line to it, whatever that line
    holds, before its first word is read. An instruction whose first word is
    FROM, in any case, starts a build stage; a blank line has no first word.

    Raises:
        MalformedEncoding: bytes that are not UTF-8, or text with no UTF-8
            form (a lone surrogate): no file can hold it.
        EmptyDocument: no instructions at all, by `has_instructions`.
    """
    try:
        if isinstance(text, bytes):
            raw_text = text.decode("utf-8")
        else:
            text.encode("utf-8")  # a lone surrogate has no UTF-8 form
            raw_text = text
    except UnicodeError as exc:
        raise MalformedEncoding(f"input is not valid UTF-8: {exc}") from exc
    if not has_instructions(raw_text):
        raise EmptyDocument("no instructions found")

    lines = _LINE_RE.findall(raw_text.removeprefix(_BOM))
    stages = i = 0
    while i < len(lines):
        part = _strip_eol(lines[i])
        i += 1
        if part.lstrip().startswith("#"):
            continue
        parts = []
        while part.rstrip().endswith("\\") and i < len(lines):
            parts.append(part.rstrip()[:-1])
            part = _strip_eol(lines[i])
            i += 1
        words = "".join(parts + [part]).split(None, 1)
        if words and words[0].upper() == "FROM":
            stages += 1
    return DockerfileDoc(raw_text, stages)


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


def render_diff(edits: list[LineEdit]) -> str:
    """Human-readable +/- rendering of an edit script."""
    prefix = {"keep": "  ", "remove": "- ", "add": "+ "}
    return "".join(prefix[e.op] + _strip_eol(e.text) + "\n" for e in edits)
