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
from itertools import count

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
    exists. Between two keeps, removals come first. Applying the result to
    `before` reproduces `after` byte-exactly.
    """
    a, b = _LINE_RE.findall(before.raw_text), _LINE_RE.findall(after.raw_text)
    in_a, in_b = set(a), set(b)
    xs = [x for x, line in enumerate(a) if line in in_b]  # a line the other lacks is never kept
    ys = [y for y, line in enumerate(b) if line in in_a]
    edits, i, j = [], 0, 0
    for p, q in _common([a[x] for x in xs], [b[y] for y in ys], 0, 0):
        x, y = xs[p], ys[q]
        if i < x or j < y:
            edits += [LineEdit("remove", line) for line in a[i:x]] + [LineEdit("add", line) for line in b[j:y]]
        edits.append(LineEdit("keep", a[x]))
        i, j = x + 1, y + 1
    return edits + [LineEdit("remove", line) for line in a[i:]] + [LineEdit("add", line) for line in b[j:]]


def _common(a: list, b: list, x0: int, y0: int) -> list[tuple[int, int]]:
    """The index pairs, offset by (x0, y0), of a longest common subsequence of
    `a` and `b`, by Myers' "An O(ND) Difference Algorithm and Its Variations"
    (1986): past the common prefix and suffix, the middle point of a shortest
    edit path splits the rest in two. O((N+M)·D) time, O(N+M) space."""
    n, m, p, s = len(a), len(b), 0, 0
    while p < n and p < m and a[p] == b[p]:
        p += 1
    while s < n - p and s < m - p and a[n - 1 - s] == b[m - 1 - s]:
        s += 1
    pairs = [(x0 + k, y0 + k) for k in range(p)]
    if p + s < n and p + s < m:
        a, b = a[p:n - s], b[p:m - s]
        x, y = _middle(a, b)
        pairs += _common(a[:x], b[:y], x0 + p, y0 + p) + _common(a[x:], b[y:], x0 + p + x, y0 + p + y)
    return pairs + [(x0 + n - s + k, y0 + m - s + k) for k in range(s)]


def _middle(a: list, b: list) -> tuple[int, int]:
    """A point on a shortest edit path from (0, 0) to (len(a), len(b)), where
    d-move searches from both ends first meet; the first and the last items
    of `a` and `b` differ."""
    n, m = len(a), len(b)
    ahead, back = [[-1] * (2 * (n + m) + 3) for _ in range(2)]  # diagonal x - y -> furthest x (-1: none)
    ahead[1] = back[1] = 0  # both searches start at (0, 0), `back` in the reversed grid
    # An odd D is found by the forward search meeting the reverse one, an even D the other way.
    searches = (ahead, back, a, b, (n - m) % 2), (back, ahead, a[::-1], b[::-1], 1 - (n - m) % 2)
    for d in count():
        for v, other, p, q, meets in searches:
            for k in range(-d, d + 1, 2):
                x, right = v[k + 1], v[k - 1]  # a move down from k + 1, or right from k - 1
                if 0 <= right < n and (right >= x or x - k > m):
                    x = right + 1
                elif x - k > m:
                    x = -1
                y = x - k
                while 0 <= x < n and y < m and p[x] == q[y]:
                    x, y = x + 1, y + 1
                v[k] = x
                if meets and x + other[n - m - k] >= n:  # the paths overlap on this diagonal
                    k = k if v is ahead else n - m - k
                    return ahead[k], ahead[k] - k


def render_diff(edits: list[LineEdit]) -> str:
    """Human-readable +/- rendering of an edit script."""
    prefix = {"keep": "  ", "remove": "- ", "add": "+ "}
    return "".join(prefix[e.op] + _strip_eol(e.text) + "\n" for e in edits)
