"""Pluggable embedding and text-generation providers.

Two embedding roles exist: a sentence-similarity provider (failure matching
and clustering) and a query-embedding provider (demonstration retrieval).
Both share one interface. The deterministic offline provider backs every
test; the HTTP providers talk to OpenAI-compatible endpoints. numpy comes
through `_numpy`, which loads it at its first use.
"""

from __future__ import annotations

import functools
import hashlib
import os
from abc import ABC, abstractmethod
from dataclasses import dataclass
from importlib import resources

from . import _numpy as np
from .errors import ProviderUnavailable

OFFLINE_DIM = 256
_NGRAM = 3


class EmbeddingProvider(ABC):
    """Stateless handle producing fixed-dimension embeddings."""

    provider_id: str
    dim: int
    token_limit: int | None = None

    @abstractmethod
    def embed_values(self, text: str) -> np.ndarray:
        """Return the read-only float32 embedding, shape (dim,), of text already within limits."""


# The shipped 3-gram table covers the grams of these 71 characters: tab,
# newline and printable ASCII without A-Z, which lowercasing removes.
_TABLE_ALPHABET = "\t\n" + "".join(chr(c) for c in range(0x20, 0x7F) if not "A" <= chr(c) <= "Z")
_OUTSIDE = len(_TABLE_ALPHABET)  # the symbol id of every other character
_TABLE_BITS = 15  # low digest bits per table entry: h mod dim for every dim dividing 2**15


def _bucket_codes(grams: list[str], dim: int) -> np.ndarray:
    """Each gram's blake2b-64 (of its UTF-8 bytes) mod dim, plus dim when its top bit is set."""
    digests = b"".join([hashlib.blake2b(g.encode("utf-8"), digest_size=8).digest() for g in grams])
    h = np.frombuffer(digests, dtype=">u8").astype(np.uint64)
    return (h % np.uint64(dim) + (h >> np.uint64(63)) * np.uint64(dim)).astype(np.intp)


@functools.cache
def _trigram_table() -> tuple[np.ndarray, np.ndarray]:
    """The symbol id of each code point below 128, at index 128 that of all
    others, and the shipped `data/trigram_codes.bin`.

    The file holds, for the gram of symbol ids (a, b, c) at (a*71 + b)*71 + c,
    a uint16: the low 15 bits of the gram's blake2b-64 and its top bit as bit
    15. Read once per process, at the first embedding; both arrays are shared
    and read-only.
    """
    ids = np.full(129, _OUTSIDE, dtype=np.int32)
    ids[[ord(ch) for ch in _TABLE_ALPHABET]] = np.arange(_OUTSIDE)
    ids.flags.writeable = False
    data = resources.files("flakidock").joinpath("data/trigram_codes.bin").read_bytes()
    return ids, np.frombuffer(data, dtype="<u2")


class HashingEmbeddingProvider(EmbeddingProvider):
    """Deterministic offline embedding: hashed character 3-grams, L2-normalized.

    Each 3-gram of the lowercased text adds -1 or +1 (the top bit of the
    blake2b-64 of its UTF-8 bytes) to bucket `digest mod dim`. Every call with
    the same text yields the same vector, on any host, which makes downstream
    behavior fully replayable without a network.

    Grams of the 71 table characters (tab, newline, printable ASCII without
    A-Z) read their code from the shipped `data/trigram_codes.bin` when dim
    divides 2**15. Every other gram, one with a non-ASCII character, `\\r` or
    another control, or any gram when dim does not divide 2**15, costs one
    blake2b of its string per occurrence. The provider holds no state, and
    the vectors equal hashing every gram string in turn, bit for bit.
    """

    def __init__(self, dim: int = OFFLINE_DIM):
        self.dim = dim
        self.provider_id = f"offline-hash-{dim}"
        self.token_limit = None

    def embed_values(self, text: str) -> np.ndarray:
        dim = self.dim
        lowered = text.lower()
        if len(lowered) < _NGRAM:
            codes = _bucket_codes([lowered], dim)
        else:
            # UTF-32 raises UnicodeEncodeError on a lone surrogate, as UTF-8 does.
            points = np.frombuffer(lowered.encode("utf-32-le"), dtype="<u4")
            symbol_ids, table = _trigram_table()
            ids = symbol_ids.take(points, mode="clip")
            index = (ids[:-2] * _OUTSIDE + ids[1:-1]) * _OUTSIDE + ids[2:]
            spare = (1 << _TABLE_BITS) % dim  # nonzero: the table's 15 bits do not give h mod dim
            if not spare and ids.max() < _OUTSIDE:  # every gram is in the table
                entries, hashed = table[index], []
            else:
                outside = ids >= (0 if spare else _OUTSIDE)  # with a spare, no gram reads the table
                outside = outside[:-2] | outside[1:-1] | outside[2:]
                entries, hashed = table[index[~outside]], np.flatnonzero(outside).tolist()
            # uint16 throughout: a code is below 2 * dim <= 2**16.
            codes = (entries & (dim - 1)) + (entries >> _TABLE_BITS) * dim
            if hashed:  # one blake2b per occurrence of a gram outside the table
                codes = np.concatenate([codes, _bucket_codes([lowered[i : i + 3] for i in hashed], dim)])
        counts = np.bincount(codes, minlength=2 * dim)
        # Each bucket sums +-1 terms, so the counts give the exact sum.
        acc = (counts[dim:] - counts[:dim]).astype(np.float64)
        norm = float(np.linalg.norm(acc))
        if norm > 0.0:
            acc /= norm
        # Quantize to the on-disk float32 grid so in-memory and persisted
        # vectors rank identically.
        vec = acc.astype(np.float32)
        vec.flags.writeable = False
        return vec


@dataclass(eq=False)
class _HttpProvider:
    """An OpenAI-style endpoint, reached through one POST, reply check and error."""

    base_url: str
    model: str
    auth_env: str  # subclasses add `timeout` and the message prefixes `_failed`, `_unexpected`

    def __post_init__(self):
        self.base_url = self.base_url.rstrip("/")
        self.provider_id = f"http:{self.model}"

    def _post(self, path: str, body: dict, pick):
        """POST `body` and the model to `path`; return `pick` of the JSON reply.

        Raises ProviderUnavailable on any failure: connection, HTTP status, a
        body that is not JSON, or a reply that `pick` rejects.
        """
        import requests

        token = os.environ.get(self.auth_env, "")
        headers = {"Authorization": f"Bearer {token}"} if token else {}
        try:
            resp = requests.post(f"{self.base_url}/{path}", json={"model": self.model, **body},
                                 headers=headers, timeout=self.timeout)
            resp.raise_for_status()
            reply = resp.json()  # a non-JSON body raises a RequestException (requests >= 2.27)
        except requests.RequestException as exc:
            raise ProviderUnavailable(f"{self._failed}: {exc}") from exc
        try:
            return pick(reply)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ProviderUnavailable(f"{self._unexpected}: {exc!r}") from exc


@dataclass(eq=False)
class HttpEmbeddingProvider(_HttpProvider, EmbeddingProvider):
    """OpenAI-style /embeddings endpoint driver."""

    dim: int = 1536
    token_limit: int | None = 8191
    timeout: float = 30.0
    _failed = "embedding request failed"
    _unexpected = "unexpected embedding response shape"

    def embed_values(self, text: str) -> np.ndarray:
        return self._post("embeddings", {"input": text}, self._vector)

    def _vector(self, reply) -> np.ndarray:
        values = np.asarray(reply["data"][0]["embedding"])
        if values.dtype.kind not in "iuf" or values.shape != (self.dim,):
            raise ValueError(f"embedding is not {self.dim} numbers")
        with np.errstate(over="ignore"):  # a value past the float32 range is inf, which embed rejects
            vec = values.astype(np.float32)
        vec.flags.writeable = False
        return vec


def check_reply(response) -> None:
    """Reject, with ValueError, a response that is not a str or has no UTF-8
    form (a lone surrogate, which a JSON `\\ud800` escape gives): the session
    could not write it to its trail."""
    if not isinstance(response, str):
        raise ValueError(f"response is {type(response).__name__}, not str")
    try:
        response.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(f"response has no UTF-8 form: {exc}") from exc


class TextGenerationProvider(ABC):
    """Handle for repair-candidate generation."""

    provider_id: str

    @abstractmethod
    def generate(self, prompt: str) -> str:
        """Return the raw model response for one prompt."""


class ScriptedTextProvider(TextGenerationProvider):
    """Canned responses consumed in order; the last one repeats.

    Records every prompt it receives, which is how tests assert on the
    exact prompt contents of a given attempt. `config` builds one from a
    scenario file's `responses`.
    """

    def __init__(self, responses: list[str]):
        if not responses:
            raise ValueError("scripted provider needs at least one response")
        for response in responses:
            check_reply(response)
        self.responses = list(responses)
        self.prompts: list[str] = []
        self.provider_id = "scripted"

    def generate(self, prompt: str) -> str:
        self.prompts.append(prompt)
        index = min(len(self.prompts) - 1, len(self.responses) - 1)
        return self.responses[index]


@dataclass(eq=False)
class HttpChatProvider(_HttpProvider, TextGenerationProvider):
    """OpenAI-style /chat/completions endpoint driver.

    Temperature is pinned to 0 so repeated runs against the same model
    produce stable candidates.
    """

    max_tokens: int = 2000
    timeout: float = 120.0
    _failed = "generation request failed"
    _unexpected = "unexpected chat response shape"
    temperature = 0.0

    def generate(self, prompt: str) -> str:
        messages = [{"role": "user", "content": prompt}]
        body = {"messages": messages, "temperature": self.temperature, "max_tokens": self.max_tokens}
        return self._post("chat/completions", body, self._content)

    @staticmethod
    def _content(reply) -> str:
        content = reply["choices"][0]["message"]["content"]
        check_reply(content)
        return content


@dataclass
class ProviderSet:
    query_embedder: EmbeddingProvider
    sentence_embedder: EmbeddingProvider
    generator: TextGenerationProvider | None


def estimate_tokens(text: str) -> int:
    """Crude token estimate (~4 characters per token), used for budgets."""
    return max(1, (len(text) + 3) // 4)


def truncate_to_tokens(text: str, limit: int) -> str:
    """Cut text to roughly its last `limit` tokens: a build log ends in its error."""
    max_chars = limit * 4
    if len(text) <= max_chars:
        return text
    return text[len(text) - max_chars:]
