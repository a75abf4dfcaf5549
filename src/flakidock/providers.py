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
import math
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
# The symbol id of each byte, and of each code point below 256.
_SYMBOL_IDS = bytes(
    _TABLE_ALPHABET.index(chr(b)) if chr(b) in _TABLE_ALPHABET else _OUTSIDE for b in range(256)
)
_OUTSIDE_ID = bytes([_OUTSIDE])


def _bucket_codes(grams: list[str], dim: int) -> np.ndarray:
    """Each gram's blake2b-64 (of its UTF-8 bytes) mod dim, plus dim when its top bit is set."""
    digests = b"".join([hashlib.blake2b(g.encode("utf-8"), digest_size=8).digest() for g in grams])
    h = np.frombuffer(digests, dtype=">u8").astype(np.uint64)
    return (h % np.uint64(dim) + (h >> np.uint64(63)) * np.uint64(dim)).astype(np.intp)


@functools.cache
def _trigram_table(dim: int) -> np.ndarray:
    """The bucket code for `dim`, a divisor of 2**15, of each gram of symbol
    ids (a, b, c), at index (a*71 + b)*71 + c: `(e & (dim-1)) + (e >> 15)*dim`.

    Entry e of the shipped `data/trigram_codes.bin` is a uint16: the low 15
    bits of the gram's blake2b-64 and its top bit as bit 15. The codes are
    derived from it in place, once per dim, at the first embedding; the
    array is shared and read-only. A code is below 2 * dim <= 2**16.
    """
    data = resources.files("flakidock").joinpath("data/trigram_codes.bin").read_bytes()
    codes = np.frombuffer(data, dtype="<u2").astype(np.uint16)
    top = codes >> _TABLE_BITS
    codes &= dim - 1
    top *= dim
    codes += top
    codes.flags.writeable = False
    return codes


class HashingEmbeddingProvider(EmbeddingProvider):
    """Deterministic offline embedding: hashed character 3-grams, L2-normalized.

    Each 3-gram of the lowercased text adds -1 or +1 (the top bit of the
    blake2b-64 of its UTF-8 bytes) to bucket `digest mod dim`. Every call with
    the same text yields the same vector, on any host, which makes downstream
    behavior fully replayable without a network.

    When dim divides 2**15, grams of the 71 table characters (tab, newline,
    printable ASCII without A-Z) read their code from `_trigram_table(dim)`.
    ASCII text takes its symbol ids with one `bytes.translate`, other text
    with a gather over its UTF-32 code points. Every other gram, one with a
    non-ASCII character, `\\r` or another control, or any gram when dim does
    not divide 2**15, costs one blake2b of its string per occurrence. The
    provider holds no state, and the vectors equal hashing every gram string
    in turn, bit for bit.
    """

    def __init__(self, dim: int = OFFLINE_DIM):
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            raise ValueError(f"dim must be an int >= 1, got {dim!r}")
        self.dim = dim
        self.provider_id = f"offline-hash-{dim}"
        self.token_limit = None

    def embed_values(self, text: str) -> np.ndarray:
        dim = self.dim
        lowered = text.lower()
        if len(lowered) < _NGRAM or (1 << _TABLE_BITS) % dim:  # too short, or no table for this dim
            codes = _bucket_codes([lowered[i : i + 3] for i in range(len(lowered) - 2)] or [lowered], dim)
        else:
            if lowered.isascii():
                symbols = lowered.encode().translate(_SYMBOL_IDS)
                hashed = _OUTSIDE_ID in symbols
                ids = np.frombuffer(symbols, dtype=np.uint8)
            else:  # a non-ASCII character is outside the table
                # UTF-32 raises UnicodeEncodeError on a lone surrogate, as UTF-8 does.
                points = np.frombuffer(lowered.encode("utf-32-le"), dtype="<u4")
                ids = np.frombuffer(_SYMBOL_IDS, dtype=np.uint8).take(points, mode="clip")
                hashed = True
            ids = ids.astype(np.int32)  # a uint8 gram index would overflow
            index = ids[:-2] * _OUTSIDE
            index += ids[1:-1]
            index *= _OUTSIDE
            index += ids[2:]
            table = _trigram_table(dim)
            if not hashed:  # every gram is in the table
                codes = table.take(index)
            else:
                outside = ids == _OUTSIDE
                outside = outside[:-2] | outside[1:-1] | outside[2:]
                grams = [lowered[i : i + 3] for i in np.flatnonzero(outside).tolist()]
                # one blake2b per occurrence of a gram outside the table
                codes = np.concatenate([table.take(index[~outside]), _bucket_codes(grams, dim)])
        counts = np.bincount(codes, minlength=2 * dim)
        # Each bucket sums +-1 terms: the integer sums, and the sum of their
        # squares, are exact, so the vector is as if summed in float64.
        acc = counts[dim:] - counts[:dim]
        norm = math.sqrt(acc @ acc)
        # Quantize to the on-disk float32 grid so in-memory and persisted
        # vectors rank identically.
        vec = (acc / norm if norm else acc).astype(np.float32)
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
        """POST `body` and the model to `path` as JSON; return `pick` of the JSON reply.

        Sent by urllib: a 301, 302 or 303 is followed as a GET without the
        token, a 307 or 308 fails. Raises ProviderUnavailable on any failure:
        an unsendable request (a token outside latin-1), connection, timeout,
        HTTP status, a short reply, bad or too-deep JSON, or a reply `pick` rejects.
        """
        import http.client
        import json
        import urllib.request

        data = json.dumps({"model": self.model, **body}).encode()
        try:
            request = urllib.request.Request(f"{self.base_url}/{path}", data, {"Content-Type": "application/json"})
            if token := os.environ.get(self.auth_env, ""):
                request.add_unredirected_header("Authorization", f"Bearer {token}")
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                reply = json.loads(resp.read())
        except (OSError, http.client.HTTPException, ValueError, RecursionError) as exc:
            if isinstance(exc, urllib.error.HTTPError):
                exc.close()  # an HTTP error status is also an open reply
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
