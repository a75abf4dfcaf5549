from __future__ import annotations

import json
import random
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flakidock import providers
from flakidock.config import load_config
from flakidock.errors import ConfigError, ProviderUnavailable
from flakidock.providers import (
    HashingEmbeddingProvider,
    HttpChatProvider,
    HttpEmbeddingProvider,
    ScriptedTextProvider,
    estimate_tokens,
    truncate_to_tokens,
)
from flakidock.similarity import embed

from loopback import Loopback
from support import reference_hash_embedding, reference_trigram_table


class TestHashingProvider:
    def test_same_text_same_vector_across_instances(self):
        a = HashingEmbeddingProvider().embed_values("the same failure text")
        b = HashingEmbeddingProvider().embed_values("the same failure text")
        assert np.array_equal(a, b)

    def test_case_insensitive(self):
        provider = HashingEmbeddingProvider()
        assert np.array_equal(provider.embed_values("ERROR: boom"), provider.embed_values("error: boom"))

    def test_short_text_still_nonzero(self):
        provider = HashingEmbeddingProvider()
        assert any(provider.embed_values("ab"))

    def test_returns_read_only_array(self):
        values = HashingEmbeddingProvider().embed_values("text")
        with pytest.raises(ValueError):
            values[0] = 12345.0


# Case mappings that change length (U+0130 lowers to two code points) or
# depend on context (a final capital sigma lowers to U+03C2), astral
# characters, NUL, and line breaks other than "\n".
_EMBED_ALPHABET = "aAbZ \x00\x85\u2028\u0130\u1e9e\u212a\u03a3\u03c3\U0001f600\U00010400"


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float32).tobytes()


def _assert_matches_reference(text: str, dim: int) -> None:
    assert _bits(HashingEmbeddingProvider(dim).embed_values(text)) == reference_hash_embedding(text, dim).tobytes()


# Text the byte map reads: DEL and VT are ASCII but outside the table, the
# Kelvin sign lowers to ASCII "k", and U+0130 lowers to two code points.
_EDGE_TEXTS = [
    "", "a", "ab", "\x7f", "a\x0b", "\x7f\x0bx", "pip\x7finstall", "exit\x0bcode: 1\x7f",
    "\u212a", "\u212aelvin", "ERROR: \u212a", "\u0130", "a\u0130", "\u0130stanbul", "x\u0130\u212a",
]
# 1 and 2 are the smallest table dims, 100 has no table, and 32768's top
# code, 32767 + 32768 = 65535, fills the uint16.
_EDGE_DIMS = [1, 2, 100, 256, 32768]


class TestHashingDifferential:
    """The code-point-array embedder against one blake2b per 3-gram string."""

    @given(
        st.one_of(
            st.text(alphabet=_EMBED_ALPHABET, max_size=5),
            st.text(alphabet=_EMBED_ALPHABET, max_size=60),
            st.text(st.characters(blacklist_categories=("Cs",)), max_size=40),
        )
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_reference(self, text):
        provider = HashingEmbeddingProvider()
        assert _bits(provider.embed_values(text)) == reference_hash_embedding(text).tobytes()

    def test_long_texts_outside_the_table_match_reference(self):
        rng = random.Random(5)
        alphabet = [chr(c) for c in range(0x4E00, 0x4E00 + 64)]  # caseless; 64**3 3-grams
        provider = HashingEmbeddingProvider()
        texts = ["".join(rng.choices(alphabet, k=20_000)) for _ in range(6)]
        for text in texts + texts[:1]:
            assert _bits(provider.embed_values(text)) == reference_hash_embedding(text).tobytes()

    @pytest.mark.parametrize("text", ["\ud800", "ab\udfff", "abc\ud800def"])
    def test_lone_surrogate_raises_like_the_reference(self, text):
        with pytest.raises(UnicodeEncodeError):
            reference_hash_embedding(text)
        with pytest.raises(UnicodeEncodeError):
            HashingEmbeddingProvider().embed_values(text)

    @pytest.mark.parametrize("dim", _EDGE_DIMS)
    @pytest.mark.parametrize("text", _EDGE_TEXTS)
    def test_edge_text_matches_reference(self, dim, text):
        _assert_matches_reference(text, dim)

    @pytest.mark.parametrize("dim", _EDGE_DIMS)
    @given(text=st.text(alphabet="ab -/:\t\n\x7f\x0bK\u212a\u0130", max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_edge_alphabet_matches_reference(self, dim, text):
        _assert_matches_reference(text, dim)

    @pytest.mark.parametrize("dim", _EDGE_DIMS)
    def test_long_ascii_text_matches_reference(self, dim):
        rng = random.Random(dim)
        in_table = "abcdefghijklmnopqrstuvwxyz0123456789 -/:.\t\n"
        for alphabet in [[chr(c) for c in range(128)], in_table]:
            text = "".join(rng.choices(alphabet, k=20_000))
            assert len(text) == 20_000 and text.isascii()
            _assert_matches_reference(text, dim)


# Table characters beside characters outside the shipped 3-gram table: "\r",
# ESC, an uppercase letter, a non-ASCII letter, one that lowercases to two
# code points, and an astral character. In-table and hashed grams meet.
_MIXED_ALPHABET = "ab -/:\t\n\r\x1bA\u00e9\u0130\U0001f600"


class TestTrigramTable:
    def test_shipped_file_equals_the_reference_builder(self):
        shipped = resources.files("flakidock").joinpath("data/trigram_codes.bin").read_bytes()
        assert len(shipped) == 2 * 71**3
        assert shipped == reference_trigram_table()

    # 3 and 300 do not divide 2**15, so every gram is hashed; 64 and 256 use the table.
    @pytest.mark.parametrize("dim", [3, 64, 256, 300])
    @given(text=st.text(alphabet=_MIXED_ALPHABET, max_size=80))
    @settings(max_examples=150, deadline=None)
    def test_mixed_text_matches_reference(self, dim, text):
        provider = HashingEmbeddingProvider(dim)
        assert _bits(provider.embed_values(text)) == reference_hash_embedding(text, dim).tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 256, 32768])
    def test_the_table_of_a_dim_holds_its_bucket_codes(self, dim):
        entries = np.frombuffer(reference_trigram_table(), dtype="<u2").astype(np.int64)
        table = providers._trigram_table(dim)
        assert table.dtype == np.uint16 and not table.flags.writeable
        assert np.array_equal(table, entries % dim + (entries >> 15) * dim)
        assert table.max() == 2 * dim - 1

    def test_one_table_per_dim_dividing_two_to_the_fifteen(self):
        providers._trigram_table.cache_clear()
        for dim in (100, 256, 64, 256, 3):
            HashingEmbeddingProvider(dim).embed_values(_TABLE_TEXT)
        assert providers._trigram_table.cache_info().currsize == 2


_TABLE_TEXT = "error: pip install failed\n\texit code: 1 (see /tmp/log-42.txt)"


class TestTableGather:
    """Text of table characters alone is gathered from the table with no hashing;
    any other text hashes the grams the table cannot give, bit for bit the same."""

    @pytest.mark.parametrize(
        "dim, text, hashed",
        [
            (256, _TABLE_TEXT, []),
            (64, _TABLE_TEXT.upper(), []),  # lowercasing brings it into the table
            (256, _TABLE_TEXT.replace("pip", "p\u00e9p"), [" p\u00e9", "p\u00e9p", "\u00e9p "]),
            (256, "\r" + _TABLE_TEXT, ["\rer"]),
            (100, _TABLE_TEXT, [_TABLE_TEXT[i : i + 3] for i in range(len(_TABLE_TEXT) - 2)]),
            (256, "\x7f" + _TABLE_TEXT, ["\x7fer"]),
            (256, _TABLE_TEXT.replace(": 1", ":\x0b1"), ["e:\x0b", ":\x0b1", "\x0b1 "]),
            (256, "\u212a" + _TABLE_TEXT, []),  # the Kelvin sign lowers into the table
            (256, "\u0130" + _TABLE_TEXT, ["i\u0307e", "\u0307er"]),
        ],
        ids=["all-table", "all-table-uppercase", "one-non-ascii", "leading-cr", "dim-100",
             "ascii-del", "ascii-vt", "kelvin", "dotted-capital-i"],
    )
    def test_matches_reference_hashing_only_grams_outside_the_table(self, monkeypatch, dim, text, hashed):
        seen = []

        def spy(grams, dim):
            seen.extend(grams)
            return bucket_codes(grams, dim)

        bucket_codes = providers._bucket_codes
        monkeypatch.setattr(providers, "_bucket_codes", spy)
        got = HashingEmbeddingProvider(dim).embed_values(text)
        assert _bits(got) == reference_hash_embedding(text, dim).tobytes()
        assert seen == hashed


class TestDimCheck:
    @pytest.mark.parametrize("dim", [0, -4, 2.5, True, False, "256", None, np.int64(256)])
    def test_anything_but_an_int_of_at_least_one_is_refused(self, dim):
        with pytest.raises(ValueError, match="dim must be an int >= 1"):
            HashingEmbeddingProvider(dim)

    @pytest.mark.parametrize("dim", [1, 3, 256])
    def test_an_int_of_at_least_one_is_taken(self, dim):
        provider = HashingEmbeddingProvider(dim)
        assert (provider.dim, provider.provider_id) == (dim, f"offline-hash-{dim}")
        assert provider.embed_values("pip install").shape == (dim,)


class TestHttpProviderDeclarations:
    def test_embedding_defaults_match_remote_service(self):
        provider = HttpEmbeddingProvider(
            "https://api.example.com/v1", "text-embedding-ada-002", "TOKEN_ENV"
        )
        assert provider.dim == 1536
        assert provider.token_limit == 8191

    def test_chat_temperature_pinned_to_zero(self):
        provider = HttpChatProvider("https://api.example.com/v1", "some-model", "TOKEN_ENV")
        assert provider.temperature == 0.0

    def test_unreachable_embedding_endpoint(self):
        provider = HttpEmbeddingProvider("http://127.0.0.1:1", "m", "TOKEN_ENV", dim=4)
        provider.timeout = 0.2
        with pytest.raises(ProviderUnavailable):
            embed("some text", provider)

    def test_unreachable_chat_endpoint(self):
        provider = HttpChatProvider("http://127.0.0.1:1", "m", "TOKEN_ENV", timeout=0.2)
        with pytest.raises(ProviderUnavailable):
            provider.generate("prompt")


_EMBEDDING = {"data": [{"embedding": [0.5, 1, -2, 1e39]}]}
_CHAT = {"choices": [{"message": {"role": "assistant", "content": "FROM busybox"}}]}
_DEEP = b"[" * 100_000 + b"]" * 100_000
# Each HTTP provider with a good reply and the prefix of its request-failure message.
_EACH_KIND = pytest.mark.parametrize("kind, body, message", [
    ("embedding", _EMBEDDING, "embedding request failed"), ("chat", _CHAT, "generation request failed"),
], ids=["embedding", "chat"])


def _call(kind: str, url: str):
    if kind == "embedding":
        return HttpEmbeddingProvider(url, "m", "FLAKIDOCK_TEST_TOKEN", dim=4, timeout=10).embed_values("text")
    return HttpChatProvider(url, "m", "FLAKIDOCK_TEST_TOKEN", max_tokens=50, timeout=10).generate("prompt")


@pytest.fixture(params=[None, "s3cret"], ids=["no-token", "token"])
def token(request, monkeypatch):
    """The value of the providers' auth variable, None when it is unset."""
    if request.param is None:
        monkeypatch.delenv("FLAKIDOCK_TEST_TOKEN", raising=False)
    else:
        monkeypatch.setenv("FLAKIDOCK_TEST_TOKEN", request.param)
    return request.param


class TestHttpLoopback:
    """Both HTTP providers against a stdlib server on 127.0.0.1."""

    def test_embedding_request_and_reply(self, token):
        with Loopback(body=_EMBEDDING) as server:
            values = _call("embedding", server.url + "/v1/")
        ((path, headers, body),) = server.requests
        assert path == "/v1/embeddings"
        assert body == {"model": "m", "input": "text"}
        assert headers.get("Authorization") == (None if token is None else f"Bearer {token}")
        assert headers["Content-Type"] == "application/json"
        assert values.dtype == np.float32 and values.shape == (4,)
        assert values[:3].tolist() == [0.5, 1.0, -2.0] and values[3] == np.inf
        with pytest.raises(ValueError):
            values[0] = 0.0

    def test_chat_request_and_reply(self, token):
        with Loopback(body=_CHAT) as server:
            content = _call("chat", server.url + "/v1/")
        ((path, headers, body),) = server.requests
        assert path == "/v1/chat/completions"
        assert body == {
            "model": "m",
            "messages": [{"role": "user", "content": "prompt"}],
            "temperature": 0,
            "max_tokens": 50,
        }
        assert headers.get("Authorization") == (None if token is None else f"Bearer {token}")
        assert headers["Content-Type"] == "application/json"
        assert content == "FROM busybox"

    @pytest.mark.parametrize(
        "kind, status, body, message",
        [
            ("embedding", 429, _EMBEDDING, "embedding request failed"),
            ("embedding", 500, _EMBEDDING, "embedding request failed"),
            ("embedding", 200, b"<html>not json</html>", "embedding request failed"),
            ("embedding", 200, {"object": "list"}, "unexpected embedding response shape"),
            ("embedding", 200, {"data": []}, "unexpected embedding response shape"),
            ("embedding", 200, {"data": [{"embedding": None}]}, "unexpected embedding response shape"),
            ("embedding", 200, {"data": [{"embedding": ["a", "b", "c", "d"]}]}, "unexpected embedding response shape"),
            ("embedding", 200, {"data": [{"embedding": [None, 1, 2, 3]}]}, "unexpected embedding response shape"),
            ("embedding", 200, {"data": [{"embedding": [1, 2, 3]}]}, "unexpected embedding response shape"),
            ("embedding", 200, {"data": [{"embedding": [[1, 2], [3, 4]]}]}, "unexpected embedding response shape"),
            ("chat", 429, _CHAT, "generation request failed"),
            ("chat", 500, _CHAT, "generation request failed"),
            ("chat", 200, b"not json", "generation request failed"),
            ("chat", 200, {"choices": [{}]}, "unexpected chat response shape"),
            ("chat", 200, {"choices": [{"message": {"content": None}}]}, "unexpected chat response shape"),
            # A lone surrogate is a legal JSON escape with no UTF-8 form.
            ("chat", 200, {"choices": [{"message": {"content": "FROM \ud800"}}]}, "unexpected chat response shape"),
            # JSON nested past the parser's depth: json raises RecursionError, not a ValueError.
            ("embedding", 200, _DEEP, "embedding request failed: maximum recursion depth exceeded"),
            ("chat", 200, _DEEP, "generation request failed: maximum recursion depth exceeded"),
        ],
        ids=[
            "embed-429", "embed-500", "embed-not-json", "embed-no-data", "embed-empty-data",
            "embed-null", "embed-strings", "embed-null-value", "embed-wrong-length", "embed-matrix",
            "chat-429", "chat-500", "chat-not-json", "chat-no-message", "chat-null-content",
            "chat-lone-surrogate", "embed-nested-too-deep", "chat-nested-too-deep",
        ],
    )
    def test_bad_reply_is_provider_unavailable(self, kind, status, body, message):
        with Loopback(status, body) as server:
            with pytest.raises(ProviderUnavailable, match=message):
                _call(kind, server.url)
        assert len(server.requests) == 1

    @_EACH_KIND
    def test_a_reply_cut_short_is_provider_unavailable(self, kind, body, message):
        # The body ends before its Content-Length: http.client raises IncompleteRead, no OSError.
        with Loopback(body=body, cut_short=True) as server:
            with pytest.raises(ProviderUnavailable, match=message):
                _call(kind, server.url)
        assert len(server.requests) == 1

    @_EACH_KIND
    def test_an_error_status_closes_its_reply(self, kind, body, message):
        with Loopback(500, body) as server:
            with pytest.raises(ProviderUnavailable, match=f"{message}: HTTP Error 500") as caught:
                _call(kind, server.url)
        assert caught.value.__cause__.fp.isclosed()

    @pytest.mark.parametrize("status", [301, 302, 303])
    def test_a_redirect_is_followed_as_a_get_without_the_token(self, status, monkeypatch):
        monkeypatch.setenv("FLAKIDOCK_TEST_TOKEN", "s3cret")
        with Loopback(body=_CHAT) as target, Loopback(status, location=f"{target.url}/moved") as server:
            assert _call("chat", server.url) == "FROM busybox"
        ((_, first, _),) = server.requests
        ((path, headers, body),) = target.requests
        assert first["Authorization"] == "Bearer s3cret"
        assert (path, body) == ("/moved", None)
        assert "Authorization" not in headers

    @pytest.mark.parametrize("status", [307, 308])
    def test_a_redirect_that_keeps_the_post_is_provider_unavailable(self, status, monkeypatch):
        monkeypatch.setenv("FLAKIDOCK_TEST_TOKEN", "s3cret")
        with Loopback(body=_CHAT) as target, Loopback(status, location=target.url) as server:
            with pytest.raises(ProviderUnavailable, match=f"generation request failed: HTTP Error {status}"):
                _call("chat", server.url)
        assert len(server.requests) == 1 and target.requests == []

    @_EACH_KIND
    def test_a_token_that_cannot_be_sent_is_provider_unavailable(self, kind, body, message, monkeypatch):
        # A header value is sent as latin-1, which has no form for the euro sign.
        monkeypatch.setenv("FLAKIDOCK_TEST_TOKEN", "s3cret€")
        with Loopback(body=body) as server:
            with pytest.raises(ProviderUnavailable, match=f"{message}: 'latin-1' codec can't encode"):
                _call(kind, server.url)
        assert server.requests == []


class TestScriptedProvider:
    def test_responses_consumed_in_order_then_last_repeats(self):
        provider = ScriptedTextProvider(["one", "two"])
        assert [provider.generate("p") for _ in range(4)] == ["one", "two", "two", "two"]

    def test_prompts_recorded(self):
        provider = ScriptedTextProvider(["x"])
        provider.generate("first prompt")
        provider.generate("second prompt")
        assert provider.prompts == ["first prompt", "second prompt"]

    def test_from_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"responses": ["canned"]}))
        provider = load_config(overrides={"generation_provider": f"scripted:{path}"}).providers.generator
        assert provider.generate("p") == "canned"

    def test_empty_scenario_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ScriptedTextProvider([])
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"responses": []}))
        with pytest.raises(ConfigError, match="malformed scenario file"):
            load_config(overrides={"generation_provider": f"scripted:{path}"})

    def test_response_without_utf8_form_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no UTF-8 form"):
            ScriptedTextProvider(["FROM busybox\n", "FROM \ud800\n"])
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"responses": ["FROM \ud800\n"]}))  # written as an escape
        with pytest.raises(ConfigError, match="malformed scenario file"):
            load_config(overrides={"generation_provider": f"scripted:{path}"})


class TestTokenHelpers:
    def test_estimate_scales_with_length(self):
        assert estimate_tokens("x" * 400) == 100
        assert estimate_tokens("") == 1

    def test_truncate_noop_under_limit(self):
        assert truncate_to_tokens("short", 100) == "short"

    def test_truncate_keeps_tail(self):
        text = "y" * 1000 + "TAIL"
        assert truncate_to_tokens(text, 2).endswith("TAIL")
        assert len(truncate_to_tokens(text, 2)) == 8
