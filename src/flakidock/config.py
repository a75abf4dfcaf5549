"""Run configuration: defaults, config-file parsing, component wiring.

The config file is plain `key = value` lines with `#` comments. Secrets
never live in the file; provider entries name the environment variable
that holds the token.
"""

from __future__ import annotations

import json
import typing
from dataclasses import Field, dataclass, fields
from pathlib import Path
from urllib.parse import urlsplit

from .build_engine import (
    DEFAULT_BUILD_TEMPLATE,
    DEFAULT_CLEAN_COMMANDS,
    BuildEngine,
    BuildScript,
    HygienePolicy,
    RealCliDriver,
    ScriptedOutcome,
    SimulatedDriver,
)
from .durable import read_input
from .errors import ConfigError, FlakiDockError
from .log_preprocess import RuleSet
from .providers import (
    HashingEmbeddingProvider,
    HttpChatProvider,
    HttpEmbeddingProvider,
    ProviderSet,
    ScriptedTextProvider,
)


@dataclass(frozen=True)
class ValidationPolicy:
    """When a repair session accepts a candidate and when it gives up."""

    build_iterations: int = 2  # n: consecutive successes required
    failure_threshold: int = 3  # T: similar failures before giving up
    max_total_attempts: int = 10  # hard cap on generator calls per session
    feedback_similarity_threshold: float = 0.90

    def __post_init__(self):
        if self.build_iterations < 1:
            raise ValueError("build_iterations must be >= 1")
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.max_total_attempts < 1:
            raise ValueError("max_total_attempts must be >= 1")
        if not 0.0 < self.feedback_similarity_threshold < 1.0:
            raise ValueError("feedback_similarity_threshold must be in (0, 1)")


@dataclass
class RunConfig:
    state_dir: Path = Path(".flakidock")
    driver: str = "real"  # "real" or "simulated:<scenario.json>"
    build_command: str = DEFAULT_BUILD_TEMPLATE
    clean_commands: tuple[str, ...] = DEFAULT_CLEAN_COMMANDS

    # hygiene
    clean_every: int = HygienePolicy.clean_every
    timeout: float = HygienePolicy.timeout
    no_cache: bool = HygienePolicy.no_cache

    # validation policy
    build_iterations: int = ValidationPolicy.build_iterations
    failure_threshold: int = ValidationPolicy.failure_threshold
    max_total_attempts: int = ValidationPolicy.max_total_attempts
    feedback_similarity: float = ValidationPolicy.feedback_similarity_threshold

    # retrieval / clustering
    cluster_threshold: float = 0.80
    retrieval_k: int = 3
    store: str = "builtin"  # "builtin" or a records.jsonl path
    rules: Path | None = None

    # providers
    embedding_provider: str = "offline"  # offline | http
    embedding_url: str = ""
    embedding_model: str = "text-embedding-ada-002"
    embedding_auth_env: str = "FLAKIDOCK_EMBEDDING_TOKEN"
    embedding_dim: int = HttpEmbeddingProvider.dim
    embedding_token_limit: int = HttpEmbeddingProvider.token_limit
    sentence_provider: str = "offline"
    sentence_url: str = ""
    sentence_model: str = "all-mpnet-base-v2"
    sentence_auth_env: str = "FLAKIDOCK_SENTENCE_TOKEN"
    sentence_dim: int = 768
    generation_provider: str = "none"  # none | scripted:<path> | http
    generation_url: str = ""
    generation_model: str = ""
    generation_auth_env: str = "FLAKIDOCK_GENERATION_TOKEN"
    prompt_budget: int = 8000
    max_response_tokens: int = HttpChatProvider.max_tokens

    def validate(self) -> None:
        """Reject a bad value with a ConfigError, and build the components every
        command uses: `ruleset`, `validation`, `engine` and `providers`. The
        rules file and the scenario files are read here, once."""
        for key in ("retrieval_k", "prompt_budget", "max_response_tokens", "embedding_dim",
                    "sentence_dim", "embedding_token_limit"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        if not 0.0 < self.cluster_threshold < 1.0:
            raise ConfigError("cluster_threshold must be in (0, 1)")
        try:  # the policies and the rules own their checks: building them applies those checks
            hygiene = HygienePolicy(self.clean_every, self.timeout, self.no_cache)
            self.validation = ValidationPolicy(
                self.build_iterations, self.failure_threshold, self.max_total_attempts, self.feedback_similarity
            )
            self.ruleset = RuleSet.from_file(self.rules) if self.rules is not None else RuleSet.default()
        except FlakiDockError as exc:  # an InvalidRule, or the input-file rule's error
            raise ConfigError(f"rules file {self.rules}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        parsed: dict[Path, dict] = {}  # a file that scripts both roles is parsed once
        if self.driver.startswith("simulated:"):
            driver = _from_scenario(_require_file("driver", self.driver), "builds", _simulated_driver, parsed)
        elif self.driver == "real":
            try:  # the driver checks that each command splits into a command line
                driver = RealCliDriver(self.build_command, self.clean_commands)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        else:
            raise ConfigError(f"driver must be 'real' or 'simulated:<path>', got {self.driver!r}")
        for key in ("embedding_provider", "sentence_provider"):
            if getattr(self, key) not in ("offline", "http"):
                raise ConfigError(f"{key} must be 'offline' or 'http', got {getattr(self, key)!r}")
        for role in ("embedding", "sentence", "generation"):
            if getattr(self, f"{role}_provider") == "http":
                url = getattr(self, f"{role}_url")
                if not _is_http_url(url):
                    raise ConfigError(f"{role}_url must be an http or https URL with a host, got {url!r}")
                if not getattr(self, f"{role}_model"):
                    raise ConfigError(f"{role}_model must not be empty")
        generator = None
        if self.generation_provider.startswith("scripted:"):
            path = _require_file("generation_provider", self.generation_provider)
            generator = _from_scenario(path, "responses", ScriptedTextProvider, parsed)
        elif self.generation_provider == "http":
            generator = HttpChatProvider(self.generation_url, self.generation_model, self.generation_auth_env,
                                         max_tokens=self.max_response_tokens)
        elif self.generation_provider != "none":
            raise ConfigError(
                "generation_provider must be 'none', 'http' or 'scripted:<path>', "
                f"got {self.generation_provider!r}"
            )
        query = sentence = HashingEmbeddingProvider()
        if self.embedding_provider == "http":
            query = HttpEmbeddingProvider(self.embedding_url, self.embedding_model, self.embedding_auth_env,
                                          dim=self.embedding_dim, token_limit=self.embedding_token_limit)
        if self.sentence_provider == "http":
            sentence = HttpEmbeddingProvider(self.sentence_url, self.sentence_model, self.sentence_auth_env,
                                             dim=self.sentence_dim, token_limit=None)
        self.providers = ProviderSet(query, sentence, generator)
        self.engine = BuildEngine(driver, hygiene, Path(self.state_dir))


_BOOL_VALUES = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _is_http_url(url: str) -> bool:
    try:
        parts = urlsplit(url)
        parts.port  # raises for a port that is not a number below 65536
    except ValueError:  # that, or an unclosed IPv6 bracket
        return False
    return parts.scheme in ("http", "https") and bool(parts.hostname)


def _require_file(key: str, value: str) -> Path:
    """The path of a `kind:<path>` setting; rejected when it is not a regular file."""
    path = Path(value.partition(":")[2])
    if not path.is_file():
        raise ConfigError(f"{key} must name a scenario file, got {value!r}")
    return path


def _from_scenario(path: Path, key: str, build, parsed: dict[Path, dict]):
    """`build` of the scenario file's `key` list, parsed unless `parsed` holds the file. Every failure,
    JSON nested past the parser's depth and a check of the built types included, is a ConfigError naming the file."""
    try:
        if path not in parsed:
            parsed[path] = json.loads(read_input(path))
        entries = parsed[path].get(key)
        if not isinstance(entries, list):
            raise ValueError(f"no {key!r} list")
        return build(entries)
    except (FlakiDockError, ValueError, TypeError, AttributeError, RecursionError) as exc:
        raise ConfigError(f"{path}: malformed scenario file: {exc}") from exc


def _simulated_driver(builds: list) -> SimulatedDriver:
    """The driver of a scenario file's `builds` entries, each entry's keys passed to its type as they
    are, so a key the type does not take is an error; an entry without `match` is the default script."""
    return SimulatedDriver([
        BuildScript(**{"match": None, **entry,
                       "outcomes": [ScriptedOutcome(**o) for o in entry.get("outcomes", [])]})
        for entry in builds
    ])


def _kind(field: Field) -> type:
    """The type of the field's default; a `None` default takes the other member of its `X | None` annotation."""
    if field.default is None:
        (kind,) = set(typing.get_args(typing.get_type_hints(RunConfig)[field.name])) - {type(None)}
        return kind
    return type(field.default)


def _coerce(field: Field, raw: str):
    """`raw` as the field's type."""
    kind = _kind(field)
    if issubclass(kind, bool):
        value = _BOOL_VALUES.get(raw.strip().lower())
        if value is None:
            raise ConfigError(f"{field.name}: expected true/false, got {raw!r}")
        return value
    if issubclass(kind, int):
        return int(raw)
    if issubclass(kind, float):
        return float(raw)
    if issubclass(kind, tuple):
        return tuple(part.strip() for part in raw.split(";") if part.strip())
    if issubclass(kind, Path):
        return Path(raw)
    return raw


def _typed(field: Field, value):
    """An override as the field's type: a `str` stands for a path, an int for a float; a bool is no int."""
    kind = _kind(field)
    if issubclass(kind, Path) and isinstance(value, str):
        return Path(value)
    if kind is float and type(value) is int:
        return float(value)
    if not isinstance(value, kind) or (type(value) is bool and kind is not bool):
        raise ConfigError(f"{field.name}: expected {kind.__name__}, got {value!r}")
    return value


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from defaults, an optional file, and CLI overrides."""
    config = RunConfig()
    by_name = {f.name: f for f in fields(RunConfig)}
    if path is not None:
        path = Path(path)
        try:
            text = read_input(path)
        except FlakiDockError as exc:  # the input-file rule's message, as a configuration error
            raise ConfigError(str(exc)) from exc.__cause__
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in by_name:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                setattr(config, key, _coerce(by_name[key], value))
            except (ValueError, ConfigError) as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    for key, value in (overrides or {}).items():
        if key not in by_name:
            raise ConfigError(f"unknown key {key!r}")
        if value is not None:
            setattr(config, key, _typed(by_name[key], value))
    config.validate()
    return config
