"""Run configuration: defaults, config-file parsing, component wiring.

The config file is plain `key = value` lines with `#` comments. Secrets
never live in the file; provider entries name the environment variable
that holds the token.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

from .build_engine import (
    DEFAULT_BUILD_TEMPLATE,
    DEFAULT_CLEAN_COMMANDS,
    BuildEngine,
    HygienePolicy,
    RealCliDriver,
    SimulatedDriver,
)
from .errors import ConfigError
from .log_preprocess import RuleSet
from .providers import (
    HashingEmbeddingProvider,
    HttpChatProvider,
    HttpEmbeddingProvider,
    ScriptedTextProvider,
)
from .repair_pipeline import ProviderSet, ValidationPolicy


@dataclass
class RunConfig:
    state_dir: Path = Path(".flakidock")
    driver: str = "real"  # "real" or "simulated:<scenario.json>"
    build_command: str = DEFAULT_BUILD_TEMPLATE
    clean_commands: tuple[str, ...] = DEFAULT_CLEAN_COMMANDS

    # hygiene
    clean_every: int = 4
    timeout: float = 1800.0
    no_cache: bool = True

    # validation policy
    build_iterations: int = 2
    failure_threshold: int = 3
    max_total_attempts: int = 10
    feedback_similarity: float = 0.90

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
    embedding_dim: int = 1536
    embedding_token_limit: int = 8191
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
    max_response_tokens: int = 2000

    extra: dict = field(default_factory=dict, repr=False)

    def validate(self) -> None:
        if self.retrieval_k < 1:
            raise ConfigError(f"retrieval_k must be >= 1, got {self.retrieval_k}")
        if not 0.0 < self.cluster_threshold < 1.0:
            raise ConfigError("cluster_threshold must be in (0, 1)")
        try:  # the policies own their range rules: building them applies those rules
            self.hygiene_policy()
            self.validation_policy()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.rules is not None and not Path(self.rules).exists():
            raise ConfigError(f"rules file does not exist: {self.rules}")
        if self.driver.startswith("simulated:"):
            scenario = self.driver.split(":", 1)[1]
            if not Path(scenario).exists():
                raise ConfigError(f"scenario file does not exist: {scenario}")
        elif self.driver != "real":
            raise ConfigError(f"driver must be 'real' or 'simulated:<path>', got {self.driver!r}")
        if self.generation_provider.startswith("scripted:"):
            scenario = self.generation_provider.split(":", 1)[1]
            if not Path(scenario).exists():
                raise ConfigError(f"scenario file does not exist: {scenario}")

    # -- component wiring --

    def hygiene_policy(self) -> HygienePolicy:
        return HygienePolicy(self.clean_every, self.timeout, self.no_cache)

    def validation_policy(self) -> ValidationPolicy:
        return ValidationPolicy(
            self.build_iterations,
            self.failure_threshold,
            self.max_total_attempts,
            self.feedback_similarity,
        )

    def make_engine(self) -> BuildEngine:
        if self.driver.startswith("simulated:"):
            driver = SimulatedDriver.from_file(self.driver.split(":", 1)[1])
        else:
            driver = RealCliDriver(self.build_command, self.clean_commands)
        return BuildEngine(driver, self.hygiene_policy(), Path(self.state_dir))

    def make_providers(self) -> ProviderSet:
        if self.embedding_provider == "http":
            query = HttpEmbeddingProvider(
                self.embedding_url,
                self.embedding_model,
                self.embedding_auth_env,
                dim=self.embedding_dim,
                token_limit=self.embedding_token_limit,
            )
        else:
            query = HashingEmbeddingProvider()
        if self.sentence_provider == "http":
            sentence = HttpEmbeddingProvider(
                self.sentence_url,
                self.sentence_model,
                self.sentence_auth_env,
                dim=self.sentence_dim,
                token_limit=None,
            )
        else:
            sentence = HashingEmbeddingProvider()
        if self.generation_provider.startswith("scripted:"):
            generator = ScriptedTextProvider.from_file(
                self.generation_provider.split(":", 1)[1]
            )
        elif self.generation_provider == "http":
            generator = HttpChatProvider(
                self.generation_url,
                self.generation_model,
                self.generation_auth_env,
                max_tokens=self.max_response_tokens,
            )
        else:
            generator = None
        return ProviderSet(query, sentence, generator)

    def ruleset(self) -> RuleSet:
        return RuleSet.from_file(self.rules) if self.rules else RuleSet.default()


_BOOL_VALUES = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _coerce(name: str, kind, raw: str):
    if kind is bool or name == "no_cache":
        value = _BOOL_VALUES.get(raw.strip().lower())
        if value is None:
            raise ConfigError(f"{name}: expected true/false, got {raw!r}")
        return value
    if kind is int:
        return int(raw)
    if kind is float:
        return float(raw)
    if name == "clean_commands":
        return tuple(part.strip() for part in raw.split(";") if part.strip())
    if name in ("state_dir", "rules"):
        return Path(raw)
    return raw


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from defaults, an optional file, and CLI overrides."""
    config = RunConfig()
    typed = {f.name: f.type for f in fields(RunConfig) if f.name != "extra"}
    hints = {
        "clean_every": int, "timeout": float, "no_cache": bool,
        "build_iterations": int, "failure_threshold": int,
        "max_total_attempts": int, "feedback_similarity": float,
        "cluster_threshold": float, "retrieval_k": int,
        "embedding_dim": int, "embedding_token_limit": int, "sentence_dim": int,
        "prompt_budget": int, "max_response_tokens": int,
    }
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file does not exist: {path}")
        for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in typed:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                setattr(config, key, _coerce(key, hints.get(key, str), value))
            except (ValueError, ConfigError) as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    for key, value in (overrides or {}).items():
        if value is not None:
            setattr(config, key, value)
    config.validate()
    return config
