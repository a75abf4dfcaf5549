"""Container-image build execution behind a pluggable driver.

The real driver shells out to the engine CLI with caching disabled; the
simulated driver replays scripted outcomes and is the deterministic test
backbone for every downstream module. The engine enforces the hygiene
policy: a timeout per build and a full cleanup after every N builds, since
stale engine state is itself a source of spurious failures.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import shlex
import subprocess
import tempfile
import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .dockerfile_model import DockerfileDoc
from .durable import append_line
from .errors import EngineError

log = logging.getLogger(__name__)

STATUS_SUCCESS = "success"
STATUS_FAILURE = "failure"
STATUS_TIMEOUT = "timeout"
STATUS_ENGINE_ERROR = "engine-error"
_SCRIPTED_STATUSES = (STATUS_SUCCESS, STATUS_FAILURE, STATUS_TIMEOUT, STATUS_ENGINE_ERROR)

DEFAULT_BUILD_TEMPLATE = "docker build {no_cache} -f {dockerfile} {context}"
DEFAULT_CLEAN_COMMANDS = (
    "docker builder prune -af",
    "docker image prune -f",
    "docker container prune -f",
)


@dataclass(frozen=True)
class HygienePolicy:
    clean_every: int = 4  # builds between full cleanups
    timeout: float = 1800.0  # seconds per build
    no_cache: bool = True

    def __post_init__(self):
        if self.clean_every < 1:
            raise ValueError(f"clean_every must be >= 1, got {self.clean_every}")
        if not 0 < self.timeout < math.inf:  # also false for NaN
            raise ValueError(f"timeout must be a finite number > 0, got {self.timeout}")


@dataclass(frozen=True)
class BuildRecord:
    dockerfile_hash: str
    log: str
    status: str
    exit_code: int | None
    duration: float
    started_at: str  # UTC ISO-8601
    driver_id: str

    @property
    def succeeded(self) -> bool:
        return self.status == STATUS_SUCCESS


@dataclass(frozen=True)
class DriverOutcome:
    status: str
    log: str
    exit_code: int | None
    duration: float


class DriverFailure(Exception):
    """Raised by drivers for failures of the engine itself."""


class BuildDriver(ABC):
    driver_id: str

    @abstractmethod
    def build(
        self, dockerfile_text: str, context_dir: Path, *, no_cache: bool, timeout: float
    ) -> DriverOutcome:
        """Run one build; never raises for ordinary build failures."""

    @abstractmethod
    def clean(self) -> None:
        """Prune build cache, dangling images, and stopped containers."""


@dataclass
class ScriptedOutcome:
    status: str
    log: str = ""
    exit_code: int | None = None
    duration: float = 1.0


@dataclass
class BuildScript:
    """Outcome list for documents containing `match` (None = default)."""

    match: str | None
    outcomes: list[ScriptedOutcome]


class SimulatedDriver(BuildDriver):
    """Deterministic replay driver.

    Each build consumes the next outcome of the first script whose match
    substring occurs in the document (the matchless script is the default);
    the last outcome repeats once a script is exhausted. Cleanups are
    counted, never executed.
    """

    driver_id = "simulated"

    def __init__(self, scripts: list[BuildScript]):
        self.scripts = scripts
        self.cleanups = 0
        self.builds_run = 0
        self._positions: dict[int, int] = {}

    @classmethod
    def from_file(cls, path) -> "SimulatedDriver":
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            scripts = [
                BuildScript(entry.get("match"), [
                    ScriptedOutcome(o["status"], o.get("log", ""), o.get("exit_code"),
                                    float(o.get("duration", 1.0)))
                    for o in entry.get("outcomes", [])
                ])
                for entry in payload.get("builds", [])
            ]
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"{path}: malformed scenario file: {exc!r}") from exc
        if not scripts:
            raise ValueError(f"{path}: scenario file has no 'builds' scripts")
        if any(not s.outcomes for s in scripts):  # a build would have no outcome to replay
            raise ValueError(f"{path}: malformed scenario file: a build script has no outcomes")
        unknown = next(
            (o.status for s in scripts for o in s.outcomes if o.status not in _SCRIPTED_STATUSES), None
        )
        if unknown is not None:  # a typo would otherwise replay as a plain failure
            raise ValueError(
                f"{path}: malformed scenario file: unknown status {unknown!r}, "
                f"expected one of {', '.join(_SCRIPTED_STATUSES)}"
            )
        if not all(math.isfinite(o.duration) for s in scripts for o in s.outcomes):
            # The build journal is JSON, which has no NaN or infinity.
            raise ValueError(f"{path}: malformed scenario file: a duration is not a finite number")
        return cls(scripts)

    def _select(self, dockerfile_text: str) -> tuple[int, BuildScript]:
        for idx, script in enumerate(self.scripts):
            if script.match is not None and script.match in dockerfile_text:
                return idx, script
        for idx, script in enumerate(self.scripts):
            if script.match is None:
                return idx, script
        raise DriverFailure("no build script matches the document and no default exists")

    def build(
        self, dockerfile_text: str, context_dir: Path, *, no_cache: bool, timeout: float
    ) -> DriverOutcome:
        idx, script = self._select(dockerfile_text)
        pos = self._positions.get(idx, 0)
        outcome = script.outcomes[min(pos, len(script.outcomes) - 1)]
        self._positions[idx] = pos + 1
        self.builds_run += 1
        if outcome.status == STATUS_ENGINE_ERROR:
            raise DriverFailure(outcome.log or "scripted engine error")
        if outcome.status == STATUS_TIMEOUT or outcome.duration >= timeout:
            return DriverOutcome(
                STATUS_TIMEOUT, outcome.log, None, max(outcome.duration, timeout)
            )
        if outcome.status == STATUS_SUCCESS:
            return DriverOutcome(STATUS_SUCCESS, outcome.log, 0, outcome.duration)
        exit_code = outcome.exit_code if outcome.exit_code is not None else 1
        return DriverOutcome(STATUS_FAILURE, outcome.log, exit_code, outcome.duration)

    def clean(self) -> None:
        self.cleanups += 1


class RealCliDriver(BuildDriver):
    """Shells out to the container engine CLI with a configurable template.

    Build output is captured merged (stdout and stderr interleave in real
    engine progress output); stage markers, not stream identity, drive the
    downstream parsing.
    """

    driver_id = "real"

    def __init__(
        self,
        build_template: str = DEFAULT_BUILD_TEMPLATE,
        clean_commands: tuple[str, ...] = DEFAULT_CLEAN_COMMANDS,
    ):
        self.build_template = build_template
        self.clean_commands = clean_commands

    def build(
        self, dockerfile_text: str, context_dir: Path, *, no_cache: bool, timeout: float
    ) -> DriverOutcome:
        context_dir = Path(context_dir)
        start = time.monotonic()
        with tempfile.NamedTemporaryFile(
            "w",
            dir=context_dir,
            prefix=".flakidock-",
            suffix=".Dockerfile",
            delete=False,
            encoding="utf-8",
        ) as tmp:
            tmp.write(dockerfile_text)
            dockerfile_path = Path(tmp.name)
        command = self.build_template.format(
            no_cache="--no-cache" if no_cache else "",
            dockerfile=shlex.quote(str(dockerfile_path)),
            context=shlex.quote(str(context_dir)),
        )
        try:
            proc = subprocess.run(
                shlex.split(command),
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                timeout=timeout,
                text=True,
                errors="replace",
            )
            duration = time.monotonic() - start
            status = STATUS_SUCCESS if proc.returncode == 0 else STATUS_FAILURE
            return DriverOutcome(status, proc.stdout or "", proc.returncode, duration)
        except subprocess.TimeoutExpired as exc:
            duration = max(time.monotonic() - start, timeout)
            partial = exc.stdout or b""
            if isinstance(partial, bytes):
                partial = partial.decode("utf-8", errors="replace")
            return DriverOutcome(STATUS_TIMEOUT, partial, None, duration)
        except OSError as exc:
            raise DriverFailure(f"cannot invoke build command: {exc}") from exc
        finally:
            dockerfile_path.unlink(missing_ok=True)

    def clean(self) -> None:
        for command in self.clean_commands:
            try:
                proc = subprocess.run(
                    shlex.split(command),
                    stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT,
                    timeout=600,
                    text=True,
                )
            except (OSError, subprocess.TimeoutExpired) as exc:
                raise DriverFailure(f"cleanup command failed: {command}: {exc}") from exc
            if proc.returncode != 0:
                raise DriverFailure(
                    f"cleanup command exited {proc.returncode}: {command}"
                )


@dataclass
class BuildEngine:
    """Sequential build series with hygiene cadence and persistence.

    A series for one document is strictly sequential. A lock keeps two
    cleanups of one engine from overlapping; it does not wait for builds in
    flight, so a build running beside a cleanup may lose its engine state.
    The cleanup cadence counts every series build of the engine, whichever
    document it built.

    Each build appends one JSON line, its log inline, to `builds.jsonl` in
    the build's directory: `persist_dir` when given, else
    `<state_dir>/builds/<dockerfile hash>`. A record's number is its line
    number; a line torn by a crash keeps its number and holds no record.
    """

    driver: BuildDriver
    policy: HygienePolicy = field(default_factory=HygienePolicy)
    state_dir: Path | None = None

    def __post_init__(self):
        self._cleanup_lock = threading.Lock()
        self.cleanups_performed = 0
        self._series_builds = itertools.count(1)

    def build_once(
        self, doc: DockerfileDoc, context_dir, persist_dir: Path | None = None
    ) -> BuildRecord:
        """Run a single build and persist its record.

        Driver-level failures are recorded with engine-error status and then
        re-raised as EngineError so callers can distinguish them from plain
        build failures.
        """
        started_at = datetime.now(timezone.utc).isoformat()
        doc_hash = doc.content_hash
        start = time.monotonic()
        try:
            outcome = self.driver.build(
                doc.raw_text,
                Path(context_dir),
                no_cache=self.policy.no_cache,
                timeout=self.policy.timeout,
            )
        except DriverFailure as exc:
            record = BuildRecord(
                dockerfile_hash=doc_hash,
                log=str(exc),
                status=STATUS_ENGINE_ERROR,
                exit_code=None,
                duration=time.monotonic() - start,
                started_at=started_at,
                driver_id=self.driver.driver_id,
            )
            self._persist(record, persist_dir)
            raise EngineError(str(exc), record=record) from exc
        record = BuildRecord(
            dockerfile_hash=doc_hash,
            log=outcome.log,
            status=outcome.status,
            exit_code=outcome.exit_code,
            duration=outcome.duration,
            started_at=started_at,
            driver_id=self.driver.driver_id,
        )
        self._persist(record, persist_dir)
        return record

    def run_build_series(
        self,
        doc: DockerfileDoc,
        context_dir,
        count: int,
        stop_on_failure: bool = False,
        persist_dir: Path | None = None,
    ) -> list[BuildRecord]:
        """Build a document `count` times with the hygiene cadence.

        Cleanup runs after every `policy.clean_every` builds that this
        engine's series have executed, counted across series. On a
        driver-level failure the records gathered so far travel with the
        EngineError.
        """
        records: list[BuildRecord] = []
        for _ in range(count):
            try:
                record = self.build_once(doc, context_dir, persist_dir=persist_dir)
            except EngineError as exc:
                exc.records = records + ([exc.record] if exc.record else [])
                raise
            records.append(record)
            if next(self._series_builds) % self.policy.clean_every == 0:
                try:
                    self.clean_environment()
                except EngineError as exc:
                    log.warning("cleanup failed (continuing the series): %s", exc)
            if stop_on_failure and not record.succeeded:
                break
        return records

    def clean_environment(self) -> None:
        """Request a driver-level prune of caches, images, and containers."""
        with self._cleanup_lock:
            try:
                self.driver.clean()
            except DriverFailure as exc:
                raise EngineError(f"cleanup failed: {exc}") from exc
            self.cleanups_performed += 1

    def _persist(self, record: BuildRecord, persist_dir: Path | None) -> None:
        base = persist_dir
        if base is None and self.state_dir is not None:
            base = Path(self.state_dir) / "builds" / record.dockerfile_hash
        if base is None:
            return
        base.mkdir(parents=True, exist_ok=True)
        # ASCII JSON: a lone surrogate in a log becomes an escape.
        line = json.dumps(vars(record), sort_keys=True) + "\n"
        append_line(base / "builds.jsonl", line.encode("ascii"))
