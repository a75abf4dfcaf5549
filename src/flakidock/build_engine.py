"""Container-image build execution behind a pluggable driver.

The real driver shells out to the engine CLI with caching disabled; the
simulated driver replays scripted outcomes and is the deterministic test
backbone for every downstream module. The script types check what they
hold; `config` reads a scenario file's `builds` into them. The engine
enforces the hygiene policy: a timeout per build and a full cleanup after
every N builds, since stale engine state is itself a source of spurious
failures.
"""

from __future__ import annotations

import contextlib
import hashlib
import logging
import math
import os
import shlex
import signal
import subprocess
import tempfile
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .dockerfile_model import DockerfileDoc
from .durable import append_objects
from .errors import EngineError
from .log_preprocess import LOG_TAIL_CHARS

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


class BuildDriver(ABC):
    driver_id: str

    @abstractmethod
    def build(self, dockerfile_text: str, context_dir: Path, *, no_cache: bool, timeout: float) -> DriverOutcome:
        """Run one build; never raises for ordinary build failures.

        Raises EngineError for a failure of the engine itself.
        """

    @abstractmethod
    def clean(self) -> None:
        """Prune build cache, dangling images, and stopped containers.

        Raises EngineError when the engine cannot.
        """


@dataclass(frozen=True)
class ScriptedOutcome:
    status: str
    log: str = ""
    exit_code: int | None = None
    duration: float = 1.0

    def __post_init__(self):
        if self.status not in _SCRIPTED_STATUSES:  # a typo would otherwise replay as a plain failure
            raise ValueError(
                f"unknown status {self.status!r}, expected one of {', '.join(_SCRIPTED_STATUSES)}"
            )
        duration = self.duration  # the build journal is JSON, which has no NaN or infinity; a bool is no number
        if type(duration) is bool or not isinstance(duration, (int, float)) or not math.isfinite(duration):
            raise ValueError(f"duration {duration!r} is not a finite number")
        object.__setattr__(self, "duration", float(duration))  # an int journals as a float
        if not isinstance(self.log, str):  # a failed build's log is preprocessed as text
            raise ValueError(f"log is {type(self.log).__name__}, not str")
        if self.exit_code is not None and type(self.exit_code) is not int:  # every driver journals an int or null
            raise ValueError(f"exit_code is {type(self.exit_code).__name__}, not int or null")


@dataclass(frozen=True)
class BuildScript:
    """Outcomes for documents containing `match` (None = default)."""

    match: str | None
    outcomes: tuple[ScriptedOutcome, ...]  # any iterable, held as a tuple

    def __post_init__(self):
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        if not self.outcomes:  # a build would have no outcome to replay
            raise ValueError("a build script has no outcomes")
        if not isinstance(self.match, (str, type(None))):  # it is looked for in Dockerfile text
            raise ValueError(f"match is {type(self.match).__name__}, not str or null")


class SimulatedDriver(BuildDriver):
    """Deterministic replay driver.

    Each build consumes the next outcome of the first script whose match
    substring occurs in the document (the matchless script is the default);
    the last outcome repeats once a script is exhausted. Cleanups are
    counted, never executed.
    """

    driver_id = "simulated"

    def __init__(self, scripts: list[BuildScript]):
        if not scripts:  # a build would have no script to replay
            raise ValueError("a simulated driver has no build scripts")
        self.scripts = scripts
        self.cleanups = 0
        self.builds_run = 0
        self._positions: dict[int, int] = {}

    def _select(self, dockerfile_text: str) -> tuple[int, BuildScript]:
        for idx, script in enumerate(self.scripts):
            if script.match is not None and script.match in dockerfile_text:
                return idx, script
        for idx, script in enumerate(self.scripts):
            if script.match is None:
                return idx, script
        raise EngineError("no build script matches the document and no default exists")

    def build(self, dockerfile_text: str, context_dir: Path, *, no_cache: bool, timeout: float) -> DriverOutcome:
        idx, script = self._select(dockerfile_text)
        pos = self._positions.get(idx, 0)
        outcome = script.outcomes[min(pos, len(script.outcomes) - 1)]
        self._positions[idx] = pos + 1
        self.builds_run += 1
        if outcome.status == STATUS_ENGINE_ERROR:
            raise EngineError(outcome.log or "scripted engine error")
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


def _split_command(command: str) -> list[str]:
    """The command's arguments, split as a shell would; ValueError for an open quote or no command."""
    args = shlex.split(command)
    if not args:
        raise ValueError("no command")
    return args


def _run(command: str, timeout: float) -> tuple[int, str]:
    """`command`'s exit code and merged output, decoded as UTF-8 with bad bytes
    replaced; read as bytes, it keeps its "\\r" and "\\r\\n" line ends. It runs in a
    session of its own, whose whole process group is killed on a timeout
    (TimeoutExpired) or any other exception, Ctrl-C included."""
    with subprocess.Popen(shlex.split(command), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          start_new_session=True) as proc:
        try:
            output = proc.communicate(timeout=timeout)[0]
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)  # before the reap: the leader's pid names the group until then
            proc.wait()
            raise
    return proc.returncode, output.decode("utf-8", errors="replace")


class RealCliDriver(BuildDriver):
    """Shells out to the container engine CLI with a configurable template.

    Build output is captured merged (stdout and stderr interleave in real
    engine progress output); stage markers, not stream identity, drive the
    downstream parsing.
    """

    driver_id = "real"

    def __init__(self, build_command: str = DEFAULT_BUILD_TEMPLATE,
                 clean_commands: tuple[str, ...] = DEFAULT_CLEAN_COMMANDS):
        """Raises ValueError for a command that would fail every build or cleanup."""
        self.build_command = build_command
        self.clean_commands = clean_commands
        try:  # with an empty no_cache, which an index into the field fails on
            _split_command(self._command(Path("Dockerfile"), Path("."), no_cache=False))
        except (LookupError, AttributeError, ValueError) as exc:  # another field, a lone brace, an open quote
            raise ValueError(f"build_command {build_command!r}: {type(exc).__name__}: {exc} (its fields are "
                             "{no_cache}, {dockerfile} and {context}; {{ and }} stand for a brace)") from None
        for command in clean_commands:
            try:
                _split_command(command)
            except ValueError as exc:
                raise ValueError(f"clean_commands entry {command!r}: {exc}") from None

    def _command(self, dockerfile: Path, context_dir: Path, no_cache: bool) -> str:
        return self.build_command.format(no_cache="--no-cache" if no_cache else "",
                                         dockerfile=shlex.quote(str(dockerfile)),
                                         context=shlex.quote(str(context_dir)))

    def build(self, dockerfile_text: str, context_dir: Path, *, no_cache: bool, timeout: float) -> DriverOutcome:
        context_dir = Path(context_dir)
        # In the temporary directory, not the context: the engine would upload
        # the file with the context, and a context may be read-only.
        temp_dir, context = Path(tempfile.gettempdir()).resolve(), context_dir.resolve()
        if temp_dir.is_relative_to(context):
            raise EngineError(f"temporary directory {temp_dir} is inside the build context {context}: "
                              "set TMPDIR to a directory outside it")
        start = time.monotonic()
        with tempfile.NamedTemporaryFile("w", prefix="flakidock-", suffix=".Dockerfile", delete=False,
                                         encoding="utf-8") as tmp:
            tmp.write(dockerfile_text)
            dockerfile_path = Path(tmp.name)
        try:  # formatted inside the try that removes the file it names
            code, output = _run(self._command(dockerfile_path, context_dir, no_cache), timeout)
            status = STATUS_SUCCESS if code == 0 else STATUS_FAILURE
            return DriverOutcome(status, output, code, time.monotonic() - start)
        except subprocess.TimeoutExpired as exc:  # it holds the output so far as bytes
            partial = (exc.output or b"").decode("utf-8", errors="replace")
            return DriverOutcome(STATUS_TIMEOUT, partial, None, max(time.monotonic() - start, timeout))
        except OSError as exc:
            raise EngineError(f"cannot invoke build command: {exc}") from exc
        finally:
            dockerfile_path.unlink(missing_ok=True)

    def clean(self) -> None:
        for command in self.clean_commands:
            try:
                code, _ = _run(command, 600)
            except (OSError, subprocess.TimeoutExpired) as exc:
                raise EngineError(f"cleanup command failed: {command}: {exc}") from exc
            if code != 0:
                raise EngineError(f"cleanup command exited {code}: {command}")


@dataclass
class BuildEngine:
    """Sequential build series with hygiene cadence and persistence.

    Builds run one at a time: an engine is not used from a second thread
    while one builds or cleans. The cleanup cadence counts every series
    build of the engine, whichever document it built.

    Each build appends one JSON line, `_journal_line` of its record, to
    `builds.jsonl` in the build's directory: `persist_dir` when given, else
    `<state_dir>/builds/<dockerfile hash>`. A record's number is its line
    number; a line torn by a crash keeps its number and holds no record:
    `durable.read_lines` reads the journal by that rule.
    """

    driver: BuildDriver
    policy: HygienePolicy = field(default_factory=HygienePolicy)
    state_dir: Path | None = None

    def __post_init__(self):
        self.cleanups_performed = 0
        self._series_builds = 0
        self._builds_root = None if self.state_dir is None else f"{self.state_dir}/builds"

    def build_once(
        self, doc: DockerfileDoc, context_dir, persist_dir: Path | None = None
    ) -> BuildRecord:
        """Run a single build and persist its record.

        A driver's EngineError is recorded with engine-error status and
        re-raised carrying that record, so callers can tell it from a plain
        build failure.
        """
        started_at = datetime.now(timezone.utc).isoformat()
        start = time.monotonic()
        try:
            outcome = self.driver.build(
                doc.raw_text,
                Path(context_dir),
                no_cache=self.policy.no_cache,
                timeout=self.policy.timeout,
            )
        except EngineError as exc:
            outcome = DriverOutcome(STATUS_ENGINE_ERROR, str(exc), None, time.monotonic() - start)
            exc.records = [self._persist(doc, outcome, started_at, persist_dir)]
            raise
        return self._persist(doc, outcome, started_at, persist_dir)

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
                exc.records = records + exc.records
                raise
            records.append(record)
            self._series_builds += 1
            if self._series_builds % self.policy.clean_every == 0:
                try:
                    self.clean_environment()
                except EngineError as exc:
                    log.warning("cleanup failed (continuing the series): %s", exc)
            if stop_on_failure and not record.succeeded:
                break
        return records

    def clean_environment(self) -> None:
        """Request a driver-level prune of caches, images, and containers."""
        self.driver.clean()
        self.cleanups_performed += 1

    def _persist(
        self, doc: DockerfileDoc, outcome: DriverOutcome, started_at: str, persist_dir: Path | None
    ) -> BuildRecord:
        """The build's record; its journal line is appended to the build
        directory's journal, which the directory's first build makes."""
        record = BuildRecord(
            dockerfile_hash=doc.content_hash,
            log=outcome.log,
            status=outcome.status,
            exit_code=outcome.exit_code,
            duration=outcome.duration,
            started_at=started_at,
            driver_id=self.driver.driver_id,
        )
        if persist_dir is None and self._builds_root is not None:
            persist_dir = f"{self._builds_root}/{record.dockerfile_hash}"
        if persist_dir is not None:
            journal, lines = f"{persist_dir}/builds.jsonl", [_journal_line(record)]
            try:
                append_objects(journal, lines)
            except FileNotFoundError:  # no directory yet
                os.makedirs(persist_dir, exist_ok=True)
                append_objects(journal, lines)
        return record


def _journal_line(record: BuildRecord) -> dict:
    """A build's journal line: its record's fields, where a success keeps only its
    log's last LOG_TAIL_CHARS characters, with the whole log's UTF-8 size and
    sha256 as `log_bytes` and `log_sha256`; any other build keeps its whole log."""
    if not record.succeeded:
        return vars(record)
    data = record.log.encode("utf-8", "surrogatepass")  # a lone surrogate has no strict UTF-8 form
    return dict(vars(record), log=record.log[-LOG_TAIL_CHARS:], log_bytes=len(data),
                log_sha256=hashlib.sha256(data).hexdigest())
