"""Command-line entry point.

Exit codes are a stable contract: 0 ok, 1 operational error, 2 flaky
detected, 3 unresolved. With --json every command prints one JSON object
on stdout; diagnostics go to stderr either way.
"""

from __future__ import annotations

import fcntl
import json
import os
import sys
from pathlib import Path

import click

from .build_engine import STATUS_ENGINE_ERROR, STATUS_SUCCESS, BuildRecord
from .config import RunConfig, load_config
from .dockerfile_model import diff_docs, parse_dockerfile, render_diff
from .durable import append_objects, newest_line, read_input, read_lines
from .errors import EngineError, FlakiDockError
from .log_preprocess import (
    EMPTY_OUTPUT,
    classify_failure_exclusion,
    excerpt_or_tail,
    load_exclusion_filters,
    preprocess_log,
)
from .similarity import cluster_add, embed

# Importing `demo_store` or `repair_pipeline` costs about 10 ms each; the
# commands that need them import them, so that `monitor`, `preprocess` and
# `--help` start without that cost.

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FLAKY = 2
EXIT_UNRESOLVED = 3


class _Cli(click.Group):
    """The CLI's one boundary, for the console script and in-process callers
    alike: each command returns `(payload, human text, exit code)`, and
    `main` renders it, or the error, and exits with the code."""

    def main(self, args=None, prog_name=None, **extra):
        args = sys.argv[1:] if args is None else list(args)
        obj: dict = {}
        try:
            result = super().main(args, prog_name, standalone_mode=False, obj=obj, **extra)
        except (click.UsageError, click.Abort, FlakiDockError, OSError, ValueError) as exc:  # ValueError covers decode errors
            usage = isinstance(exc, click.UsageError)
            message = exc.format_message() if usage else "aborted" if isinstance(exc, click.Abort) else str(exc)
            # Click stops parsing at a usage error, maybe before --json: read the raw arguments then.
            if "--json" in args if usage else obj.get("json", "--json" in args):
                click.echo(json.dumps({"error": message}))
            else:
                click.echo(f"error: {message}", err=True)
                if usage and exc.ctx is not None:
                    click.echo(exc.ctx.get_usage(), err=True)
            sys.exit(EXIT_ERROR)
        if isinstance(result, int):  # click's own exit, as after --help
            sys.exit(result)
        payload, human, code = result
        click.echo(json.dumps(payload, indent=2, sort_keys=True, default=str) if obj["json"] else human)
        sys.exit(code)


def _lock_state(ctx: click.Context) -> None:
    """Hold an exclusive lock on the state directory until the command ends.

    The kernel drops a `flock` when its holder exits, crash included, so a
    dead run never blocks the next one. The lock file is never unlinked: a
    newcomer would lock a fresh inode beside a held one.
    """
    path = Path(ctx.obj["config"].state_dir) / ".lock"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o666)  # non-inheritable: builds never hold it
        ctx.call_on_close(lambda: os.close(fd))
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        raise FlakiDockError(f"state directory locked by another flakidock process ({path})") from None
    except OSError as exc:
        raise FlakiDockError(f"cannot lock {path}: {exc}") from exc


def _build_summary(record: BuildRecord) -> dict:
    return {
        "status": record.status,
        "exit_code": record.exit_code,
        "duration": record.duration,
        "started_at": record.started_at,
    }


def _load_doc(path: Path):
    data = read_input(path, errors=None)
    try:
        return parse_dockerfile(data)
    except FlakiDockError as exc:
        raise FlakiDockError(f"cannot parse {path}: {exc}") from exc


def _history_entry(entry: dict) -> bool:
    """Whether a journal object is a `monitor` history line: one with a status."""
    return "status" in entry


_HISTORY_TAIL = 64 * 1024  # bytes, about 300 history lines
_NOT_FAILURES = (STATUS_SUCCESS, STATUS_ENGINE_ERROR)  # an engine error is the engine's fault, not the build's


def _counted_so_far(history_file: Path, content_hash: str) -> tuple[int, int]:
    """(failures, excluded) over the history lines of `content_hash`: the tally of
    the newest such line in the last `_HISTORY_TAIL` bytes; with none, (0, 0) if
    that tail is the whole file; else, or with no well-formed tally, a whole-file fold."""
    def ours(entry):
        return _history_entry(entry) and entry.get("dockerfile_hash") == content_hash

    entry, whole = newest_line(history_file, ours, _HISTORY_TAIL)
    tally = entry and entry.get("tally")
    if type(tally) is list and list(map(type, tally)) == [int, int] and 0 <= tally[1] <= tally[0]:
        return tally[0], tally[1]
    if entry is None and whole:
        return 0, 0
    failures = [h for h in read_lines(history_file) if h is not None and ours(h) and h["status"] not in _NOT_FAILURES]
    return len(failures), sum(bool(h.get("exclusion")) for h in failures)


@click.group(cls=_Cli, no_args_is_help=False)  # no command is a usage error, as on every click version
@click.option("--config", "config_path", type=click.Path(), default=None, help="Config file (key = value lines).")
@click.option("--state-dir", type=click.Path(), default=None, help="Working state directory.")
@click.option("--driver", default=None, help="'real' or 'simulated:<scenario.json>'.")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
@click.option("--rules", type=click.Path(), default=None, help="Error-expression rules file.")
@click.pass_context
def main(ctx, config_path, state_dir, driver, as_json, rules):
    """Detect, analyze, and repair flaky container-image build definitions."""
    ctx.obj["json"] = as_json
    ctx.obj["config"] = load_config(config_path, {"state_dir": state_dir, "driver": driver, "rules": rules})


@main.command()
@click.argument("dockerfile", type=click.Path())
@click.option("--context", "context_dir", type=click.Path(), default=None, help="Build context (defaults to the Dockerfile's directory).")
@click.pass_context
def detect(ctx, dockerfile, context_dir):
    """Classify DOCKERFILE as flaky or non-flaky by repeated building."""
    from .repair_pipeline import detect_flakiness

    _lock_state(ctx)
    config: RunConfig = ctx.obj["config"]
    path = Path(dockerfile)
    doc = _load_doc(path)
    context = Path(context_dir) if context_dir else path.parent
    detection = detect_flakiness(doc, context, config.engine, config.validation, config.ruleset)
    report = {
        "verdict": "flaky" if detection.flaky else "non-flaky",
        "builds": [_build_summary(r) for r in detection.records],
    }
    if detection.flaky:
        report["excerpt"] = detection.failure_text
    human = f"verdict: {report['verdict']} ({len(detection.records)} builds)"
    return report, human, EXIT_FLAKY if detection.flaky else EXIT_OK


@main.command()
@click.argument("dockerfile", type=click.Path())
@click.option("--context", "context_dir", type=click.Path(), default=None)
@click.option("--store", "store_path", type=click.Path(), default=None, help="Demonstration store (records.jsonl). Defaults to the configured store.")
@click.option("--dry-run", is_flag=True, help="Detect, retrieve, and print the prompt without calling the generator.")
@click.pass_context
def repair(ctx, dockerfile, context_dir, store_path, dry_run):
    """Run the full repair loop on DOCKERFILE; writes <name>.repaired on success."""
    from .demo_store import builtin_store_path, load_store
    from .repair_pipeline import (
        VERDICT_IN_PROGRESS,
        VERDICT_NON_FLAKY,
        VERDICT_REPAIRED,
        VERDICT_UNRESOLVED,
        assemble_prompt,
        guess_category,
        repair_flaky_dockerfile,
        start_session,
    )

    _lock_state(ctx)  # a dry run persists its detection builds too
    config: RunConfig = ctx.obj["config"]
    path = Path(dockerfile)
    doc = _load_doc(path)
    context = Path(context_dir) if context_dir else path.parent
    providers, policy, engine = config.providers, config.validation, config.engine
    store_path = store_path if store_path is not None else config.store
    store = load_store(builtin_store_path() if store_path == "builtin" else store_path, providers.query_embedder)
    if dry_run:  # attempt 1's prompt: a full run opens its session the same way
        session = start_session(
            doc, context, store, providers, policy, engine,
            retrieval_k=config.retrieval_k,
            rules=config.ruleset,
        )
        if session.verdict == VERDICT_IN_PROGRESS:
            prompt = assemble_prompt(session, config.prompt_budget)
            retrieved = [r.id for r, _ in session.retrieved]
            return {"verdict": "dry-run", "prompt": prompt, "retrieved": retrieved}, prompt, EXIT_OK
    else:
        session_id = f"{path.stem}-{doc.content_hash[:12]}"
        session_dir = Path(config.state_dir) / "sessions" / session_id
        suffix = 2
        while session_dir.exists():  # keep earlier audit trails intact
            session_dir = session_dir.with_name(f"{session_id}-{suffix}")
            suffix += 1
        session = repair_flaky_dockerfile(
            doc, context, store, providers, policy, engine,
            retrieval_k=config.retrieval_k,
            rules=config.ruleset,
            session_dir=session_dir,
            prompt_budget=config.prompt_budget,
            repaired_path=path.with_name(path.name + ".repaired"),
        )
    summary = {
        "verdict": session.verdict,
        "attempts_used": session.attempts_used,
        "retrieved": [record.id for record, _ in session.retrieved],
        "category_guess": guess_category(session).value,
        "session_dir": str(session.session_dir) if session.session_dir else None,
    }
    if session.verdict == VERDICT_NON_FLAKY:
        summary["note"] = "non-flaky"
        return summary, "non-flaky; nothing to repair", EXIT_OK
    if session.verdict == VERDICT_REPAIRED:
        summary["repaired_file"] = str(session.repaired_path)
        diff = render_diff(diff_docs(doc, parse_dockerfile(session.final_dockerfile)))
        return summary, f"repaired after {session.attempts_used} attempt(s):\n{diff}", EXIT_OK
    if session.verdict == VERDICT_UNRESOLVED:
        return summary, f"unable to resolve after {session.attempts_used} attempt(s)", EXIT_UNRESOLVED
    raise FlakiDockError(f"session aborted: {session.verdict}: {session.abort_reason}")


@main.command()
@click.argument("log_dir", type=click.Path())
@click.pass_context
def cluster(ctx, log_dir):
    """Cluster the failing build logs in LOG_DIR by error similarity."""
    config: RunConfig = ctx.obj["config"]
    directory = Path(log_dir)
    if not directory.is_dir():
        raise FlakiDockError(f"no such directory: {directory}")
    files = sorted(p for p in directory.iterdir() if p.is_file())
    if not files:
        raise FlakiDockError(f"no log files in {directory}")
    state = []
    for log_file in files:
        text = read_input(log_file, errors="replace")
        excerpt = excerpt_or_tail(text, preprocess_log(text, config.ruleset))
        vec = embed(excerpt, config.providers.sentence_embedder)
        state, _ = cluster_add(state, log_file.name, vec, config.cluster_threshold)
    report = {
        "inputs": len(files),
        "clusters": [
            {"id": c.id, "members": list(c.member_ids)} for c in state
        ],
        "reduction": 1.0 - len(state) / len(files),
    }
    human = f"{len(files)} logs -> {len(state)} clusters (reduction {report['reduction']:.2f})"
    return report, human, EXIT_OK


@main.command()
@click.argument("manifest", type=click.Path())
@click.option("--rounds", type=click.IntRange(min=0), required=True, help="Builds per project in this invocation.")
@click.pass_context
def monitor(ctx, manifest, rounds):
    """Build every project in MANIFEST repeatedly and track failure history.

    MANIFEST lists one `name context_dir` pair per line (# comments allowed).
    """
    _lock_state(ctx)
    config: RunConfig = ctx.obj["config"]
    manifest_path = Path(manifest)
    manifest_text = read_input(manifest_path)
    projects: dict[str, Path] = {}
    for lineno, raw in enumerate(manifest_text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise FlakiDockError(f"{manifest_path}:{lineno}: expected 'name context_dir'")
        name = parts[0]
        if name in (".", "..") or "/" in name or "\0" in name:  # names history/<name>.jsonl
            raise FlakiDockError(f"{manifest_path}:{lineno}: project name {name!r} is not one plain path component")
        if name in projects:  # its series would share, and overwrite, one report entry
            raise FlakiDockError(f"{manifest_path}:{lineno}: duplicate project name {name!r}")
        projects[name] = Path(parts[1])

    history_dir = Path(config.state_dir) / "history"
    history_dir.mkdir(parents=True, exist_ok=True)
    filters = load_exclusion_filters()
    engine = config.engine  # one engine: series run one after another
    summary = {}
    for name, context in projects.items():
        entry = {"builds": 0, "failures": 0, "excluded": 0, "errors": []}
        summary[name] = entry
        doc = None
        records: list[BuildRecord] = []
        try:
            doc = _load_doc(context / "Dockerfile")
            records = engine.run_build_series(doc, context, rounds)
        except (OSError, FlakiDockError) as exc:
            entry["errors"].append(str(exc))  # record and keep going
            if isinstance(exc, EngineError):
                records = exc.records  # every build the engine ran, the failed one last
        # Flakiness is judged on an unchanged Dockerfile: only the builds of the file
        # read now count. Each line carries its hash's running count: add to it.
        history_file = history_dir / f"{name}.jsonl"
        failures, excluded = _counted_so_far(history_file, doc.content_hash) if doc is not None else (0, 0)
        appended = []
        for record in records:
            exclusion = None
            if not record.succeeded:
                excerpt = preprocess_log(record.log, config.ruleset).as_text()
                exclusion = classify_failure_exclusion(excerpt or record.log, filters)
                if record.status not in _NOT_FAILURES:
                    failures += 1
                    excluded += bool(exclusion)
            appended.append({"status": record.status, "started_at": record.started_at,
                             "duration": record.duration, "exclusion": exclusion,
                             "dockerfile_hash": record.dockerfile_hash, "tally": [failures, excluded]})
        append_objects(history_file, appended)  # one write per project
        entry["builds"] = len(records)
        entry["failures"] = failures
        entry["excluded"] = excluded
        entry["flaky_candidate"] = failures > excluded
    report = {
        "projects": summary,
        "flaky_candidates": sorted(
            name for name, entry in summary.items() if entry.get("flaky_candidate")
        ),
        "cleanups_performed": engine.cleanups_performed,
    }
    human = "\n".join(
        f"{name}: builds={e['builds']} failures={e['failures']} "
        f"excluded={e['excluded']} flaky_candidate={e.get('flaky_candidate', False)}"
        for name, e in summary.items()
    )
    return report, human or "no projects", EXIT_OK


@main.command()
@click.argument("logfile", type=click.Path())
@click.pass_context
def preprocess(ctx, logfile):
    """Print the error-focused excerpt of a raw build log (debugging aid)."""
    config: RunConfig = ctx.obj["config"]
    result = preprocess_log(read_input(Path(logfile), errors="replace"), config.ruleset)
    payload = {
        "stages": result.stages,
        "total_lines_in": result.total_lines_in,
        "total_lines_out": result.total_lines_out,
        "rule_hits": result.rule_hits,
        "excerpt": result.as_text(),
    }
    return payload, result.as_text(), EXIT_OK


@main.group(no_args_is_help=False)
def dataset():
    """Inspect and extend demonstration stores."""


@dataset.command("validate")
@click.argument("store_path", type=click.Path())
@click.pass_context
def dataset_validate(ctx, store_path):
    """Validate every record in a store against the schema."""
    from .demo_store import load_store

    index = load_store(store_path, ctx.obj["config"].providers.query_embedder)
    return {"valid": True, "records": len(index)}, f"ok: {len(index)} valid records", EXIT_OK


@dataset.command("stats")
@click.argument("store_path", type=click.Path())
@click.pass_context
def dataset_stats(ctx, store_path):
    """Per-category record counts and fractions."""
    from .demo_store import category_stats, load_store

    index = load_store(store_path, ctx.obj["config"].providers.query_embedder)
    stats = category_stats(index)
    payload = {
        "records": len(index),
        "categories": {
            major.value: {"count": share.count, "fraction": share.fraction}
            for major, share in stats.items()
        },
    }
    human = "\n".join(
        f"{major.value}: {share.count} ({share.fraction:.1%})"
        for major, share in stats.items()
    )
    return payload, human or "empty store", EXIT_OK


@dataset.command("add")
@click.argument("store_path", type=click.Path())
@click.option("--id", "record_id", required=True)
@click.option("--dockerfile", "dockerfile_path", type=click.Path(), required=True)
@click.option("--log", "log_path", type=click.Path(), required=True, help="Raw failing build log (preprocessed on ingest).")
@click.option("--category", required=True, help="e.g. 'DEP/Versioning Issues' or 'MISC'.")
@click.option("--repair", "repair_paths", type=click.Path(), multiple=True, required=True)
@click.option("--iterations", default=None, help="Comma-separated validation build counts, one per repair (default 2 each).")
@click.pass_context
def dataset_add(ctx, store_path, record_id, dockerfile_path, log_path, category, repair_paths, iterations):
    """Append one demonstration record to a store (created if missing)."""
    from .demo_store import (
        DemonstrationIndex,
        DemonstrationRecord,
        FlakinessCategory,
        load_store,
        save_store,
        store_files,
    )

    _lock_state(ctx)  # adds through one state directory run one at a time
    config: RunConfig = ctx.obj["config"]
    providers = config.providers
    # The inputs are read and checked before the store loads.
    parsed_category = FlakinessCategory.from_string(category)
    static_part = read_input(Path(dockerfile_path))
    raw_log = read_input(Path(log_path), errors="replace")
    repairs = tuple(read_input(Path(p)) for p in repair_paths)
    if not raw_log.strip():
        raise FlakiDockError(f"{log_path}: empty build log")
    dynamic = excerpt_or_tail(raw_log, preprocess_log(raw_log, config.ruleset))
    if dynamic == EMPTY_OUTPUT:
        raise FlakiDockError(f"{log_path}: no failure text: no rule hit and a blank last 2000 characters")
    if iterations:
        try:
            counts = tuple(int(v) for v in iterations.split(","))
        except ValueError:
            raise FlakiDockError(f"--iterations must be comma-separated integers, got {iterations!r}") from None
    else:
        counts = tuple(config.build_iterations for _ in repair_paths)
    index = load_store(store_path, providers.query_embedder) if store_files(store_path)[0].exists() else DemonstrationIndex([])
    record = DemonstrationRecord(
        id=record_id,
        static_part=static_part,
        dynamic_part=dynamic,
        category=parsed_category,
        repairs=repairs,
        iterations=counts,
    )
    index.add(record, providers.query_embedder)
    save_store(index, store_path)
    human = f"added {record_id!r}; store now holds {len(index)} records"
    return {"added": record_id, "records": len(index)}, human, EXIT_OK


if __name__ == "__main__":
    main.main()
