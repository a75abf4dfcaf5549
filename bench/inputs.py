"""Seeded synthetic inputs for the benchmark workloads.

Every generator is a pure function of its seed: the same seed gives the same
texts, plans and vectors. Seeds change content only; sizes and the mix of
log shapes and session plans are fixed per pass, so the amount of work a
pass does is the same for every seed and every commit.

Nothing here imports the program under test.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

import numpy as np

# --- failure families ------------------------------------------------------
#
# Each family is one failure cause. Its error lines carry the text that
# identifies it; everything else in a log is family-neutral progress output.
# `exclusion` names the shipped exclusion filter the family's excerpt must
# trip (None: it counts toward flakiness).


@dataclass(frozen=True)
class Family:
    name: str
    image: str
    step: str
    style: str  # key of PROGRESS: the progress output its tool prints
    errors: tuple[str, ...]
    exit_code: int
    category: str
    exclusion: str | None = None


FAMILIES = (
    Family(
        "npm-e404", "node:18-alpine", "RUN npm install", "npm",
        (
            "npm ERR! code E404",
            "npm ERR! 404 Not Found - GET https://registry.npmjs.org/{p}/-/{p}-{a}.{b}.{c}.tgz",
            "npm ERR! 404 '{p}@{a}.{b}.{c}' is not in this registry.",
        ),
        1, "DEP/Versioning Issues",
    ),
    Family(
        "apt-fetch", "debian:bookworm", "RUN apt-get install -y libssl-dev", "apt",
        (
            "E: Failed to fetch http://deb.debian.org/debian/pool/main/o/openssl/libssl-dev_{a}.{b}.{c}_amd64.deb  404  Not Found",
            "E: Unable to fetch some archives, maybe run apt-get update or try with --fix-missing?",
        ),
        100, "DEP/Versioning Issues",
    ),
    Family(
        "pep668", "alpine:3.19", "RUN pip3 install -r requirements.txt", "pip",
        (
            "error: externally-managed-environment",
            "ERROR: Could not install {p}=={a}.{b} into the externally managed system interpreter",
        ),
        1, "ENV/Environment Management Issues",
    ),
    Family(
        "curl-timeout", "ubuntu:22.04", "RUN curl -fSL https://dl.example.com/tool.tgz -o /tmp/tool.tgz", "curl",
        (
            "curl: (28) Failed to connect to dl.example.com port 443 after {a}{b}{c} ms: Timeout was reached",
            "curl failed with status 28 while downloading tool-{a}.{b}.tgz",
        ),
        28, "CON",
    ),
    Family(
        "gpg-nopubkey", "debian:bullseye", "RUN apt-get update", "apt",
        (
            "W: GPG error: https://deb.example.com stable InRelease: NO_PUBKEY {h}",
            "E: The repository 'https://deb.example.com stable InRelease' is not signed.",
        ),
        100, "SEC",
    ),
    Family(
        "go-redeclared", "golang:1.{a}", "RUN go build -o proxy ./cmd/proxy", "go",
        (
            "go build failed: /go/src/golang.org/x/net/context/pre_go17.go:{a}:2: background redeclared in this block",
            "go: error loading module golang.org/x/net@v0.{b}.{c}: conflicting declarations",
        ),
        2, "DEP/Compatibility Issues",
    ),
    Family(
        "git-resolve", "alpine/git", "RUN git clone https://github.com/acme/{p}.git", "git",
        (
            "fatal: unable to access 'https://github.com/acme/{p}.git/': Could not resolve host: github.com",
        ),
        128, "CON",
    ),
    Family(
        "copy-missing", "nginx:1.{a}", "COPY artifacts/bundle.tar /srv/", "layers",
        (
            "COPY failed: file not found in build context or excluded by .dockerignore: stat artifacts/{p}-{a}.tar: file does not exist",
        ),
        1, "FS",
    ),
    Family(
        "mysql-socket", "mysql:8.{a}", "RUN service mysql start && mysql_upgrade", "mysql",
        (
            "mysql_upgrade: Got error: 2002: Can't connect to local MySQL server through socket '/var/run/mysqld/mysqld.sock' ({a})",
        ),
        1, "ENV",
    ),
    Family(
        "yarn-integrity", "node:20", "RUN yarn install --frozen-lockfile", "yarn",
        (
            'error {p}@{a}.{b}.{c}: Integrity check failed for "{p}" (computed integrity does not match our records, got "sha512-{h}")',
        ),
        1, "PMG",
    ),
    Family(
        "maven-resolve", "maven:3.{a}-eclipse-temurin-17", "RUN mvn -B package", "maven",
        (
            "[ERROR] Failed to execute goal on project {p}: Could not resolve dependencies for project com.acme:{p}:jar:{a}.{b}",
            "[ERROR] Failed to collect dependencies at org.acme:{p}-core:jar:{a}.{b}.{c}",
        ),
        1, "DEP",
    ),
    Family(
        "apk-untrusted", "alpine:3.{a}", "RUN apk add --no-cache build-base", "apk",
        (
            "ERROR: https://dl-cdn.alpinelinux.org/alpine/v3.{a}/main: UNTRUSTED signature",
            "ERROR: unable to select packages: build-base-0.{b} (no such package)",
        ),
        1, "SEC",
    ),
    Family(
        "cargo-select", "rust:1.{a}", "RUN cargo build --release", "cargo",
        (
            'error: failed to select a version for the requirement `{p} = "^{a}.{b}"`',
            "error: could not compile `{p}` due to previous dependency resolution",
        ),
        101, "DEP/Compatibility Issues",
    ),
    Family(
        "no-space", "python:3.{a}", "RUN pip install -r requirements.txt", "pip",
        (
            "OSError: [Errno 28] No space left on device: '/tmp/pip-build-{p}'",
            "ERROR: could not install packages due to an OSError: [Errno 28] No space left on device",
        ),
        1, "MISC", "infrastructure",
    ),
    Family(
        "rate-limit", "redis:7.{a}", "RUN redis-server --version", "layers",
        (
            "ERROR: failed to copy: httpReadSeeker: failed open: unexpected status code: toomanyrequests: rate limit for {p}",
        ),
        1, "MISC", "docker-server",
    ),
    Family(
        "py-syntax", "python:3.{a}-slim", "RUN python -m compileall /app", "compileall",
        (
            "SyntaxError: invalid syntax in /app/{p}.py line {a}",
        ),
        1, "MISC", "project-source",
    ),
)

COUNTED_FAMILIES = tuple(f for f in FAMILIES if f.exclusion is None)
EXCLUDED_FAMILIES = tuple(f for f in FAMILIES if f.exclusion is not None)
# One family per progress style. Excerpts of two of these stay far below the
# 0.80 cluster and 0.90 feedback thresholds (cosine <= 0.62 over ten seeds),
# while repeats of one family stay above 0.95.
DISTINCT_FAMILIES = tuple(
    f for i, f in enumerate(FAMILIES) if all(g.style != f.style for g in FAMILIES[:i])
)

# Progress output per tool. None of these lines matches a default extraction
# rule or an exclusion filter, so only a family's error lines anchor excerpts.
PROGRESS = {
    "npm": (
        "npm http fetch GET 200 https://registry.npmjs.org/{p} {n}ms (cache miss)",
        "npm timing reify:{p} Completed in {n}ms",
        "added {n} packages from {a} contributors in {b}.{c}s",
    ),
    "apt": (
        "Get:{n} http://deb.debian.org/debian bookworm/main amd64 {p} amd64 {a}.{b}-{c} [{n} kB]",
        "Unpacking {p} ({a}.{b}-{c}) ...",
        "Setting up {p} ({a}.{b}-{c}) ...",
        "Preparing to unpack .../{p}_{a}.{b}-{c}_amd64.deb ...",
        "Selecting previously unselected package {p}.",
    ),
    "pip": (
        "Collecting {p}=={a}.{b}.{c}",
        "  Downloading {p}-{a}.{b}.{c}-py3-none-any.whl ({n} kB)",
        "Building wheel for {p} (pyproject.toml) ... done",
        "Requirement already satisfied, skipping upgrade of {p} in /usr/lib/python3/dist-packages",
    ),
    "curl": (
        "  {n}  {n}M    {a}  {n}k    0     0  {n}k      0  0:00:{a}  0:00:0{b} --:--:-- {n}k",
        "* Trying 93.184.{a}.{n}:443...",
        "* TLSv1.3 (OUT), TLS handshake, Client hello ({b})",
    ),
    "go": (
        "go: downloading github.com/{p}/{p} v{a}.{b}.{c}",
        "go: finding module for package github.com/{p}/{p}/v{b}",
        "go: found github.com/{p}/{p} in github.com/{p}/{p} v0.{a}.{c}",
    ),
    "git": (
        "Receiving objects: {n}% ({a}{b}/{a}{c}), {n} KiB | {b}.{c} MiB/s",
        "Resolving deltas: {n}% ({a}/{b}{c}), done.",
        "Cloning into '{p}'...",
    ),
    "layers": (
        "#{a} sha256:{h}{h} {n}MB / {n}MB {a}.{b}s",
        "#{a} extracting sha256:{h}{h} {b}.{c}s done",
    ),
    "mysql": (
        "{a}:0{b}:1{c} mysqld_safe Logging to '/var/log/mysql/{p}.log'.",
        "[Note] Plugin '{p}' is disabled at startup ({n}).",
        "Starting MySQL database server mysqld {p} ... {n}",
    ),
    "yarn": (
        "info fetching package {p}@{a}.{b}.{c} from the npm mirror",
        "info linking dependency {p} ({n} files)",
        "yarn install v1.22.{a} resolving {n} packages",
    ),
    "maven": (
        "[INFO] Downloading from central: https://repo.maven.apache.org/maven2/org/{p}/{p}/{a}.{b}/{p}-{a}.{b}.pom",
        "[INFO] Downloaded from central: https://repo.maven.apache.org/maven2/org/{p}/{p}/{a}.{b}/{p}-{a}.{b}.jar ({n} kB at {n} kB/s)",
    ),
    "apk": (
        "fetch https://dl-cdn.alpinelinux.org/alpine/v3.{a}/main/x86_64/APKINDEX.tar.gz",
        "({a}/{n}) Installing {p} ({a}.{b}.{c}-r{c})",
        "Executing busybox-1.{a}.{b}-r{c}.trigger",
    ),
    "cargo": (
        "   Compiling {p} v{a}.{b}.{c}",
        "  Downloaded {p} v{a}.{b}.{c}",
        "    Updating crates.io index ({n} packages)",
    ),
    "compileall": (
        "Listing '/app/{p}'...",
        "Compiling '/app/{p}/{p}.py'...",
    ),
}
_WARNINGS = (
    "npm WARN deprecated {p}@{a}.{b}.{c}: this library is no longer supported",
    "WARNING: Running pip as the root user can result in broken permissions",
)
_SYLLABLES = (
    "ba", "co", "di", "fu", "ga", "ho", "ki", "lu", "mo", "ni",
    "po", "qu", "ro", "su", "ti", "vo", "wy", "xo", "ze", "ly",
)


def _pkg(rng: random.Random) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(4))


def _fill(template: str, rng: random.Random, pkg: str | None = None) -> str:
    slots = {}
    if "{p}" in template:
        slots["p"] = pkg or _pkg(rng)
    for name, low, high in (("a", 1, 29), ("b", 0, 9), ("c", 0, 9), ("n", 2, 999)):
        if "{" + name + "}" in template:
            slots[name] = rng.randint(low, high)
    if "{h}" in template:
        slots["h"] = "%016X" % rng.getrandbits(64)
    return template.format(**slots)


def _progress(style: str, rng: random.Random) -> str:
    return _fill(rng.choice(PROGRESS[style]), rng)


def _error(family: Family, rng: random.Random, pkg: str) -> str:
    return _fill(rng.choice(family.errors), rng, pkg)


def _error_positions(rng: random.Random, count: int, share: float) -> set[int]:
    return set(rng.sample(range(count), max(1, round(count * share))))


# --- log shapes --------------------------------------------------------------

SHAPE_TIMED = "timed"  # one BuildKit stage with per-line timings
SHAPE_MULTI = "multi"  # several BuildKit stages with per-line timings
SHAPE_CLASSIC = "classic"  # classic builder, no banners and no timings
SHAPES = (SHAPE_TIMED, SHAPE_MULTI, SHAPE_CLASSIC)

LINES_PER_SECOND = 8
ERROR_SHARE = 0.10


def _preamble(image: str) -> list[str]:
    return [
        "#1 [internal] load build definition from Dockerfile",
        "#1 transferring dockerfile: 412B done",
        "#1 DONE 0.0s",
        "",
        f"#2 [internal] load metadata for docker.io/library/{image}",
        "#2 DONE 0.8s",
        "",
    ]


def _timed_stage(step_no: int, label: str, step: str, lines: int, style: str,
                 errors_from: Family | None, rng: random.Random, pkg: str,
                 t0: float) -> tuple[list[str], float]:
    """One BuildKit stage: banner plus `lines` timed lines, ERROR_SHARE of
    them errors of `errors_from` (none when it is None)."""
    out = [f"#{step_no} [{label}] {step}"]
    errors = _error_positions(rng, lines, ERROR_SHARE) if errors_from else set()
    t = t0
    for i in range(lines):
        t += rng.uniform(0.5, 1.5) / LINES_PER_SECOND
        text = _error(errors_from, rng, pkg) if i in errors else _progress(style, rng)
        out.append(f"#{step_no} {t:.3f} {text}")
    return out, t


def _summary(family: Family, step: str, rng: random.Random, pkg: str, banner: str) -> list[str]:
    return [
        "------",
        f" > {banner}:",
        *(_error(family, rng, pkg) for _ in range(3)),
        "------",
        f'ERROR: failed to solve: process "/bin/sh -c {step.removeprefix("RUN ")}" '
        f"did not complete successfully: exit code: {family.exit_code}",
    ]


def failing_log(shape: str, lines: int, family: Family, rng: random.Random,
                build_id: str | None = None) -> str:
    """A failing build log with `lines` body lines whose errors come from `family`.

    The last line names the build, so two logs that share a body still
    differ (and their excerpts too) when their build ids differ.
    """
    build_id = build_id or "%012x" % rng.getrandbits(48)
    return _failing_body(shape, lines, family, rng) + (
        f"\nERROR: build {build_id} exited with code {family.exit_code}"
    )


def _failing_body(shape: str, lines: int, family: Family, rng: random.Random) -> str:
    pkg = _pkg(rng)
    step = _fill(family.step, rng, pkg)
    image = _fill(family.image, rng)
    if shape == SHAPE_TIMED:
        body, _ = _timed_stage(5, "2/2", step, lines, family.style, family, rng, pkg,
                               rng.uniform(0, 3))
        return "\n".join(_preamble(image) + body + _summary(family, step, rng, pkg, f"[2/2] {step}"))
    if shape == SHAPE_MULTI:
        stages = 4
        per = lines // stages
        out = _preamble(image)
        t = rng.uniform(0, 3)
        for s in range(stages - 1):
            body, t = _timed_stage(s + 5, f"build {s + 2}/4", f"RUN make stage-{s + 2}", per,
                                   family.style, None, rng, pkg, t)
            warn = rng.randrange(1, len(body))
            body[warn] = f"#{s + 5} {t:.3f} " + _fill(rng.choice(_WARNINGS), rng)
            out += body
        body, _ = _timed_stage(stages + 5, "stage-1 3/3", step, lines - per * (stages - 1),
                               family.style, family, rng, pkg, t)
        return "\n".join(out + body + _summary(family, step, rng, pkg, f"[stage-1 3/3] {step}"))
    if shape == SHAPE_CLASSIC:
        out = [
            f"Sending build context to Docker daemon  {rng.randint(2, 99)}.{rng.randint(0, 9)}kB",
            f"Step 1/4 : FROM {image}",
            " ---> %012x" % rng.getrandbits(48),
            "Step 2/4 : WORKDIR /app",
            " ---> Running in %012x" % rng.getrandbits(48),
            f"Step 3/4 : {step}",
            " ---> Running in %012x" % rng.getrandbits(48),
        ]
        errors = _error_positions(rng, lines, ERROR_SHARE)
        out += [_error(family, rng, pkg) if i in errors else _progress(family.style, rng)
                for i in range(lines)]
        out.append(
            f"The command '/bin/sh -c {step.removeprefix('RUN ')}' returned a "
            f"non-zero code: {family.exit_code}"
        )
        return "\n".join(out)
    raise ValueError(f"unknown log shape {shape!r}")


def success_log(lines: int, style: str, rng: random.Random) -> str:
    body, t = _timed_stage(5, "2/2", "RUN make install", lines, style, None, rng, "", rng.uniform(0, 3))
    return "\n".join(_preamble("alpine:3.19") + body + [f"#5 DONE {t:.1f}s", "#6 exporting to image", "#6 DONE 0.4s"])


def dockerfile(family: Family, rng: random.Random, marker: str = "") -> str:
    lines = [
        f"FROM {_fill(family.image, rng)}",
        "WORKDIR /app",
        "COPY . /app",
        _fill(family.step, rng),
        f'CMD ["./{_pkg(rng)}"]',
    ]
    if marker:
        lines.insert(1, f"# {marker}")
    return "\n".join(lines) + "\n"


def fenced(text: str) -> str:
    return f"Here is the corrected file:\n```dockerfile\n{text}```\n"


# --- reference embedder -------------------------------------------------------
#
# An independent transcription of the documented offline embedder (hashed
# character trigrams, sign from the top hash bit, L2-normalised, float32).
# Reference checks rank with it; store vectors are built from it.

DIM = 256


def ref_embed(text: str, dim: int = DIM) -> np.ndarray:
    lowered = text.lower()
    grams = [lowered[i:i + 3] for i in range(len(lowered) - 2)] or [lowered]
    acc = np.zeros(dim, dtype=np.float64)
    for gram in grams:
        h = int.from_bytes(hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest(), "big")
        acc[h % dim] += 1.0 if h >> 63 else -1.0
    norm = np.linalg.norm(acc)
    return (acc / norm if norm > 0 else acc).astype(np.float32)


def combined(static: str, dynamic: str) -> str:
    """The documented retrieval text: both parts under their delimiters."""
    return f"=== DOCKERFILE ===\n{static}\n=== BUILD OUTPUT ===\n{dynamic}"


# --- demonstration stores -----------------------------------------------------


def excerpt_text(family: Family, rng: random.Random) -> str:
    """A preprocessed-style failure excerpt, as a store record holds it."""
    pkg = _pkg(rng)
    step = _fill(family.step, rng, pkg)
    lines = [f"> [3/4] {step}:"]
    lines += [_error(family, rng, pkg) for _ in range(rng.randint(2, 5))]
    lines.append(
        f'ERROR: process "/bin/sh -c {step.removeprefix("RUN ")}" did not complete '
        f"successfully: exit code: {family.exit_code}"
    )
    return "\n".join(lines)


def demo_record(rid: str, family: Family, rng: random.Random) -> dict:
    static = dockerfile(family, rng)
    repairs = [static.replace("WORKDIR /app", f"WORKDIR /app\nRUN echo pinned-{_pkg(rng)}")
               for _ in range(rng.randint(1, 2))]
    return {
        "id": rid,
        "static_part": static,
        "dynamic_part": excerpt_text(family, rng),
        "category": family.category,
        "repairs": repairs,
        "iterations": [rng.randint(1, 4) for _ in repairs],
    }


def store_contents(count: int, seed: int, exact: bool) -> tuple[list[dict], np.ndarray]:
    """`count` records and their float32 vectors, families round-robin.

    With `exact`, each vector is the reference embedding of the record's
    combined text, as the offline embedder would store it. Otherwise it is
    the family's reference embedding plus seeded noise, renormalised, which
    keeps a 10k-record store cheap to generate while retrieval still ranks
    records of the query's family first.
    """
    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    records, vectors = [], []
    bases = {}
    for i in range(count):
        family = COUNTED_FAMILIES[i % len(COUNTED_FAMILIES)]
        rec = demo_record(f"rec-{i:05d}", family, rng)
        records.append(rec)
        if exact:
            vectors.append(ref_embed(combined(rec["static_part"], rec["dynamic_part"])))
            continue
        if family.name not in bases:
            bases[family.name] = ref_embed(combined(rec["static_part"], rec["dynamic_part"]))
        noisy = bases[family.name] + nprng.normal(0.0, nprng.uniform(0.02, 0.06), DIM)
        vectors.append((noisy / np.linalg.norm(noisy)).astype(np.float32))
    return records, np.vstack(vectors).astype(np.float32)


def cluster_log(family: Family, rng: random.Random, index: int, family_seed: int) -> str:
    """A short raw log: preamble, one stage of timed progress, the family's
    errors once each.

    Package, image, progress lines and hashes come from `family_seed`, so
    members of a family differ only in version numbers and timings, as
    repeats of one failure do; `index` makes every log of a corpus distinct.
    """
    frng = random.Random(family_seed)
    pkg, image, digest = _pkg(frng), _fill(family.image, frng), "%016X" % frng.getrandbits(64)
    step = _fill(family.step, frng, pkg)
    pads = [_progress(family.style, frng) for _ in range(5)]
    t = 0.0
    body = [f"#5 [3/4] {step}"]
    for pad in pads:
        t += rng.uniform(0.5, 1.5) / LINES_PER_SECOND
        body.append(f"#5 {t:.3f} {pad}")
    errors = [
        e.format(p=pkg, a=rng.randint(1, 29), b=rng.randint(0, 9), c=rng.randint(0, 9), h=digest)
        for e in family.errors
    ]
    tail = (f'ERROR: process "/bin/sh -c {step.removeprefix("RUN ")}" did not complete '
            f"successfully: exit code: {family.exit_code}")
    head = _preamble(image)
    head[1] = f"#1 transferring dockerfile: {300 + index}B done"
    return "\n".join(head + body + errors + [tail]) + "\n"
