"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import hashlib
import math
import random
from pathlib import Path

import numpy as np

from flakidock.build_engine import BuildScript, ScriptedOutcome, SimulatedDriver

FIXTURES = Path(__file__).parent / "fixtures"

ALPINE_PIP = (FIXTURES / "alpine_pip.dockerfile").read_text()
ALPINE_PIP_REPAIRED = (FIXTURES / "alpine_pip_repaired.dockerfile").read_text()
GOLANG_TWO_STAGE = (FIXTURES / "golang_two_stage.dockerfile").read_text()
ALPINE_PIP_LOG = (FIXTURES / "alpine_pip_build.log").read_text()

# Three mutually dissimilar failure outputs (offline-provider cosine ~0.3)
# used to script distinct "error types" for the validation state machine.
ERROR_TYPE_LOGS = {
    "X": (
        "> [4/6] RUN npm install:\n"
        "npm ERR! code ECONNREFUSED\n"
        "npm ERR! FetchError: request to http://registry.npm.internal:4873/express failed\n"
        'ERROR: process "/bin/sh -c npm install" did not complete successfully: exit code: 1'
    ),
    "Y": (
        "> [3/3] RUN apt-get update:\n"
        "W: GPG error: https://apt.vendor.example/stable focal InRelease: NO_PUBKEY 871920D1991BC93C\n"
        "E: The repository 'https://apt.vendor.example/stable focal InRelease' is not signed.\n"
        'ERROR: process "/bin/sh -c apt-get update" did not complete successfully: exit code: 100'
    ),
    "Z": (
        "> [2/3] RUN mkdir /var/run/appd:\n"
        "mkdir: cannot create directory '/var/run/appd': File exists\n"
        'ERROR: process "/bin/sh -c mkdir /var/run/appd" did not complete successfully: exit code: 1'
    ),
}

# Ten distinct failure-output templates; {a}/{b}/{c} take small random values
# so outputs within a template differ slightly but cluster together.
CLUSTER_TEMPLATES = [
    "npm ERR! code E404\n"
    "npm ERR! 404 Not Found - GET https://registry.npmjs.org/widget-core/-/widget-core-{a}.{b}.{c}.tgz\n"
    "npm ERR! 404 'widget-core@{a}.{b}.{c}' is not in this registry.\n"
    'ERROR: process "/bin/sh -c npm install" did not complete successfully: exit code: 1',
    "E: Failed to fetch http://archive.ubuntu.com/ubuntu/pool/main/o/openssl/libssl-dev_{a}.{b}.{c}_amd64.deb  404  Not Found\n"
    "E: Unable to fetch some archives, maybe run apt-get update or try with --fix-missing?\n"
    'ERROR: process "/bin/sh -c apt-get install -y libssl-dev" did not complete successfully: exit code: 100',
    "error: externally-managed-environment\n"
    "hint: See PEP 668 for the detailed specification.\n"
    'ERROR: process "/bin/sh -c pip3 install -r requirements.txt" did not complete successfully: exit code: 1',
    "curl: (28) Operation timed out after {a}{b} milliseconds with 0 out of 0 bytes received\n"
    'ERROR: process "/bin/sh -c curl -fSL https://dl.example.com/tool.tgz -o /tmp/tool.tgz" did not complete successfully: exit code: 28',
    "gpg: keyserver receive failed: Server indicated a failure\n"
    "W: GPG error: https://deb.example.com stable InRelease: NO_PUBKEY {a}{b}{c}D1991BC93C\n"
    "E: The repository 'https://deb.example.com stable InRelease' is not signed.\n"
    'ERROR: process "/bin/sh -c apt-get update" did not complete successfully: exit code: 100',
    "/go/src/golang.org/x/net/context/pre_go17.go:{a}:2: background redeclared in this block\n"
    'ERROR: process "/bin/sh -c go build -o proxy" did not complete successfully: exit code: 2',
    "fatal: unable to access 'https://github.com/acme/widget-{a}.git/': Could not resolve host: github.com\n"
    'ERROR: process "/bin/sh -c git clone https://github.com/acme/widget-{a}.git" did not complete successfully: exit code: 128',
    "COPY failed: file not found in build context or excluded by .dockerignore: stat artifacts/bundle-{a}.tar: file does not exist",
    "mysql_upgrade: Got error: 2002: Can't connect to local MySQL server through socket '/var/run/mysqld/mysqld{a}.sock' (2)\n"
    'ERROR: process "/bin/sh -c service mysql start && mysql_upgrade" did not complete successfully: exit code: 1',
    "OSError: [Errno 28] No space left on device: '/tmp/pip-build-{a}'\n"
    "ERROR: could not install packages due to an OSError: [Errno 28] No space left on device",
]

_CLUSTER_STEPS = [
    "RUN npm install",
    "RUN apt-get install -y libssl-dev",
    "RUN pip3 install -r requirements.txt",
    "RUN curl -fSL https://dl.example.com/tool.tgz -o /tmp/tool.tgz",
    "RUN apt-get update",
    "RUN go build -o proxy",
    "RUN git clone https://github.com/acme/widget.git",
    "COPY artifacts/bundle.tar /srv/",
    "RUN service mysql start && mysql_upgrade",
    "RUN pip install -r requirements.txt",
]


def template_outputs(count: int = 100, seed: int = 42) -> list[str]:
    """Preprocessed-style failure outputs drawn from the 10 templates."""
    rng = random.Random(seed)
    return [
        CLUSTER_TEMPLATES[i % len(CLUSTER_TEMPLATES)].format(
            a=rng.randint(1, 99), b=rng.randint(0, 9), c=rng.randint(0, 9)
        )
        for i in range(count)
    ]


def template_raw_logs(count: int = 100, seed: int = 42) -> list[str]:
    """Full raw logs (banner + progress padding + failure body)."""
    rng = random.Random(seed)
    logs = []
    for i in range(count):
        t = i % len(CLUSTER_TEMPLATES)
        body = CLUSTER_TEMPLATES[t].format(
            a=rng.randint(1, 99), b=rng.randint(0, 9), c=rng.randint(0, 9)
        )
        pad = "\n".join(f"#{t + 2} {0.1 * k:.3f} step output line {k}" for k in range(1, 6))
        logs.append(
            "#1 [internal] load build definition\n#1 DONE 0.0s\n"
            f"> [{t + 1}/{t + 2}] {_CLUSTER_STEPS[t]}:\n{pad}\n{body}\n"
        )
    return logs


def outcome(status: str, log: str = "", duration: float = 1.0, exit_code=None) -> ScriptedOutcome:
    return ScriptedOutcome(status=status, log=log, exit_code=exit_code, duration=duration)


def driver_for(outcomes: list[ScriptedOutcome]) -> SimulatedDriver:
    """Simulated driver with a single default script."""
    return SimulatedDriver([BuildScript(None, outcomes)])


def driver_with_scripts(scripts: dict[str | None, list[ScriptedOutcome]]) -> SimulatedDriver:
    """Simulated driver keyed by document-content markers (None = default)."""
    return SimulatedDriver([BuildScript(match, list(o)) for match, o in scripts.items()])


def fenced(dockerfile_text: str) -> str:
    return f"Here is the corrected file:\n```dockerfile\n{dockerfile_text}```\n"


# --- reference implementations for differential tests ---


def reference_hash_embedding(text: str, dim: int = 256) -> np.ndarray:
    """The offline embedder without memos: one blake2b per character 3-gram."""
    lowered = text.lower()
    grams = [lowered[i : i + 3] for i in range(len(lowered) - 2)] if len(lowered) >= 3 else [lowered]
    acc = np.zeros(dim, dtype=np.float64)
    for gram in grams:
        h = int.from_bytes(hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest(), "big")
        acc[h % dim] += 1.0 if h & (1 << 63) else -1.0
    norm = float(np.linalg.norm(acc))
    if norm > 0.0:
        acc /= norm
    return acc.astype(np.float32)


def reference_clustering(
    vectors: list[list[float]], threshold: float
) -> list[tuple[int, dict[int, float]]]:
    """Member-mean clustering that compares each vector with every member.

    A vector joins the first cluster with the highest mean cosine similarity
    to its members when that mean reaches the threshold, otherwise it starts
    a new cluster. Returns, for each vector in input order, its cluster id and
    the mean similarity to each cluster that existed before it joined.
    """
    norms = [math.sqrt(sum(x * x for x in v)) for v in vectors]

    def cosine(i: int, j: int) -> float:
        return sum(x * y for x, y in zip(vectors[i], vectors[j])) / (norms[i] * norms[j])

    clusters: list[list[int]] = []  # member positions per cluster
    steps = []
    for i in range(len(vectors)):
        best_id, best_mean = None, -2.0
        means = {}
        for cid, members in enumerate(clusters):
            mean = means[cid] = sum(cosine(i, m) for m in members) / len(members)
            if mean > best_mean:
                best_id, best_mean = cid, mean
        if best_id is not None and best_mean >= threshold:
            clusters[best_id].append(i)
        else:
            best_id = len(clusters)
            clusters.append([i])
        steps.append((best_id, means))
    return steps
