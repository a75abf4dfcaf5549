"""Commands that compute no vectors start without numpy, and none loads requests.

`monitor` runs once per round of builds, each run a fresh interpreter, and
importing numpy used to be most of the CLI's start-up. numpy is imported by
the code that computes vectors, so `import flakidock`, `import flakidock.cli`,
`preprocess`, `monitor` and `detect` must leave it unloaded. requests is
imported by the HTTP providers on their first request, so none of these loads
it either. The checks run in a fresh interpreter: this test session has numpy
loaded already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import flakidock

# The directory the package under test is imported from: src/ in a checkout,
# site-packages for an installed copy. A fresh interpreter imports from it too.
IMPORT_ROOT = Path(flakidock.__file__).resolve().parents[1]


# `code` can call `loaded()`: which of the modules start-up must skip are loaded.
_PRELUDE = 'import sys\nloaded = lambda: sorted({"numpy", "requests"} & set(sys.modules))\n'


def _fresh_python(code: str, cwd: Path) -> dict:
    """Run `code` in a new interpreter importing the package under test; its last stdout line is JSON."""
    env = {**os.environ, "PYTHONPATH": str(IMPORT_ROOT)}
    proc = subprocess.run(
        [sys.executable, "-c", _PRELUDE + textwrap.dedent(code)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_a_fresh_interpreter_imports_the_package_under_test(tmp_path):
    seen = _fresh_python("import json, flakidock\nprint(json.dumps(flakidock.__file__))", tmp_path)
    assert Path(seen).resolve() == Path(flakidock.__file__).resolve()


def test_importing_the_package_and_the_cli_skips_numpy(tmp_path):
    seen = _fresh_python(
        """
        import json, sys
        import flakidock
        package = loaded()
        import flakidock.cli
        print(json.dumps({"package": package, "cli": loaded()}))
        """,
        tmp_path,
    )
    assert seen == {"package": [], "cli": []}


def test_preprocess_and_monitor_skip_numpy(tmp_path):
    log = "#5 [1/1] RUN pip install x\n#5 0.4 error: externally-managed-environment\n"
    (tmp_path / "build.log").write_text(log)
    project = tmp_path / "proj"
    project.mkdir()
    (project / "Dockerfile").write_text("FROM busybox\nRUN pip install x\n")
    (tmp_path / "manifest.txt").write_text(f"proj {project}\n")
    (tmp_path / "scenario.json").write_text(json.dumps(
        {"builds": [{"match": None, "outcomes": [{"status": "failure", "log": log, "exit_code": 1}]}]}
    ))
    seen = _fresh_python(
        """
        import json, sys
        from click.testing import CliRunner
        from flakidock.cli import main
        runner = CliRunner()
        pre = runner.invoke(main, ["--json", "preprocess", "build.log"])
        mon = runner.invoke(main, ["--state-dir", "state", "--driver", "simulated:scenario.json",
                                   "--json", "monitor", "manifest.txt", "--rounds", "1"])
        print(json.dumps({"codes": [pre.exit_code, mon.exit_code],
                          "excerpt": json.loads(pre.stdout)["excerpt"],
                          "monitor": json.loads(mon.stdout)["projects"]["proj"],
                          "loaded": loaded()}))
        """,
        tmp_path,
    )
    assert seen["codes"] == [0, 0]
    assert "externally-managed-environment" in seen["excerpt"]
    # The failing build went through preprocessing and the exclusion filters.
    assert seen["monitor"]["failures"] == 1 and seen["monitor"]["flaky_candidate"]
    assert seen["loaded"] == []


def test_detect_skips_numpy(tmp_path):
    (tmp_path / "Dockerfile").write_text("FROM busybox\nRUN pip install x\n")
    (tmp_path / "scenario.json").write_text(json.dumps(
        {"builds": [{"match": None, "outcomes": [{"status": "success"}]}]}
    ))
    seen = _fresh_python(
        """
        import json, sys
        from click.testing import CliRunner
        from flakidock.cli import main
        result = CliRunner().invoke(main, ["--json", "--driver", "simulated:scenario.json",
                                           "--state-dir", "state", "detect", "Dockerfile"])
        print(json.dumps({"code": result.exit_code, "verdict": json.loads(result.stdout)["verdict"],
                          "loaded": loaded()}))
        """,
        tmp_path,
    )
    assert seen == {"code": 0, "verdict": "non-flaky", "loaded": []}


def test_reexports_resolve_lazily(tmp_path):
    seen = _fresh_python(
        """
        import json, sys
        from flakidock import embed, ProviderSet, ValidationPolicy
        from flakidock import config, providers, similarity
        same = [embed is similarity.embed, ProviderSet is providers.ProviderSet,
                ValidationPolicy is config.ValidationPolicy]
        before = loaded()
        embed("pip install failed", providers.HashingEmbeddingProvider())
        print(json.dumps({"same": same, "before": before, "after": loaded()}))
        """,
        tmp_path,
    )
    assert seen == {"same": [True, True, True], "before": [], "after": ["numpy"]}


def test_trigram_table_is_read_at_the_first_embedding(tmp_path):
    seen = _fresh_python(
        """
        import json
        from flakidock import providers
        provider = providers.HashingEmbeddingProvider()
        before = providers._trigram_table.cache_info().currsize
        provider.embed_values("pip install failed")
        print(json.dumps([before, providers._trigram_table.cache_info().currsize]))
        """,
        tmp_path,
    )
    assert seen == [0, 1]


def test_every_exported_name_resolves():
    for name in flakidock.__all__:
        assert getattr(flakidock, name) is not None
    with pytest.raises(AttributeError):
        flakidock.no_such_name
