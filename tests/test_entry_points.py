"""Every command-line entry point starts, and importing the library stays
light.  Each check runs in a fresh interpreter so nothing imported by
other tests leaks into it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT), env.get("PYTHONPATH", "")]
    )
    return subprocess.run(
        [sys.executable, *args], cwd=REPO_ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )


def _console_script(target: str) -> tuple:
    """What a ``[project.scripts]`` wrapper runs: ``module:function``."""
    module, func = target.split(":")
    return ("-c", f"import sys; from {module} import {func}; sys.exit({func}())")


ENTRY_POINTS = {
    "tools/bench.py": ("tools/bench.py",),
    "tools/profile.py": ("tools/profile.py",),
    "tools/tie_report.py": ("tools/tie_report.py",),
    "fncc-exp": _console_script("repro.experiments.runner:main"),
    "fncc-lint": _console_script("tools.lint.cli:main"),
    "repro.hybrid.validate": ("-m", "repro.hybrid.validate"),
    "repro.obs.export": ("-m", "repro.obs.export"),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_help_exits_cleanly(name):
    proc = _python(*ENTRY_POINTS[name], "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:"), proc.stdout[:200]


def test_import_does_not_load_scipy():
    """scipy serves one analysis function; importing the library (or the
    modules every hybrid run and sweep-pool worker loads) must not pay
    for it."""
    proc = _python(
        "-c",
        "import sys, repro, repro.hybrid.backend, repro.experiments.lbmatrix; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
