"""Every name a weyldl module exports resolves."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import weyldl

MODULES = sorted(
    m.name for m in pkgutil.iter_modules(weyldl.__path__, "weyldl.") if m.name != "weyldl.__main__"
)


def test_modules_found():
    assert "weyldl.lifting" in MODULES and "weyldl.subsystems" in MODULES


@pytest.mark.parametrize("name", ["weyldl"] + MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, missing


def test_import_skips_dataclasses_and_inspect():
    """A cold ``import weyldl`` (and the CLI) loads neither ``dataclasses`` nor ``inspect``.

    Together they cost about 25 ms of every cold start, against about 70 ms for
    all the verdicts of a ``check`` benchmark pass; one ``@dataclass`` brings them back.
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    program = (
        "import sys, weyldl, weyldl.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    out = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"
