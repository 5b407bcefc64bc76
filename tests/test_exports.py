"""Every name a weyldl module exports resolves."""

import importlib
import json
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


SRC = str(Path(__file__).resolve().parent.parent / "src")
CHECKER = ["weyldl", "weyldl.checker", "weyldl.exactnum", "weyldl.rootdata"]
PROVER = {f"weyldl.{m}" for m in
          ("rootdata", "weyl", "conjugacy", "criterion", "lifting", "catalog", "casetables")}
# One program line: the weyldl modules loaded so far, as a JSON list.
LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'weyldl')))\n"


def fresh(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run with ``args``, importing weyldl from this tree."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          check=True)


def fresh_lines(program: str) -> list:
    """The JSON lines that ``program`` prints, with ``json`` and ``sys`` imported for it."""
    out = fresh("-c", "import json, sys\n" + program)
    return [json.loads(line) for line in out.stdout.splitlines()]


def test_import_skips_dataclasses_and_inspect():
    """A cold ``import weyldl``, the CLI and the prover load no ``dataclasses`` or ``inspect``.

    Together they cost about 25 ms of every cold start, against about 70 ms for
    all the verdicts of a ``check`` benchmark pass; one ``@dataclass`` brings them back.
    """
    program = (
        "import sys, weyldl, weyldl.cli\n"
        "weyldl.WeylGroup\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    assert fresh("-c", program).stdout.strip() == "[]"


def test_import_loads_the_checker_and_the_first_prover_name_the_prover():
    """``import weyldl`` loads the checker alone, and its three names load nothing more.

    The first prover name loads all seven prover modules in that one lookup
    (a name-by-name load would bring ``weyl`` alone) and binds every
    exported name in the package.
    """
    bare, checker_names, prover, unbound = fresh_lines(
        "import weyldl\n" + LOADED
        + "weyldl.Certificate, weyldl.check_certificate, weyldl.QuadExt\n" + LOADED
        + "weyldl.WeylGroup\n" + LOADED
        + "print(json.dumps(sorted(set(weyldl.__all__) - set(vars(weyldl)))))\n"
    )
    assert bare == checker_names == CHECKER
    assert PROVER <= set(prover), PROVER - set(prover)
    assert unbound == []


def test_unknown_name_is_an_attribute_error():
    """An unknown name raises the standard ``AttributeError`` and loads no prover module."""
    message, loaded = fresh_lines(
        "import weyldl\n"
        "try:\n"
        "    weyldl.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps(str(exc)))\n" + LOADED
    )
    assert message == "module 'weyldl' has no attribute 'no_such_name'"
    assert loaded == CHECKER


def test_dir_and_star_import_cover_all():
    """``dir(weyldl)`` lists every exported name, and ``from weyldl import *`` binds each."""
    not_listed, not_bound = fresh_lines(
        "import weyldl\n"
        "print(json.dumps(sorted(set(weyldl.__all__) - set(dir(weyldl)))))\n"
        "names = {}\n"
        "exec('from weyldl import *', names)\n"
        "print(json.dumps(sorted(set(weyldl.__all__) - set(names))))\n"
    )
    assert not_listed == not_bound == []


@pytest.mark.parametrize("name", MODULES)
def test_submodule_resolves_after_a_bare_import(name):
    """``weyldl.<module>`` resolves to the module after a bare ``import weyldl``."""
    attribute = name.split(".")[1]
    (same,) = fresh_lines(
        f"import weyldl\nprint(json.dumps(weyldl.{attribute} is sys.modules[{name!r}]))\n"
    )
    assert same is True


def test_check_command_loads_the_checker_alone(tmp_path):
    """``python -m weyldl check`` imports no prover module.

    ``-X importtime`` lists every module an import loads; ``-m`` runs
    ``weyldl.__main__`` without importing it, so the list has no
    ``weyldl.__main__``.
    """
    from weyldl.checker import FORM_FORWARD, Certificate
    from weyldl.exactnum import SQRT2, qext

    path = tmp_path / "c.json"
    path.write_text(Certificate("B", 2, 2, "delta", SQRT2, (1,), FORM_FORWARD,
                                (qext(3), qext(1))).to_json())
    out = fresh("-X", "importtime", "-m", "weyldl", "check", str(path))
    assert out.stdout.startswith("accept (")
    loaded = {line.rsplit("|", 1)[1].strip() for line in out.stderr.splitlines()
              if line.startswith("import time:") and "|" in line}
    assert {m for m in loaded if m.split(".")[0] == "weyldl"} == set(CHECKER) | {"weyldl.cli"}


def test_catalog_imports_neither_verifier_nor_lifting():
    """``import weyldl.catalog`` loads neither ``casetables`` nor ``lifting``; the rows
    build there, all 213 of them."""
    verifier, rows = fresh_lines(
        "import weyldl.catalog\n"
        "print(json.dumps(sorted({'weyldl.casetables', 'weyldl.lifting'} & set(sys.modules))))\n"
        "print(len(weyldl.catalog.load_case_records()))\n"
    )
    assert (verifier, rows) == ([], 213)


def test_package_exports_the_catalog_rows():
    import weyldl.casetables
    import weyldl.catalog

    assert weyldl.load_case_records is weyldl.catalog.load_case_records
    assert weyldl.catalog.CaseRecord.__module__ == "weyldl.catalog"
    assert not hasattr(weyldl.casetables, "load_case_records")


RECORDS = {
    "RootSystem", "Twist", "IneqSystem", "Certificate", "CheckResult",
    "DeltaClass", "EngineCert", "CaseRecord", "CaseReport", "AggregateReport", "RowPlacement",
}


def test_records_take_their_methods_from_record():
    """No record class writes out its own equality, hashing or repr.

    They come from ``rootdata.Record``; a class may only mark itself
    unhashable (``__hash__ = None``), and only ``RootSystem`` narrows
    ``_fields``, to leave out the tables its other fields determine.
    """
    from weyldl.rootdata import Record

    found, offences = set(), []
    for name in MODULES:
        for cls in vars(importlib.import_module(name)).values():
            if not (isinstance(cls, type) and issubclass(cls, Record) and cls is not Record):
                continue
            if cls.__module__ != name:
                continue
            found.add(cls.__name__)
            own = vars(cls)
            offences += [f"{cls.__name__}.{m}" for m in ("__eq__", "__repr__") if m in own]
            if own.get("__hash__", None) is not None:
                offences.append(f"{cls.__name__}.__hash__")
            if "_fields" in own and cls.__name__ != "RootSystem":
                offences.append(f"{cls.__name__}._fields")
    assert RECORDS <= found, RECORDS - found
    assert not offences, offences
