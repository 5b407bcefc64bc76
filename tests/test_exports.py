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


def test_catalog_imports_neither_verifier_nor_lifting():
    """The catalog's rows load without ``casetables`` and ``lifting``.

    ``import weyldl.catalog`` runs the package's ``__init__`` first, which
    imports every module, so the package is entered here by its path, with
    no ``__init__``: what ``import weyldl.catalog`` loads then is the
    catalog's own imports.  The rows build there, all 213 of them.
    """
    package = str(Path(__file__).resolve().parent.parent / "src" / "weyldl")
    program = (
        "import sys, types\n"
        "package = types.ModuleType('weyldl')\n"
        f"package.__path__ = [{package!r}]\n"
        "sys.modules['weyldl'] = package\n"
        "import weyldl.catalog\n"
        "print(sorted({'weyldl.casetables', 'weyldl.lifting'} & set(sys.modules)))\n"
        "print(len(weyldl.catalog.load_case_records()))\n"
    )
    out = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["[]", "213"]


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
