"""What importing the package loads, checked in a clean interpreter.

`python -I -S` ignores PYTHONPATH, the user site and site-packages, so no
`.pth` file can load a module before the check starts; the source directory
is put on sys.path inside the child instead.
"""

import subprocess
import sys
from pathlib import Path

import filtrate

SRC = str(Path(filtrate.__file__).resolve().parent.parent)

# modules that only the command line, or the reader of a file: table, may load
HEAVY = ("dataclasses", "inspect", "ast", "typing", "json", "re", "enum", "argparse")


def new_modules(before: str, statement: str) -> list[str]:
    """The modules that `statement` adds to sys.modules after `before` ran,
    in a fresh interpreter."""
    code = (f"import sys; sys.path.insert(0, {SRC!r}); {before}\n"
            "loaded = set(sys.modules)\n"
            f"{statement}\n"
            "print(*sorted(set(sys.modules) - loaded))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                          capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout.split()


def test_import_filtrate_loads_no_heavy_module():
    added = new_modules("pass", "import filtrate")
    assert "filtrate.cli" not in added
    assert [name for name in added if name.split(".")[0] in HEAVY] == []


def test_import_cli_loads_nothing_beyond_its_stdlib_imports():
    # the baseline is measured in the same interpreter, so it holds on
    # every Python version whatever these modules load themselves
    added = new_modules("import argparse, json, random, math, itertools, functools",
                        "import filtrate.cli")
    # __future__ is what the modules' `from __future__ import annotations` loads
    assert [name for name in added if name.split(".")[0] not in ("filtrate", "__future__")] == []
    assert "filtrate.cli" in added
