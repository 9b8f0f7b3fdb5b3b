"""What importing the package, or running a command, loads, checked in a
clean interpreter.

`python -I -S` ignores PYTHONPATH, the user site and site-packages, so no
`.pth` file can load a module before the check starts; the source directory
is put on sys.path inside the child instead.
"""

import json
import subprocess
import sys
from pathlib import Path

import filtrate

SRC = str(Path(filtrate.__file__).resolve().parent.parent)

# modules that only the command line, or the reader of a file: table, may load
HEAVY = ("dataclasses", "inspect", "ast", "typing", "json", "re", "enum", "argparse")


def child(code: str) -> subprocess.CompletedProcess:
    """`code` run in a fresh interpreter with the source directory on sys.path."""
    return subprocess.run([sys.executable, "-I", "-S", "-c",
                           f"import sys; sys.path.insert(0, {SRC!r})\n{code}"],
                          capture_output=True, text=True, timeout=60)


def new_modules(before: str, statement: str) -> list[str]:
    """The modules that `statement` adds to sys.modules after `before` ran,
    in a fresh interpreter."""
    proc = child(f"{before}\n"
                 "loaded = set(sys.modules)\n"
                 f"{statement}\n"
                 "print(*sorted(set(sys.modules) - loaded))")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_filtrate_loads_no_heavy_module():
    added = new_modules("pass", "import filtrate")
    assert "filtrate.cli" not in added
    assert [name for name in added if name.split(".")[0] in HEAVY] == []


def test_import_cli_loads_nothing_beyond_its_stdlib_imports():
    # the baseline is measured in the same interpreter, so it holds on
    # every Python version whatever these modules load themselves
    added = new_modules("import json, random, math, itertools, functools", "import filtrate.cli")
    # __future__ is what the modules' `from __future__ import annotations` loads
    assert [name for name in added if name.split(".")[0] not in ("filtrate", "__future__")] == []
    assert "filtrate.cli" in added
    # argparse, and the gettext it imports, load only for help and for the
    # command lines that the fast path leaves to argparse
    assert "argparse" not in added and "gettext" not in added


def test_a_well_formed_command_loads_no_argparse():
    # the console script calls main() with no argv, so main reads sys.argv
    proc = child("sys.argv = ['filtrate', 'member', '--word', '[x1,x2]', '--emap', 'trivial',"
                 " '--level', '2', '--alphabet', '2']\n"
                 "from filtrate.cli import main\n"
                 "code = main()\n"
                 "print(code, 'argparse' in sys.modules, 'gettext' in sys.modules)")
    assert proc.stderr == ""
    report, verdict = proc.stdout.splitlines()
    assert json.loads(report)["member"] is True
    assert verdict == "0 False False"


def test_help_still_comes_from_argparse():
    proc = child("sys.argv = ['filtrate', '--help']\nfrom filtrate.cli import run\nrun()")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: filtrate")
