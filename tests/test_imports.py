"""Package structure: modules share only public names, no module needs numpy,
and importing the CLI builds no parser and loads no fractions, decimal,
dataclasses or inspect."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "deltabox"


def test_no_module_imports_a_private_name_of_another():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [
                    f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []


def test_cli_import_leaves_numpy_unloaded():
    """The CLI imports every module; a fresh interpreter must not load numpy.

    Nor may the import build an argument parser: main builds it on its
    first call, so a process that never calls main never pays for it.  Nor
    may it load fractions or decimal: site and grid arithmetic is on ints.
    Nor dataclasses or inspect: the records are NamedTuples and plain classes.
    """
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    probe = (
        "import gc, sys, deltabox.cli; from argparse import ArgumentParser; "
        "print('numpy' in sys.modules, "
        "any(isinstance(o, ArgumentParser) for o in gc.get_objects()), "
        "'fractions' in sys.modules, 'decimal' in sys.modules, "
        "'dataclasses' in sys.modules, 'inspect' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False False False False False False"
