"""Package structure: modules share only public names, no module needs numpy,
importing the CLI builds no parser and loads no fractions, decimal,
dataclasses or inspect, every name the benchmark reads resolves, and the
test-only cross-checks live in tests/_reference.py, not in the package, where
no deleted name is left."""

import ast
import importlib
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


PERFBENCH = SRC.parent.parent / "perfbench"

# Test-only cross-checks that live in tests/_reference.py: those of wavefn,
# then lattice, observables and fourier.
MOVED_TO_REFERENCE = (
    "LimitResidualReport", "limit_residual", "_one_sided_derivatives", "kappa_constants",
    "_point_limit", "jump_ratio", "trig_left_sign",
    "classify_mode", "ModeClassification", "_bounding_point", "_point",
    "gamma_factor",
    "tail_bound", "parseval_defect",
)


def _resolves(module: str, name: str) -> bool:
    if hasattr(importlib.import_module(module), name):
        return True
    try:  # `from deltabox import wavefn` names a submodule
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_every_deltabox_name_the_benchmark_checks_read_resolves():
    """perfbench's output checks import deltabox names and call wavefn.<name>,
    reading .value from the samples; a name that moves breaks those checks
    only when the benchmark runs, so each is pinned here.  Its tracer reads
    FourierExpansion.coefficients."""
    tree = ast.parse((PERFBENCH / "checks.py").read_text(encoding="utf-8"))
    wanted = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "deltabox":
            wanted += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "wavefn":
            wanted.append(("deltabox.wavefn", node.attr))
    assert ("deltabox.wavefn", "eval_normalized") in wanted and ("deltabox.cli", "parse_x0") in wanted
    assert [f"{module}.{name}" for module, name in wanted if not _resolves(module, name)] == []
    from deltabox.fourier import FourierExpansion
    from deltabox.wavefn import WaveSample

    assert "value" in WaveSample._fields
    assert isinstance(FourierExpansion.coefficients, property)


# Deleted outright: lattice_locator is the one on-lattice test, at one radius.
DELETED = ("shared_mode_near", "LIMIT_WINDOW_RTOL")


def test_no_deltabox_module_holds_a_moved_cross_check():
    held = [
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in MOVED_TO_REFERENCE + DELETED
        if hasattr(importlib.import_module(f"deltabox.{path.stem}".removesuffix(".__init__")), name)
    ]
    assert held == []
    reference = importlib.import_module("_reference")
    assert [name for name in MOVED_TO_REFERENCE if not hasattr(reference, name)] == []
