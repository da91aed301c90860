"""Checks on the source that no run would show. The benchmark's tracer wraps
wsdelay functions by name; a renamed or re-signed layer function would
otherwise break only the traced benchmark run, and silently. And the 2D
kernels' Bessel functions have one call site."""

import ast
import importlib
import importlib.util
import inspect
import os
import re

ROOT = os.path.dirname(os.path.dirname(__file__))
TRACING = os.path.join(ROOT, "perfbench", "tracing.py")
BEM = os.path.join(ROOT, "src", "wsdelay", "bem.py")
QUARTET = {"j0", "y0", "j1", "y1"}


def test_every_trace_target_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    broken = []
    for module, func, _, count in tracing.TARGETS:
        fn = getattr(importlib.import_module(f"wsdelay.{module}"), func, None)
        if not callable(fn):
            broken.append(f"wsdelay.{module}.{func} is gone")
        elif count is not None:
            # the counter reads these bound arguments by name
            wanted = set(re.findall(r'a\["(\w+)"\]', inspect.getsource(count)))
            missing = wanted - set(inspect.signature(fn).parameters)
            if not wanted or missing:
                broken.append(f"wsdelay.{module}.{func} lacks {sorted(missing)}")
    assert not broken, broken



def test_bessel_quartet_has_one_site():
    """sp.j0, sp.y0, sp.j1 and sp.y1 appear in bem.py only inside _bessel,
    so a faster evaluator of the quartet changes one function."""
    sites = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if (
                isinstance(child, ast.Attribute)
                and isinstance(child.value, ast.Name)
                and child.value.id == "sp"
                and child.attr in QUARTET
            ):
                sites.append((owner, child.attr))
            elif isinstance(child, ast.alias) and child.name in QUARTET:
                sites.append((owner, child.name))
            visit(child, child.name if isinstance(child, ast.FunctionDef) else owner)

    with open(BEM) as fh:
        visit(ast.parse(fh.read()), None)
    assert sorted(sites) == sorted(("_bessel", name) for name in QUARTET)
