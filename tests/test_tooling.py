"""Checks on the source that no run would show. The benchmark's tracer wraps
wsdelay functions by name; a renamed or re-signed layer function would
otherwise break only the traced benchmark run, and silently. Likewise every
keyword the benchmark passes to a wsdelay callable must be one of its
parameters, or only the benchmark's jobs would fail. The 2D
kernels' Bessel functions have one call site. Importing the package
loads no scipy subpackage beyond the two it uses. Every public function
or class has a reader outside the tests. Only io opens a file for writing.
The README's config block documents exactly the keys the parser reads, and
every config field has a reader. Every error type is raised somewhere."""

import ast
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(__file__))
TRACING = os.path.join(ROOT, "perfbench", "tracing.py")
BENCH = os.path.join(ROOT, "perfbench", "bench.py")
SRC = os.path.join(ROOT, "src")
BEM = os.path.join(SRC, "wsdelay", "bem.py")
README = os.path.join(ROOT, "README.md")
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


def test_benchmark_keywords_are_parameters():
    """Every keyword perfbench/bench.py passes to wsdelay.<name>(...) is a
    parameter of that callable, e.g. bem_smatrix's gate= and q_matrix's
    provenance=."""
    import wsdelay

    with open(BENCH) as fh:
        tree = ast.parse(fh.read())
    checked, broken = set(), []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and node.keywords):
            continue
        path, target = [], node.func
        while isinstance(target, ast.Attribute):
            path.insert(0, target.attr)
            target = target.value
        if not (isinstance(target, ast.Name) and target.id == "wsdelay" and path):
            continue
        fn = wsdelay
        for attr in path:
            fn = getattr(fn, attr)
        params = inspect.signature(fn).parameters
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            continue
        name = ".".join(path)
        for kw in node.keywords:
            if kw.arg is not None:
                checked.add((name, kw.arg))
                if kw.arg not in params:
                    broken.append(f"bench.py:{node.lineno} wsdelay.{name}(..., {kw.arg}=)")
    assert not broken, broken
    assert {("bem_smatrix", "gate"), ("q_matrix", "provenance")} <= checked, sorted(checked)


def test_import_loads_only_linalg_and_special():
    """Every run and benchmark setup pays the import: a top-level
    `import scipy.interpolate` measured about +0.2 s on a 0.57 s import."""
    probe = (
        "import sys, wsdelay; print(sorted(name for name, mod in sys.modules.items()"
        " if name.startswith('scipy.') and name.count('.') == 1"
        " and not name[6:].startswith('_') and hasattr(mod, '__path__')))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert ast.literal_eval(run.stdout.strip()) == ["scipy.linalg", "scipy.special"]


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


def _names_used(tree, strings):
    """Names a module's code reads (identifiers and attributes), each
    top-level definition's own name excluded from its body; with strings
    also every string constant, since the tracer binds by name."""
    used = set()
    for top in tree.body:
        names = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            names.discard(top.name)
        used |= names
    return used


def test_every_public_definition_is_used():
    """Every public top-level function and class in the package is read by
    package code or by perfbench/, outside its own definition. The package's
    re-exports and the tests do not count: a function only they reach is
    surface the pipeline does not run."""
    package = os.path.join(SRC, "wsdelay")
    perfbench = os.path.dirname(TRACING)
    defined, used = {}, set()
    for folder, strings in ((package, False), (perfbench, True)):
        for name in sorted(os.listdir(folder)):
            if not name.endswith(".py") or name == "__init__.py":
                continue
            with open(os.path.join(folder, name)) as fh:
                tree = ast.parse(fh.read())
            used |= _names_used(tree, strings)
            if folder == package:
                for node in tree.body:
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                            and not node.name.startswith("_"):
                        defined[node.name] = name
    unused = sorted(f"{module}:{name}" for name, module in defined.items() if name not in used)
    assert not unused, unused


def test_only_io_opens_files_for_writing():
    """Every artifact's file format is decided in io: an open() call in any
    other module reads. A mode that is not a string constant counts as a
    write."""
    package = os.path.join(SRC, "wsdelay")
    writers = set()
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "open"):
                continue
            modes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
            if any(not (isinstance(m, ast.Constant) and set(m.value) <= set("rbt"))
                   for m in modes):
                writers.add(f"{name}:{node.lineno}")
    assert {w.split(":")[0] for w in writers} == {"io.py"}, sorted(writers)


def test_readme_config_block_lists_every_key():
    """The keys of the README's ini block, commented or not, one or more to
    a line, are the keys of io._FIELD_PARSERS, each once."""
    from wsdelay import io as wio

    with open(README) as fh:
        block = fh.read().split("```ini\n", 1)[1].split("```", 1)[0]
    keys = []
    for line in block.splitlines():
        # drop a leading '# ', then the trailing '# ...' or '(...)' comment
        body = re.split(r"\s#|\(", line.lstrip("# "))[0]
        keys += re.findall(r"(\w+)=", body)
    assert sorted(keys) == sorted(wio._FIELD_PARSERS)


def test_every_config_field_is_read():
    """Every ScenarioConfig field is read as cfg.<field> somewhere in the
    package outside io, which only parses and validates it: a field no
    stage reads is a key that changes nothing."""
    from dataclasses import fields

    from wsdelay.io import ScenarioConfig

    package = os.path.join(SRC, "wsdelay")
    read = set()
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "io.py":
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read())
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id == "cfg"}
    unread = sorted(f.name for f in fields(ScenarioConfig) if f.name not in read)
    assert not unread, unread


def test_every_error_type_is_raised():
    """Every WsdelayError subclass in errors.py, the base class aside, is
    named in a raise statement in the package: a type nothing raises is an
    except clause and a public name that catch nothing."""
    package = os.path.join(SRC, "wsdelay")
    with open(os.path.join(package, "errors.py")) as fh:
        classes = [node for node in ast.parse(fh.read()).body if isinstance(node, ast.ClassDef)]
    errors = {"WsdelayError"}
    for node in classes:
        if any(isinstance(b, ast.Name) and b.id in errors for b in node.bases):
            errors.add(node.name)
    raised = set()
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert len(errors) > 1
    assert sorted(errors - {"WsdelayError"} - raised) == []
