"""The benchmark's tracer wraps wsdelay functions by name; a renamed or
re-signed layer function would otherwise break only the traced benchmark
run, and silently."""

import importlib
import importlib.util
import inspect
import os
import re

TRACING = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "tracing.py")


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
