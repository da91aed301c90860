"""Spans around the public functions of each wsdelay layer, from outside.

install() replaces a function by a timing wrapper under every name that
holds it in a wsdelay module (fields, for example, binds scattered_field and
regular_waves_batch itself), so calls between modules are seen too. A span
records its name, parent, start, end and the counts its arguments give;
spans are kept in memory and only while a job span is open. layer_metrics()
turns them into per-job self times, inclusive times and counts.
"""

import functools
import inspect
import sys
import time


class Tracer:
    def __init__(self):
        self.spans = []     # [name, parent index, start, end, counts]
        self.stack = []

    def begin(self, name, counts=None):
        idx = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1,
                           time.perf_counter(), None, counts or {}])
        self.stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][3] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name, count=None):
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.stack:      # outside a job: the benchmark's own checks
                return fn(*args, **kwargs)
            counts = count(signature.bind(*args, **kwargs).arguments) if count else None
            idx = self.begin(name, counts)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return traced


def _points_x_nodes(a):
    return {"kernel_evals": len(a["points"]) * a["mesh"].n_nodes}


def _points_x_ports(a):
    return {"wave_evals": len(a["points"]) * len(a["modes"])}


def _cache_bytes(a):
    spec = a["spec"]
    return {"cache_bytes": spec.nx * spec.ny * len(a["modes"]) * 16}


def _nodes(a):
    return {"nodes": a["mesh"].n_nodes}


# (module, function, span name, counts from the bound arguments)
TARGETS = [
    ("cli", "run_scenario", "cli.run_scenario", None),
    ("geometry", "mesh_geometry", "geometry.mesh", None),
    ("bem", "bem_smatrix", "bem.smatrix", None),
    ("bem", "assemble_operators", "bem.assemble", None),
    ("bem", "solve_exterior", "bem.solve", _nodes),
    ("bem", "standing_mode_traces", "bem.traces", None),
    ("bem", "far_field_coefficients", "bem.far_field", None),
    ("bem", "scattered_field", "bem.scattered_field", _points_x_nodes),
    ("modal", "regular_waves_batch", "modal.regular_waves", _points_x_ports),
    ("fields", "bem_excitation_fields", "fields.excitation", _cache_bytes),
    ("fields", "mode_field_matrix", "fields.mode_fields", None),
    ("fields", "region_masks", "fields.metrics", None),
    ("fields", "localization_metrics", "fields.metrics", None),
    ("fields", "classify_modes", "fields.classify", None),
    ("wigner", "smatrix_fd_derivative", "wigner.derivative", None),
    ("wigner", "q_matrix", "wigner.decompose", None),
    ("wigner", "ws_decompose", "wigner.decompose", None),
    ("wigner", "validate_smatrix", "wigner.decompose", None),
    ("mie", "mie_smatrix", "mie.closed_form", None),
    ("mie", "mie_smatrix_deriv", "mie.closed_form", None),
    ("volumeq", "volume_q_matrix", "volumeq.volume_q", None),
    ("volumeq", "surface_identity_check", "volumeq.surface_identity", None),
] + [
    ("io", name, "io.write", None)
    for name in ("write_complex_matrix", "write_spectrum", "write_modeset",
                 "write_field_grid", "write_classification", "write_mesh")
]


def install(tracer):
    """Wrap every target under each name that binds it in wsdelay."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "wsdelay" or n.startswith("wsdelay."))]
    for module, func, name, count in TARGETS:
        original = getattr(sys.modules[f"wsdelay.{module}"], func)
        traced = tracer.wrap(original, name, count)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)


# per-layer metric -> span names whose self time it sums
SELF_TIMES = {
    "bem.assemble_s": ["bem.assemble"],
    "bem.solve_s": ["bem.solve"],
    "bem.traces_s": ["bem.traces"],
    "bem.far_field_s": ["bem.far_field"],
    "bem.smatrix_self_s": ["bem.smatrix"],
    "bem.scattered_field_s": ["bem.scattered_field"],
    "modal.regular_waves_s": ["modal.regular_waves"],
    "fields.excitation_self_s": ["fields.excitation"],
    "fields.mode_fields_s": ["fields.mode_fields"],
    "fields.metrics_s": ["fields.metrics"],
    "fields.classify_s": ["fields.classify"],
    "wigner.derivative_self_s": ["wigner.derivative"],
    "wigner.decompose_s": ["wigner.decompose"],
    "geometry.mesh_s": ["geometry.mesh"],
    "mie.closed_form_s": ["mie.closed_form"],
    "volumeq.volume_q_s": ["volumeq.volume_q"],
    "volumeq.surface_identity_s": ["volumeq.surface_identity"],
    "io.write_s": ["io.write"],
    "cli.self_s": ["cli.run_scenario"],
    "trace.uncovered_s": ["job"],
}

UNITS = {"bem.assemble_calls": "count", "bem.kernel_evals": "count",
         "modal.wave_evals": "count", "wigner.derivative_solves": "count",
         "geometry.nodes": "count", "fields.cache_mb": "MB", "io.write_mb": "MB"}


def layer_metrics(spans):
    """Per-job layer metrics from the spans of whole jobs ("job" roots)."""
    dur = [end - start for _, _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, parent, _, _, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    self_by, incl_by, calls_by, counts = {}, {}, {}, {}
    for i, (name, _, _, _, c) in enumerate(spans):
        self_by[name] = self_by.get(name, 0.0) + dur[i] - child[i]
        incl_by[name] = incl_by.get(name, 0.0) + dur[i]
        calls_by[name] = calls_by.get(name, 0) + 1
        for key, value in c.items():
            counts[key] = counts.get(key, 0) + value

    def ancestor_named(i, target):
        i = spans[i][1]
        while i >= 0:
            if spans[i][0] == target:
                return True
            i = spans[i][1]
        return False

    solves = calls_by.get("bem.solve", 0)
    fd_solves = sum(1 for i, s in enumerate(spans)
                    if s[0] == "bem.solve" and ancestor_named(i, "wigner.derivative"))
    jobs = max(calls_by.get("job", 0), 1)
    values = {m: sum(self_by.get(n, 0.0) for n in names) / jobs
              for m, names in SELF_TIMES.items()}
    values.update({
        "trace.job_s": incl_by.get("job", 0.0) / jobs,
        "wigner.derivative_s": incl_by.get("wigner.derivative", 0.0) / jobs,
        "bem.assemble_calls": calls_by.get("bem.assemble", 0) / jobs,
        "bem.kernel_evals": counts.get("kernel_evals", 0) / jobs,
        "modal.wave_evals": counts.get("wave_evals", 0) / jobs,
        "fields.cache_mb": counts.get("cache_bytes", 0) / jobs / 1e6,
        "io.write_mb": counts.get("write_bytes", 0) / jobs / 1e6,
        "wigner.derivative_solves":
            fd_solves / max(calls_by.get("wigner.derivative", 0), 1),
        "geometry.nodes": counts.get("nodes", 0) / max(solves, 1),
    })
    return {m: {"value": v, "unit": UNITS.get(m, "s")} for m, v in sorted(values.items())}
