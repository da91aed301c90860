"""File formats: every artifact a run writes (matrices, spectra, ports,
field grids, classification, volume residuals, meshes, the report) and the
flat key=value scenario config.

Every CSV goes through one writer, and all numeric fields print with 17
significant digits so write/read round-trips are exact for finite doubles;
orderings follow the deterministic mode ordering, so identical configs
produce byte-identical files.
"""

import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DomainError
from .fields import GridSpec
from .geometry import NODES_PER_WAVELENGTH
from .modal import ModeSet, suggested_mode_count
from .specfun import ORDER_MAX

FMT = "%.17g"


def _write_csv(path, header, row_fmt, columns):
    """Write header, then one row_fmt line per row of the stacked columns,
    formatted 4096 rows per %; a mixed-type table is one object block."""
    table = np.column_stack(columns)
    line = row_fmt + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for part in np.split(table, range(4096, len(table), 4096)):
            fh.write((line * len(part)) % tuple(part.ravel().tolist()))


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------
def write_complex_matrix(path, matrix: np.ndarray):
    m = np.asarray(matrix)
    rows, cols = np.indices(m.shape)
    _write_csv(path, "row,col,re,im", f"%d,%d,{FMT},{FMT}",
               [a.ravel() for a in (rows, cols, m.real, m.imag)])


def write_spectrum(path, delays: np.ndarray):
    """Delay spectrum, ascending; index is 1-based like the mode numbering."""
    _write_csv(path, "index,delay", f"%d,{FMT}", [np.arange(1, len(delays) + 1), delays])


def write_modeset(path, modes: ModeSet):
    if modes.dim == 3:
        ports = [(p.l, p.m) for p in modes.modes]
        header, row_fmt = "index,l,m", "%d,%d,%d"
    else:
        ports = [(p.n,) for p in modes.modes]
        header, row_fmt = "index,n", "%d,%d"
    _write_csv(path, header, row_fmt, [np.arange(len(ports)), ports])


def write_field_grid(path, spec, values: np.ndarray, mask: np.ndarray):
    """Field samples at spec's points, row-major (x fastest); masked points
    are inside the scatterer (or in the unreliable boundary band) and hold 0."""
    _write_csv(path, "x,y,re,im,masked", f"{FMT},{FMT},{FMT},{FMT},%d",
               [spec.points(), values.real, values.imag, mask])


def write_classification(path, classification):
    rows = [(c.index + 1, c.label, c.delay, c.boundary_fraction, c.corner_fraction,
             c.interior_fraction, c.warning) for c in classification]
    _write_csv(path, "index,label,delay,boundary_fraction,corner_fraction,"
               "interior_fraction,warning", f"%d,%s,{FMT},{FMT},{FMT},{FMT},%d",
               [np.array(rows, dtype=object)])


def write_volume_residuals(path, rows):
    """The volume routes' Q diagonals against j S^dag S', one row per
    (p, q, route, value, reference, relative error)."""
    _write_csv(path, "p,q,route,value_re,value_im,reference_re,reference_im,rel_err",
               "%d,%d,%s," + ",".join([FMT] * 5), [np.array(rows, dtype=object)])


def write_mesh(path, mesh):
    _write_csv(path, "x,y,nx,ny,weight", ",".join([FMT] * 5),
               [mesh.nodes, mesh.normals, mesh.weights])


def write_report(path, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# scenario config
# ---------------------------------------------------------------------------
SCENARIOS = ("sphere", "cylinder", "strip", "cavity", "custom")
CHECK_NAMES = ("volume-q", "appendix-b")    # both sphere-only


@dataclass
class ScenarioConfig:
    scenario: str
    bc: str = "soft"
    k: float = 1.0
    a: float = 1.0                    # sphere/cylinder radius
    w: float = 3.0                    # cavity gap width
    mode_count: Optional[int] = None  # explicit M; default from the circumradius
    delta_k: Optional[float] = None   # FD step; default wigner.fd_step
    nodes_per_wavelength: float = NODES_PER_WAVELENGTH
    grid_nx: int = GridSpec.nx
    grid_ny: int = GridSpec.ny
    vol_kr: float = 200.0
    checks: tuple = ()                # set from --check
    export_modes: tuple = ()          # 1-based mode indices, set from --modes
    polyline: Optional[str] = None

    def validate(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.bc not in ("soft", "hard"):
            raise ConfigError(f"bc must be soft or hard, got {self.bc!r}")
        positive = {"k": self.k, "a": self.a, "w": self.w, "vol_kr": self.vol_kr}
        for name, val in positive.items():
            if not np.isfinite(val) or val <= 0:
                raise ConfigError(f"{name} must be positive and finite")
        dim = 3 if self.scenario == "sphere" else 2
        ports = None
        if self.mode_count is not None:
            if self.mode_count <= 0:
                raise ConfigError("modes must be positive")
            try:
                ports = ModeSet.with_count(dim, self.mode_count, self.k)
            except DomainError as exc:
                raise ConfigError(str(exc)) from None
        if self.delta_k is not None and not 0 < self.delta_k < self.k:
            raise ConfigError("delta_k must be positive and below k")
        if not 6 <= self.nodes_per_wavelength < np.inf:
            raise ConfigError("nodes_per_wavelength must be finite and at least 6")
        if self.grid_nx < 2 or self.grid_ny < 2:
            raise ConfigError("grid_nx and grid_ny must be at least 2")
        for c in self.checks:
            if c not in CHECK_NAMES:
                raise ConfigError(f"unknown check {c!r}")
            if self.scenario != "sphere":
                raise ConfigError(f"the {c} check applies to the sphere scenario")
        if "appendix-b" in self.checks:
            # the Appendix-B surface r = vol_kr/k is in the far zone, well
            # outside the sphere
            if self.vol_kr < 50.0:
                raise ConfigError("appendix-b needs vol_kr >= 50 (far-zone surface)")
            if self.vol_kr / self.k < 3.0 * self.a:
                raise ConfigError("appendix-b needs vol_kr/k >= 3a (surface outside the sphere)")
        if self.export_modes and self.scenario == "sphere":
            raise ConfigError("field exports apply to the 2D scenarios")
        if self.scenario == "custom" and not self.polyline:
            raise ConfigError("custom scenario needs polyline=<csv path>")
        if self.scenario in ("sphere", "cylinder"):
            # the closed forms' Hankel tables stop at ORDER_MAX; the default
            # count is the truncation rule at the radius a
            if ports is None:
                ports = ModeSet.with_count(dim, suggested_mode_count(self.k, self.a, dim), self.k)
            if ports.top > ORDER_MAX:
                raise ConfigError(
                    f"{len(ports)} modes reach order {ports.top}, past ceiling {ORDER_MAX}")
        return self


_FIELD_PARSERS = {
    "scenario": str,
    "bc": str,
    "k": float,
    "a": float,
    "w": float,
    "modes": int,
    "delta_k": float,
    "nodes_per_wavelength": float,
    "grid_nx": int,
    "grid_ny": int,
    "vol_kr": float,
    "polyline": str,
}

_FIELD_NAMES = {"modes": "mode_count"}


def parse_config(path) -> ScenarioConfig:
    """Parse the flat key=value scenario file.

    # starts a comment at the start of a line or after whitespace, so a value
    such as a path may itself contain #.
    """
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("expected key=value", line=lineno)
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in _FIELD_PARSERS:
                raise ConfigError(f"unknown key {key!r}", line=lineno)
            name = _FIELD_NAMES.get(key, key)
            if name in values:
                raise ConfigError(f"repeated key {key!r}", line=lineno)
            try:
                values[name] = _FIELD_PARSERS[key](val)
            except ConfigError:
                raise
            except Exception as exc:
                raise ConfigError(f"bad value for {key}: {exc}", line=lineno) from None
    if "scenario" not in values:
        raise ConfigError("config must set scenario=")
    return ScenarioConfig(**values).validate()


def read_polyline(path) -> np.ndarray:
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read polyline file: {exc}") from None
    verts = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            x, y = (float(v) for v in line.replace(",", " ").split())
        except ValueError:
            raise ConfigError("expected two numeric coordinates per line", line=lineno) from None
        verts.append((x, y))
    return np.asarray(verts, dtype=float)
