"""File formats: complex-matrix CSV, spectra, grids, meshes, and the flat
key=value scenario config.

All numeric fields print with 17 significant digits so write/read round-trips
are exact for finite doubles; orderings follow the deterministic mode
ordering, so identical configs produce byte-identical files.
"""

import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
from .modal import ModeSet
from .smatrix import DEFAULT_SMATRIX_GATE

FMT = "%.17g"


def _fmt(x) -> str:
    return FMT % float(x)


# ---------------------------------------------------------------------------
# matrices and vectors
# ---------------------------------------------------------------------------
def _write_rows(fh, row_fmt, columns):
    """One row_fmt line per row of the stacked columns, one % per 4096 rows."""
    table = np.column_stack(columns)
    for part in np.split(table, range(4096, len(table), 4096)):
        fh.write((row_fmt * len(part)) % tuple(part.ravel().tolist()))


def write_complex_matrix(path, matrix: np.ndarray):
    m = np.asarray(matrix)
    rows, cols = np.indices(m.shape)
    with open(path, "w") as fh:
        fh.write("row,col,re,im\n")
        _write_rows(fh, f"%d,%d,{FMT},{FMT}\n", [a.ravel() for a in (rows, cols, m.real, m.imag)])


def write_spectrum(path, delays: np.ndarray):
    """Delay spectrum, ascending; index is 1-based like the mode numbering."""
    with open(path, "w") as fh:
        fh.write("index,delay\n")
        for i, d in enumerate(delays, start=1):
            fh.write(f"{i},{_fmt(d)}\n")


def write_modeset(path, modes: ModeSet):
    with open(path, "w") as fh:
        if modes.dim == 3:
            fh.write("index,l,m\n")
            for i, p in enumerate(modes.modes):
                fh.write(f"{i},{p.l},{p.m}\n")
        else:
            fh.write("index,n\n")
            for i, p in enumerate(modes.modes):
                fh.write(f"{i},{p.n}\n")


def write_field_grid(path, grid):
    """Field samples, row-major (x fastest), header x,y,re,im,masked."""
    cols = [grid.spec.points(), grid.values.real, grid.values.imag, grid.mask]
    with open(path, "w") as fh:
        fh.write("x,y,re,im,masked\n")
        _write_rows(fh, f"{FMT},{FMT},{FMT},{FMT},%d\n", cols)


def write_classification(path, classification):
    with open(path, "w") as fh:
        fh.write("index,label,delay,boundary_fraction,corner_fraction,interior_fraction,warning\n")
        for c in classification:
            fh.write(
                f"{c.index + 1},{c.label},{_fmt(c.delay)},{_fmt(c.boundary_fraction)},"
                f"{_fmt(c.corner_fraction)},{_fmt(c.interior_fraction)},{int(c.warning)}\n"
            )


def write_mesh(path, mesh):
    with open(path, "w") as fh:
        fh.write("x,y,nx,ny,weight\n")
        _write_rows(fh, ",".join([FMT] * 5) + "\n", [mesh.nodes, mesh.normals, mesh.weights])


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
    nodes_per_wavelength: float = 12.0
    grid_nx: int = 301
    grid_ny: int = 301
    grid_halfwidth: Optional[float] = None
    smatrix_gate: float = DEFAULT_SMATRIX_GATE
    vol_kr: float = 200.0
    vol_npw: float = 16.0
    checks: tuple = ()
    export_modes: tuple = ()          # 1-based mode indices for field export
    polyline: Optional[str] = None

    def validate(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.bc not in ("soft", "hard"):
            raise ConfigError(f"bc must be soft or hard, got {self.bc!r}")
        positive = {"k": self.k, "a": self.a, "w": self.w,
                    "vol_kr": self.vol_kr, "vol_npw": self.vol_npw}
        if self.grid_halfwidth is not None:
            positive["grid_halfwidth"] = self.grid_halfwidth
        for name, val in positive.items():
            if not np.isfinite(val) or val <= 0:
                raise ConfigError(f"{name} must be positive and finite")
        if self.mode_count is not None:
            if self.mode_count <= 0:
                raise ConfigError("modes must be positive")
            if self.scenario == "sphere":
                if round(np.sqrt(self.mode_count)) ** 2 != self.mode_count:
                    raise ConfigError("3D mode count must be a perfect square")
            elif self.mode_count % 2 == 0:
                raise ConfigError("2D mode count must be odd")
        if self.delta_k is not None and not 0 < self.delta_k < np.inf:
            raise ConfigError("delta_k must be positive and finite")
        if self.grid_nx < 2 or self.grid_ny < 2:
            raise ConfigError("grid_nx and grid_ny must be at least 2")
        if not 0 < self.smatrix_gate < np.inf:
            raise ConfigError("smatrix_gate must be positive and finite")
        for c in self.checks:
            if c not in CHECK_NAMES:
                raise ConfigError(f"unknown check {c!r}")
            if self.scenario != "sphere":
                raise ConfigError(f"the {c} check applies to the sphere scenario")
        if self.export_modes and self.scenario == "sphere":
            raise ConfigError("field exports apply to the 2D scenarios")
        if self.scenario == "custom" and not self.polyline:
            raise ConfigError("custom scenario needs polyline=<csv path>")
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
    "grid_halfwidth": float,
    "smatrix_gate": float,
    "vol_kr": float,
    "vol_npw": float,
    "checks": lambda s: tuple(x.strip() for x in s.split(",") if x.strip()),
    "export_modes": lambda s: tuple(int(x) for x in s.split(",") if x.strip()),
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
