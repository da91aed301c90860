"""Scenario runner: solve, assemble Q, decompose, map fields, write artifacts.

One invocation runs one scenario from a flat key=value config and writes all
outputs (matrices, spectrum, eigenvector matrix, classification, requested
mode fields, mesh dump and a report with machine-readable gate=value lines)
into the output directory. Exit codes: 0 all gates pass, 2 gate failure,
3 input error, 4 solver failure.

Units are fixed throughout: lengths in meters, k in 1/m, sound speed 1 m/s,
so reported delays are numerically path lengths.
"""

import argparse
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import io as wio
from .bem import bem_smatrix
from .errors import ConfigError, DomainError, SolverError, WsdelayError
from .fields import (
    ClassificationThresholds,
    GridSpec,
    RegionMasks,
    bem_excitation_fields,
    classify_modes,
    group_counts,
    localization_metrics,
    modal_excitation_fields,
    region_masks,
)
from .geometry import (
    CAVITY_INTERIOR_BOX,
    GRADING_EXPONENT,
    BoundaryMesh,
    Geometry,
    make_geometry,
    mesh_geometry,
)
from .mie import mie_smatrix, mie_smatrix_deriv
from .modal import ModeIndex, ModeSet, suggested_mode_count
from .smatrix import DEFAULT_SMATRIX_GATE, BoundaryCondition
from .volumeq import surface_identity_check, volume_q_matrix
from .wigner import fd_step, q_matrix, smatrix_fd_derivative, validate_smatrix, ws_decompose

UNITS_NOTE = (
    "units: meters; k in 1/m; c_sound = 1 m/s; delays in s are numerically lengths"
)


def _grid_halfwidth(cfg, circumradius):
    if cfg.scenario == "strip":
        return 40.0
    if cfg.scenario == "cavity":
        return 25.0
    return max(1.6 * circumradius, 3.0 * 2.0 * np.pi / cfg.k)


class GateLedger:
    """Collects gate values and limits; a gate passes when value <= limit."""

    def __init__(self):
        self.entries = []

    def add(self, name, value, limit):
        self.entries.append((name, float(value), float(limit)))

    def record(self, name, value):
        self.entries.append((name, float(value), None))

    @property
    def passed(self):
        return all(v <= lim for _, v, lim in self.entries if lim is not None)

    def lines(self):
        out = []
        for name, v, lim in self.entries:
            if lim is None:
                out.append(f"{name}={v:.6e}")
            else:
                out.append(f"{name}={v:.6e} limit={lim:.6e} pass={int(v <= lim)}")
        out.append(f"overall_pass={int(self.passed)}")
        return out


@dataclass
class _Setup:
    dim: int
    bc: BoundaryCondition
    geometry: Optional[Geometry]    # None for the sphere
    circumradius: float
    modes: ModeSet
    mesh: Optional[BoundaryMesh]    # None for the closed-form scenarios
    grid: Optional[GridSpec]        # field-map grid, 2D only
    regions: Optional[RegionMasks]  # the grid's live points and metric regions


def _setup(cfg) -> _Setup:
    """Geometry, ports, mesh, grids and the field grid's regions, with every
    check that needs M, the scatterer's size, the mesh or the regions: no
    boundary node may sit on the basis origin, and each region the
    classifier reads must hold a grid point. Default M is the truncation
    rule at the circumradius."""
    k, dim = cfg.k, 3 if cfg.scenario == "sphere" else 2
    geometry = None
    if cfg.scenario == "custom":
        geometry = make_geometry("custom", vertices=wio.read_polyline(cfg.polyline))
    elif dim == 2:
        geometry = make_geometry(cfg.scenario, a=cfg.a, w=cfg.w)
    circumradius = cfg.a
    if geometry is not None and geometry.corners:
        circumradius = max(np.hypot(*v) for v in geometry.corners)
    count = cfg.mode_count
    if count is None:
        count = suggested_mode_count(k, circumradius, dim)
    modes = ModeSet.with_count(dim, count, k)
    for idx1 in cfg.export_modes:
        if not 1 <= idx1 <= len(modes):
            raise ConfigError(f"export mode {idx1} out of range 1..{len(modes)}")
    mesh = grid = regions = None
    if cfg.scenario not in ("sphere", "cylinder"):
        mesh = mesh_geometry(geometry, k, cfg.nodes_per_wavelength)
        if np.any(np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1]) == 0.0):
            raise ConfigError("boundary node at the basis origin")
    if dim == 2:
        hw = _grid_halfwidth(cfg, circumradius)
        grid = GridSpec(-hw, hw, -hw, hw, cfg.grid_nx, cfg.grid_ny)
        interior = CAVITY_INTERIOR_BOX if cfg.scenario == "cavity" else None
        regions = region_masks(geometry, grid, k, mesh, interior_box=interior)
        read = {"live": regions.live, "boundary": regions.boundary,
                "corner": regions.corner if geometry.corners else True,
                "interior": regions.interior if interior else True}
        empty = [name for name, mask in read.items() if not np.any(mask)]
        if empty:
            raise ConfigError(f"field grid has no {', '.join(empty)} points to classify from")
    bc = BoundaryCondition.SOUND_SOFT if cfg.bc == "soft" else BoundaryCondition.SOUND_HARD
    return _Setup(dim, bc, geometry, circumradius, modes, mesh, grid, regions)


def _solve(cfg, st):
    """S and dS/dk: closed form for the sphere and cylinder, the Nystrom
    solver with a central difference otherwise. Returns
    (s, sprime, provenance, boundary solution or None, report lines)."""
    k, modes = cfg.k, st.modes
    if st.mesh is None:
        s = mie_smatrix(st.dim, st.bc, k, cfg.a, modes)
        sprime = mie_smatrix_deriv(st.dim, st.bc, k, cfg.a, modes)
        return s, sprime, "analytic", None, [f"solver: separation of variables, a={cfg.a:g}"]
    s, solution = bem_smatrix(
        st.geometry, st.bc, k, modes, mesh=st.mesh, gate=None, return_solution=True
    )

    def provider(kp):
        return bem_smatrix(
            st.geometry, st.bc, kp, ModeSet.with_count(2, len(modes), kp),
            mesh=st.mesh, gate=None,
        )

    dk = fd_step(k, cfg.delta_k)
    sprime = smatrix_fd_derivative(provider, k, dk=dk)
    lines = [
        f"solver: combined-field Nystrom, {st.mesh.n_nodes} nodes, "
        f"{cfg.nodes_per_wavelength:g}/wavelength, grading p={GRADING_EXPONENT}",
        f"derivative: central difference, dk={dk:g}",
    ]
    return s, sprime, "finite-difference", solution, lines


def _decompose(cfg, st, s, sprime, provenance):
    """Q, its delay eigenmodes and the gates, in report order; the first,
    with no limit, is M's shortfall from the truncation rule."""
    q = q_matrix(s, sprime, provenance=provenance)
    dec = ws_decompose(q, s)
    gate = DEFAULT_SMATRIX_GATE
    gates = GateLedger()
    rule = suggested_mode_count(cfg.k, st.circumradius, st.dim)
    gates.record("mode_count_shortfall", max(0, rule - len(st.modes)))
    srep = validate_smatrix(s)
    gates.add("unitarity_residual", srep.unitarity_residual, gate)
    gates.add("symmetry_residual", srep.symmetry_residual, gate)
    gates.record("q_presym_residual", q.presym_residual)
    gates.add("w_orthonormality", dec.orthonormality_residual(), 1e-10)
    gates.add("q_reconstruction", dec.reconstruction_residual(q), 1e-10)
    gates.add(
        "diagonal_delay_identity",
        dec.diagonal_delay_identity_residual(q),
        1e-10 * max(1.0, float(np.max(np.abs(dec.delays)))),
    )
    gates.add("simdiag_offdiag", dec.simdiag_offdiag_residual(), 10 * gate)
    gates.add(
        "sbar_unimodular",
        float(np.max(np.abs(np.abs(np.diag(dec.sbar)) - 1.0))),
        10 * gate,
    )
    return q, dec, gates


def _sphere_checks(cfg, st, s, sprime, q, gates):
    """Volume routes against j S^dag S' and the Appendix B surface identities,
    both read off the solve's S and S', added to the gates; returns the volume
    routes' residual rows, or None."""
    rows = None
    if "volume-q" in cfg.checks:
        scale = float(np.max(np.abs(np.diag(q.matrix))))
        rows = []
        for style, qv in volume_q_matrix(s, cfg.a).items():
            gates.add(f"volume_route_{style}", np.max(np.abs(qv.matrix - q.matrix)) / scale, 1e-3)
            for i in range(len(st.modes)):
                val, ref = qv.matrix[i, i], q.matrix[i, i]
                rows.append((i, i, style, val.real, val.imag, ref.real, ref.imag,
                             abs(val - ref) / max(abs(ref), 1e-300)))
    if "appendix-b" in cfg.checks:
        # diagonal pairs, so every one has a numeric side; (1, 1) reads its
        # conjugate port (1, -1) with sign -1
        ports = [(0, 0)]
        if max(p.l for p in st.modes.modes) >= 1:
            ports += [(1, 0), (1, 1)]
        pairs = [(ModeIndex.spherical(*lm),) * 2 for lm in ports]
        reports = surface_identity_check(s, sprime, pairs, cfg.vol_kr / cfg.k)
        gates.add("appendix_b_algebraic", max(r.algebraic_residual for r in reports), 1e-12)
        gates.add("appendix_b_numeric", max(r.numeric_rel_error for r in reports), 1e-2)
    return rows


def _field_maps(cfg, st, s, solution, dec):
    """Classify the delay eigenmodes from their energy fractions.

    Returns (classification, baselines, [(index, values)] of the exported
    modes); one pass over the grid gives the region Grams and the exported
    modes' values, and no other point values.
    """
    if st.grid is None:
        return None, None, []
    regions = st.regions
    export = dec.w[:, [i - 1 for i in cfg.export_modes]]
    if solution is None:
        grams, values = modal_excitation_fields(s, st.grid, regions, export)
    else:
        grams, values = bem_excitation_fields(
            st.mesh, solution, st.modes, st.grid, regions, export)
    fractions = localization_metrics(grams, dec.w)
    thresholds = ClassificationThresholds(tau_ballistic=2.0 * st.circumradius)
    classification = classify_modes(dec.delays, fractions, regions.baselines, thresholds)
    exports = [(i, values[:, j]) for j, i in enumerate(cfg.export_modes)]
    return classification, regions.baselines, exports


def _report(cfg, st, solver_lines, classification, dec, gates):
    lines = [
        "wsdelay scenario report",
        "=======================",
        f"scenario={cfg.scenario} bc={cfg.bc} k={cfg.k:g} M={len(st.modes)} dim={st.dim}",
        UNITS_NOTE,
        *solver_lines,
    ]
    if classification is not None:
        counts = group_counts(classification)
        lines.append(
            "classification: " + " ".join(f"{n}={counts[n]}" for n in sorted(counts))
        )
    lines.append(f"delays: min={dec.delays[0]:.6g} max={dec.delays[-1]:.6g}")
    return lines + ["", "[gates]"] + gates.lines()


def _write(out_dir, st, matrices, delays, residual_rows, classification, exports, report):
    """Create out_dir and name every artifact: the only stage that touches it."""
    os.makedirs(out_dir, exist_ok=True)

    def path(name):
        return os.path.join(out_dir, name)

    if residual_rows is not None:
        wio.write_volume_residuals(path("volumeq_residuals.csv"), residual_rows)
    if classification is not None:
        wio.write_classification(path("classification.csv"), classification)
    for idx1, values in exports:
        wio.write_field_grid(path(f"mode_{idx1:03d}_field.csv"), st.grid, values,
                             ~st.regions.live)
    for name, matrix in matrices.items():
        wio.write_complex_matrix(path(f"{name}.csv"), matrix)
    wio.write_spectrum(path("spectrum.csv"), delays)
    wio.write_modeset(path("modes.csv"), st.modes)
    if st.mesh is not None:
        wio.write_mesh(path("mesh.csv"), st.mesh)
    wio.write_report(path("report.txt"), report)


def run_scenario(cfg, out_dir):
    """Execute one scenario and write all artifacts; returns the summary.

    Stages: setup, solve, decompose and gates, sphere checks, field maps,
    write. Only the last one touches out_dir, so a run that fails earlier
    leaves nothing behind.
    """
    cfg.validate()
    st = _setup(cfg)
    s, sprime, provenance, solution, solver_lines = _solve(cfg, st)
    q, dec, gates = _decompose(cfg, st, s, sprime, provenance)
    residual_rows = _sphere_checks(cfg, st, s, sprime, q, gates)
    classification, baselines, exports = _field_maps(cfg, st, s, solution, dec)
    report = _report(cfg, st, solver_lines, classification, dec, gates)
    matrices = {"smatrix": s.matrix, "sprime": sprime.matrix,
                "qmatrix": q.matrix, "wmatrix": dec.w}
    _write(out_dir, st, matrices, dec.delays, residual_rows, classification,
           exports, report)
    return {
        "passed": gates.passed,
        "gates": gates.entries,
        "delays": dec.delays,
        "classification": classification,
        "baselines": baselines,
        "circumradius": st.circumradius,
        "smatrix": s,
        "qmatrix": q,
        "decomposition": dec,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wsdelay",
        description="Time-delay analysis of acoustic Helmholtz scattering",
    )
    parser.add_argument("--config", required=True, help="scenario config file")
    parser.add_argument("--out", default="wsdelay_out", help="output directory")
    parser.add_argument(
        "--check", default=None, help="comma-separated sphere checks (volume-q,appendix-b)"
    )
    parser.add_argument(
        "--modes", default=None, help="comma-separated 1-based mode indices to export fields"
    )
    args = parser.parse_args(argv)

    try:
        cfg = wio.parse_config(args.config)
        if args.check:
            cfg.checks = tuple(x.strip() for x in args.check.split(",") if x.strip())
        if args.modes:
            cfg.export_modes = tuple(int(x) for x in args.modes.split(","))
    except (ConfigError, ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3

    try:
        summary = run_scenario(cfg, args.out)
    except (ConfigError, DomainError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"solver error: out of memory: {str(exc) or 'no detail'}", file=sys.stderr)
        return 4
    except WsdelayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4

    print(f"report written to {os.path.join(args.out, 'report.txt')}")
    for line in summary["gates"]:
        name, value, limit = line
        status = "" if limit is None else ("  PASS" if value <= limit else "  FAIL")
        print(f"  {name} = {value:.3e}{status}")
    if not summary["passed"]:
        print("gate failure", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
