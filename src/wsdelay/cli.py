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

import numpy as np

from . import io as wio
from .bem import bem_smatrix
from .errors import (
    AccuracyError,
    ConfigError,
    DomainError,
    GeometryError,
    SolverError,
    WsdelayError,
)
from .fields import (
    ClassificationThresholds,
    FieldGrid,
    GridSpec,
    bem_excitation_fields,
    classify_modes,
    group_counts,
    localization_metrics,
    mode_field_matrix,
    modal_excitation_fields,
    region_masks,
)
from .geometry import (
    CAVITY_INTERIOR_BOX,
    make_geometry,
    mesh_geometry,
)
from .mie import mie_smatrix, mie_smatrix_deriv
from .modal import ModeIndex, ModeSet, suggested_mode_count
from .smatrix import BoundaryCondition
from .volumeq import STYLES, QuadratureSpec, surface_identity_check, volume_q_matrix
from .wigner import q_matrix, smatrix_fd_derivative, validate_smatrix, ws_decompose

UNITS_NOTE = (
    "units: meters; k in 1/m; c_sound = 1 m/s; delays in s are numerically lengths"
)


def _bc(cfg) -> BoundaryCondition:
    return (
        BoundaryCondition.SOUND_SOFT if cfg.bc == "soft" else BoundaryCondition.SOUND_HARD
    )


def _mode_count(cfg, dim):
    if cfg.mode_count is not None:
        return cfg.mode_count
    a = cfg.suggest_a if cfg.suggest_a is not None else cfg.a
    return suggested_mode_count(cfg.k, a, cfg.suggest_c, dim)


def _grid_halfwidth(cfg, circumradius):
    if cfg.grid_halfwidth is not None:
        return cfg.grid_halfwidth
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


def run_scenario(cfg, out_dir):
    """Execute one scenario and write all artifacts; returns the summary."""
    cfg.validate()
    wio.ensure_dir(out_dir)
    k = cfg.k
    bc = _bc(cfg)
    dim = 3 if cfg.scenario == "sphere" else 2
    modes = ModeSet.with_count(dim, _mode_count(cfg, dim), k)
    gates = GateLedger()
    report = []
    report.append("wsdelay scenario report")
    report.append("=======================")
    report.append(
        f"scenario={cfg.scenario} bc={cfg.bc} k={k:g} M={len(modes)} dim={dim}"
    )
    report.append(UNITS_NOTE)

    geometry = None
    mesh = None
    dk = cfg.delta_k if cfg.delta_k is not None else 1e-4 * k

    if cfg.scenario == "sphere":
        s = mie_smatrix(3, bc, k, cfg.a, modes)
        sprime = mie_smatrix_deriv(3, bc, k, cfg.a, modes)
        provenance = "analytic"
        circumradius = cfg.a
        report.append(f"solver: separation of variables, a={cfg.a:g}")
    elif cfg.scenario == "cylinder":
        s = mie_smatrix(2, bc, k, cfg.a, modes)
        sprime = mie_smatrix_deriv(2, bc, k, cfg.a, modes)
        provenance = "analytic"
        geometry = make_geometry("circle", a=cfg.a)
        circumradius = cfg.a
        report.append(f"solver: separation of variables, a={cfg.a:g}")
    else:
        if cfg.scenario == "strip":
            geometry = make_geometry("strip")
        elif cfg.scenario == "cavity":
            geometry = make_geometry("cavity", w=cfg.w)
        else:
            geometry = make_geometry(
                "custom", vertices=wio.read_polyline(cfg.polyline)
            )
        mesh = mesh_geometry(
            geometry, k, cfg.nodes_per_wavelength, cfg.grading_exponent
        )
        s, solution, mesh = bem_smatrix(
            geometry, bc, k, modes, mesh=mesh, gate=None, return_solution=True
        )

        def provider(kp):
            return bem_smatrix(
                geometry,
                bc,
                kp,
                ModeSet.with_count(2, len(modes), kp),
                mesh=mesh,
                gate=None,
            )

        sprime = smatrix_fd_derivative(provider, k, dk=dk, richardson=cfg.richardson)
        provenance = "finite-difference"
        circumradius = max(np.hypot(*v) for v in geometry.corners)
        report.append(
            f"solver: combined-field Nystrom, {mesh.n_nodes} nodes, "
            f"{cfg.nodes_per_wavelength:g}/wavelength, grading p={cfg.grading_exponent}"
        )
        report.append(f"derivative: central difference, dk={dk:g}"
                      + (" with Richardson pass" if cfg.richardson else ""))

    q = q_matrix(s, sprime, provenance=provenance)
    dec = ws_decompose(q, s)

    srep = validate_smatrix(s, cfg.smatrix_gate)
    gates.add("unitarity_residual", srep.unitarity_residual, cfg.smatrix_gate)
    gates.add("symmetry_residual", srep.symmetry_residual, cfg.smatrix_gate)
    gates.record("q_presym_residual", q.presym_residual)
    gates.add("hermiticity_residual", q.hermiticity_residual(), 1e-12)
    gates.add("w_orthonormality", dec.orthonormality_residual(), 1e-10)
    gates.add("q_reconstruction", dec.reconstruction_residual(q), 1e-10)
    gates.add(
        "diagonal_delay_identity",
        dec.diagonal_delay_identity_residual(q),
        1e-10 * max(1.0, float(np.max(np.abs(dec.delays)))),
    )
    gates.add("simdiag_offdiag", dec.simdiag_offdiag_residual(), 10 * cfg.smatrix_gate)
    gates.add(
        "sbar_unimodular",
        float(np.max(np.abs(np.abs(np.diag(dec.sbar)) - 1.0))),
        10 * cfg.smatrix_gate,
    )

    if "volume-q" in cfg.checks:
        quad = QuadratureSpec(radius=cfg.vol_kr / k, nodes_per_wavelength=cfg.vol_npw)
        scale = float(np.max(np.abs(np.diag(q.matrix))))
        residual_rows = []
        for style in STYLES:
            qv = volume_q_matrix(style, bc, k, cfg.a, modes, quad)
            rel = float(np.max(np.abs(qv.matrix - q.matrix))) / scale
            gates.add(f"volume_route_{style}", rel, 1e-3)
            for i in range(len(modes)):
                val, ref = qv.matrix[i, i], q.matrix[i, i]
                residual_rows.append(
                    (i, i, style, val.real, val.imag, ref.real, ref.imag,
                     abs(val - ref) / max(abs(ref), 1e-300))
                )
        with open(os.path.join(out_dir, "volumeq_residuals.csv"), "w") as fh:
            fh.write("p,q,route,value_re,value_im,reference_re,reference_im,rel_err\n")
            for row in residual_rows:
                fh.write(
                    f"{row[0]},{row[1]},{row[2]},"
                    + ",".join(wio.FMT % v for v in row[3:])
                    + "\n"
                )

    if "appendix-b" in cfg.checks:
        radius = cfg.vol_kr / k
        lmax = max(p.l for p in modes.modes)
        pairs = [(ModeIndex.spherical(0, 0), ModeIndex.spherical(0, 0))]
        if lmax >= 1:
            pairs.append((ModeIndex.spherical(1, 0), ModeIndex.spherical(1, 0)))
            pairs.append((ModeIndex.spherical(0, 0), ModeIndex.spherical(1, 0)))
        alg = num = 0.0
        for p, qq in pairs:
            repx = surface_identity_check(p, qq, bc, k, cfg.a, radius)
            alg = max(alg, repx.algebraic_residual)
            if (p.l, p.m) == (qq.l, qq.m):
                num = max(num, repx.numeric_rel_error)
        gates.add("appendix_b_algebraic", alg, 1e-12)
        gates.add("appendix_b_numeric", num, 1e-2)

    classification = None
    baselines = None
    if dim == 2 and geometry is not None:
        hw = _grid_halfwidth(cfg, circumradius)
        grid = GridSpec(-hw, hw, -hw, hw, cfg.grid_nx, cfg.grid_ny)
        if cfg.scenario == "cylinder":
            cache = modal_excitation_fields(s, geometry, grid)
        else:
            cache = bem_excitation_fields(mesh, solution, modes, grid)
        mode_fields = mode_field_matrix(cache, dec.w)
        interior = CAVITY_INTERIOR_BOX if cfg.scenario == "cavity" else None
        regions = region_masks(geometry, grid, k, cache.mask, interior_box=interior)
        metrics = [
            localization_metrics(mode_fields[:, i], regions)
            for i in range(mode_fields.shape[1])
        ]
        baselines = regions.baselines
        thresholds = ClassificationThresholds(tau_ballistic=2.0 * circumradius)
        classification = classify_modes(dec.delays, metrics, thresholds)
        wio.write_classification(os.path.join(out_dir, "classification.csv"), classification)
        counts = group_counts(classification)
        report.append(
            "classification: "
            + " ".join(f"{name}={counts[name]}" for name in sorted(counts))
        )
        for idx1 in cfg.export_modes:
            if not 1 <= idx1 <= len(modes):
                raise ConfigError(f"export mode {idx1} out of range 1..{len(modes)}")
            fg = FieldGrid(
                spec=grid,
                values=mode_fields[:, idx1 - 1],
                mask=cache.mask,
                k=k,
            )
            wio.write_field_grid(
                os.path.join(out_dir, f"mode_{idx1:03d}_field.csv"), fg
            )

    wio.write_complex_matrix(os.path.join(out_dir, "smatrix.csv"), s.matrix)
    wio.write_complex_matrix(os.path.join(out_dir, "sprime.csv"), sprime.matrix)
    wio.write_complex_matrix(os.path.join(out_dir, "qmatrix.csv"), q.matrix)
    wio.write_complex_matrix(os.path.join(out_dir, "wmatrix.csv"), dec.w)
    wio.write_spectrum(os.path.join(out_dir, "spectrum.csv"), dec.delays)
    wio.write_modeset(os.path.join(out_dir, "modes.csv"), modes)
    if mesh is not None:
        wio.write_mesh(os.path.join(out_dir, "mesh.csv"), mesh)

    report.append(
        f"delays: min={dec.delays[0]:.6g} max={dec.delays[-1]:.6g}"
    )
    report.append("")
    report.append("[gates]")
    report.extend(gates.lines())
    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        fh.write("\n".join(report) + "\n")

    return {
        "passed": gates.passed,
        "gates": gates.entries,
        "delays": dec.delays,
        "classification": classification,
        "baselines": baselines,
        "circumradius": circumradius,
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
        "--check", default=None, help="comma-separated extra sphere checks (volume-q,appendix-b)"
    )
    parser.add_argument(
        "--modes", default=None, help="comma-separated 1-based mode indices to export fields"
    )
    args = parser.parse_args(argv)

    try:
        cfg = wio.parse_config(args.config)
        if args.check:
            extra = tuple(x.strip() for x in args.check.split(",") if x.strip())
            cfg.checks = tuple(dict.fromkeys(cfg.checks + extra))
        if args.modes:
            cfg.export_modes = tuple(int(x) for x in args.modes.split(","))
        cfg.validate()
    except (ConfigError, ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3

    try:
        summary = run_scenario(cfg, args.out)
    except (ConfigError, DomainError, GeometryError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except (SolverError, AccuracyError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
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
