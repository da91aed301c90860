import dataclasses
import tracemalloc

import numpy as np
import pytest

from wsdelay import cli, fields
from wsdelay.bem import bem_smatrix, scattered_field
from wsdelay.errors import DomainError
from wsdelay.fields import (
    ClassificationThresholds,
    GridSpec,
    bem_excitation_fields,
    classify_modes,
    group_counts,
    localization_metrics,
    mode_field_matrix,
    modal_excitation_fields,
    region_masks,
)
from wsdelay.geometry import make_cavity, make_circle, make_strip, mesh_geometry
from wsdelay.io import ScenarioConfig
from wsdelay.mie import free_space_smatrix, mie_smatrix, mie_smatrix_deriv
from wsdelay.modal import ModeSet, regular_waves_batch
from wsdelay.smatrix import BoundaryCondition
from wsdelay.wigner import q_matrix, smatrix_fd_derivative, ws_decompose
from test_modal import ref_outgoing

SOFT = BoundaryCondition.SOUND_SOFT
HARD = BoundaryCondition.SOUND_HARD


def whole_bem_fields(mesh, sol, modes, spec, live):
    """The full-matrix reference: every excitation's total field at every
    grid point, built whole by one scattered_field call, 0 at dead points."""
    pts = spec.points()
    out = np.zeros((len(pts), len(modes)), dtype=complex)
    out[live] = scattered_field(mesh, sol, pts[live]) + regular_waves_batch(modes, sol.k, pts[live])
    return out


def whole_modal_fields(s, spec, live):
    """The same from the partial waves, one scipy Hankel call per port."""
    pts = spec.points()[live]
    delta = s.matrix - free_space_smatrix(s.modes).matrix
    want = regular_waves_batch(s.modes, s.k, pts)
    for row, q in enumerate(s.modes.modes):
        want += ref_outgoing(q, s.k, pts)[:, None] * delta[row]
    out = np.zeros((len(live), len(s.modes)), dtype=complex)
    out[live] = want
    return out


@pytest.fixture(scope="module")
def circle_case():
    k, a = 1.0, 2.0
    geom = make_circle(a)
    modes = ModeSet.angular(5, k)
    mesh = mesh_geometry(geom, k)
    s, sol = bem_smatrix(geom, SOFT, k, modes, mesh=mesh, gate=None, return_solution=True)
    spec = GridSpec(-10, 10, -10, 10, nx=81, ny=81)
    regions = region_masks(geom, spec, k, mesh)

    def export(w):
        return bem_excitation_fields(mesh, sol, modes, spec, regions, w)[1]

    return geom, modes, s, spec, regions, whole_bem_fields(mesh, sol, modes, spec, regions.live), export


class TestGridSpec:
    def test_points_row_major(self):
        spec = GridSpec(0, 1, 0, 2, nx=2, ny=3)
        pts = spec.points()
        assert pts.shape == (6, 2)
        assert np.allclose(pts[0], [0, 0])
        assert np.allclose(pts[1], [1, 0])  # x varies fastest
        assert np.allclose(pts[-1], [1, 2])

    def test_invalid(self):
        with pytest.raises(DomainError):
            GridSpec(0, 0, 0, 1)


class TestModeFields:
    def test_identity_column_reproduces_excitation(self, circle_case):
        _, modes, _, _, _, whole, export = circle_case
        mf = export(np.eye(len(modes), dtype=complex))
        assert np.allclose(mf[:, 2], whole[:, 2])

    def test_linearity(self, circle_case):
        _, modes, _, _, _, _, export = circle_case
        rng = np.random.default_rng(0)
        u = rng.normal(size=len(modes)) + 1j * rng.normal(size=len(modes))
        v = rng.normal(size=len(modes)) + 1j * rng.normal(size=len(modes))
        al, be = 1.3 - 0.4j, -0.2 + 2.0j
        mf = export(np.column_stack([al * u + be * v, u, v]))
        lhs, rhs = mf[:, 0], al * mf[:, 1] + be * mf[:, 2]
        scale = np.max(np.abs(rhs))
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale

    def test_parseval_for_unitary_w(self, circle_case):
        _, modes, _, _, _, whole, export = circle_case
        rng = np.random.default_rng(1)
        a = rng.normal(size=(len(modes),) * 2) + 1j * rng.normal(size=(len(modes),) * 2)
        w, _ = np.linalg.qr(a)
        e_modes = np.sum(np.abs(export(w)) ** 2)
        e_exc = np.sum(np.abs(whole) ** 2)
        assert e_modes == pytest.approx(e_exc, rel=1e-6)

    def test_masked_points_are_zero(self, circle_case):
        _, modes, _, _, regions, _, export = circle_case
        mf = export(np.ones((len(modes), 2), dtype=complex))
        assert np.all(mf[~regions.live] == 0.0)
        assert np.any(~regions.live)

    def test_mode_field_peak_stable_under_grid_refinement(self, circle_case):
        geom, modes, s, _, _, _, _ = circle_case
        rng = np.random.default_rng(9)
        w = rng.normal(size=len(modes)) + 1j * rng.normal(size=len(modes))
        w /= np.linalg.norm(w)
        peaks = []
        for n in (81, 161):
            g = GridSpec(-10, 10, -10, 10, nx=n, ny=n)
            _, values = modal_excitation_fields(s, g, region_masks(geom, g, s.k), w[:, None])
            peaks.append(np.max(np.abs(values)))
        assert np.isfinite(peaks).all()
        assert abs(peaks[1] - peaks[0]) < 0.01 * peaks[1]

    def test_modal_route_matches_bem_route(self, circle_case):
        # representation-integral route vs separation-of-variables route;
        # compared beyond the near-boundary band where plain quadrature of
        # the representation kernel is reliable
        geom, modes, s, spec, regions, _, export = circle_case
        bem_fields = export(np.eye(len(modes)))
        regions2 = region_masks(geom, spec, s.k)
        _, modal_fields = modal_excitation_fields(s, spec, regions2, np.eye(len(modes)))
        pts = spec.points()
        away = np.hypot(pts[:, 0], pts[:, 1]) > 3.0
        both = regions.live & regions2.live & away
        diff = np.max(np.abs(bem_fields[both] - modal_fields[both]))
        scale = np.max(np.abs(bem_fields[both]))
        assert diff < 1e-5 * scale


def reference_fractions(whole, w, regions):
    """Per-mode energy sums, sum |F w|^2 over each region's points."""
    out = np.zeros((3, w.shape[1]))
    for i in range(w.shape[1]):
        energy = np.abs(whole @ w[:, i]) ** 2
        total = float(np.sum(energy[regions.live])) or 1.0
        rows = (regions.boundary, regions.corner, regions.interior)
        out[:, i] = [float(np.sum(energy[r])) / total for r in rows]
    return out


def whole_gram_fractions(whole, w, regions):
    """Fractions from F built whole: G_r = F_r^H F_r per region, then
    Re diag(W^H G_r W) over the live one's."""
    energy = []
    for region in (regions.live, regions.boundary, regions.corner, regions.interior):
        f = whole[region]
        energy.append(np.real(np.sum(w.conj() * ((f.conj().T @ f) @ w), axis=0)))
    total = np.where(energy[0] == 0.0, 1.0, energy[0])
    return np.array(energy[1:]) / total


# (geometry constructor, its arguments, M, grid half-width); the cylinder
# takes the modal fields, the others the BEM fields
SCENES = {
    "strip": (make_strip, {}, 111, 40.0),
    "cavity-w3": (make_cavity, {"gap_width": 3.0}, 71, 25.0),
    "circle-a2": (make_circle, {"radius": 2.0}, 13, 20.0),
    "cylinder-a2": (make_circle, {"radius": 2.0}, 13, 20.0),
}


@pytest.fixture(scope="module", params=[
    pytest.param((scene, bc), id=f"{scene}-{name}")
    for scene in SCENES for name, bc in (("soft", SOFT), ("hard", HARD))
])
def delay_case(request):
    """Delay eigenvectors and regions of one scenario on a 61 x 61 grid, with
    the CLI's own derivative and masks; the streamed Grams and exported
    values of three modes; and the fields built whole."""
    scene, bc = request.param
    make, params, m, hw = SCENES[scene]
    k = 1.0
    geom = make(**params)
    modes = ModeSet.with_count(2, m, k)
    spec = GridSpec(-hw, hw, -hw, hw, nx=61, ny=61)
    export_cols = [0, m // 2, m - 1]
    if scene == "cylinder-a2":
        s = mie_smatrix(2, bc, k, params["radius"], modes)
        dec = ws_decompose(q_matrix(s, mie_smatrix_deriv(2, bc, k, params["radius"], modes)), s)
        regions = region_masks(geom, spec, k)
        grams, values = modal_excitation_fields(s, spec, regions, dec.w[:, export_cols])
        return whole_modal_fields(s, spec, regions.live), dec.w, regions, grams, values, export_cols
    mesh = mesh_geometry(geom, k)
    s, sol = bem_smatrix(geom, bc, k, modes, mesh=mesh, gate=None, return_solution=True)

    def provider(kp):
        return bem_smatrix(geom, bc, kp, ModeSet.with_count(2, m, kp), mesh=mesh, gate=None)

    dec = ws_decompose(q_matrix(s, smatrix_fd_derivative(provider, k)), s)
    regions = region_masks(geom, spec, k, mesh)
    grams, values = bem_excitation_fields(mesh, sol, modes, spec, regions, dec.w[:, export_cols])
    whole = whole_bem_fields(mesh, sol, modes, spec, regions.live)
    return whole, dec.w, regions, grams, values, export_cols


class TestGramFractions:
    def test_match_per_mode_sums(self, delay_case):
        whole, w, regions, grams, _, _ = delay_case
        fractions = localization_metrics(grams, w)
        assert fractions.shape == (3, w.shape[1])
        assert np.max(np.abs(fractions - reference_fractions(whole, w, regions))) <= 1e-14
        assert np.all(fractions >= 0.0)
        for row, region in enumerate((regions.boundary, regions.corner, regions.interior)):
            if not np.any(region):
                assert np.all(fractions[row] == 0.0)

    def test_streamed_match_whole_matrix(self, delay_case):
        whole, w, regions, grams, values, cols = delay_case
        fractions = localization_metrics(grams, w)
        assert np.max(np.abs(fractions - whole_gram_fractions(whole, w, regions))) <= 1e-14
        assert np.array_equal(grams, grams.conj().swapaxes(1, 2))
        want = whole @ w[:, cols]
        for j in range(len(cols)):
            scale = np.max(np.abs(want[:, j]))
            assert np.max(np.abs(values[:, j] - want[:, j])) <= 1e-14 * scale
        assert np.all(values[~regions.live] == 0.0)


class TestFieldMapsExportOnly:
    def test_mode_fields_only_for_exported_columns(self, tmp_path, monkeypatch):
        calls = []

        def recording(f, w):
            calls.append((len(f), w.copy()))
            return mode_field_matrix(f, w)

        monkeypatch.setattr(fields, "mode_field_matrix", recording)
        cfg = ScenarioConfig(scenario="cylinder", a=2.0, mode_count=9, grid_nx=41,
                             grid_ny=41, export_modes=(3, 1))
        summary = cli.run_scenario(cfg, str(tmp_path / "o"))
        w = summary["decomposition"].w[:, [2, 0]]
        assert len(calls) > 1
        assert all(np.array_equal(c, w) for _, c in calls)
        masked = np.loadtxt(tmp_path / "o" / "mode_003_field.csv", delimiter=",",
                            skiprows=1)[:, 4]
        assert sum(n for n, _ in calls) == np.sum(masked == 0)


class TestStreamedMemory:
    def test_field_stage_holds_no_points_by_ports_array(self):
        # a strip grid whose live points x M x 16 B is 112 MB: the pass
        # holds one band's fields at a time, 11 of the grid's 251 rows here
        k, geom = 1.0, make_strip()
        modes = ModeSet.with_count(2, 111, k)
        mesh = mesh_geometry(geom, k)
        _, sol = bem_smatrix(geom, SOFT, k, modes, mesh=mesh, gate=None, return_solution=True)
        spec = GridSpec(-100.0, 100.0, -100.0, 100.0, 251, 251)
        regions = region_masks(geom, spec, k, mesh)
        whole = int(np.sum(regions.live)) * len(modes) * 16
        assert whole >= 16e6
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            bem_excitation_fields(mesh, sol, modes, spec, regions, np.eye(len(modes))[:, :1])
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * whole


class TestMetrics:
    def test_uniform_field_gives_baselines(self, circle_case):
        _, modes, _, spec, regions, _, _ = circle_case

        def uniform(pts):
            return np.ones((len(pts), 1), dtype=complex)

        grams, _ = fields._stream(spec, regions, np.zeros((1, 0)), uniform, modes.k)
        bf, cf, _ = localization_metrics(grams, np.ones((1, 1)))[:, 0]
        assert bf == pytest.approx(regions.baselines[0], rel=1e-12)
        assert cf == 0.0  # circle has no corners

    def test_interior_box(self, circle_case):
        geom, modes, _, spec, _, _, _ = circle_case
        boxed = dataclasses.replace(geom, interior=(-1.0, 1.0, -1.0, 1.0))
        regions = region_masks(boxed, spec, modes.k)
        # box lies inside the scatterer: nothing live there
        assert np.sum(regions.interior) == 0

    def test_interior_region_is_the_geometry_void(self):
        # the cavity's void, and the same box moved onto a solid, give the
        # same interior points; a solid has none of its own
        spec = GridSpec(-25, 25, -25, 25, nx=51, ny=51)
        cavity = make_cavity(3.0)
        regions = region_masks(cavity, spec, 1.0)
        pts = spec.points()
        inside = np.all(np.abs(pts) <= 11.0, axis=1)
        assert np.array_equal(regions.interior, regions.live & inside)
        assert np.any(regions.interior)
        strip = make_strip()
        assert not np.any(region_masks(strip, spec, 1.0).interior)
        moved = region_masks(dataclasses.replace(strip, interior=cavity.interior), spec, 1.0)
        assert np.array_equal(moved.interior, moved.live & inside)


BASELINES = (0.1, 0.02, 0.2)


def _metric(bnd=0.0, cor=0.0, intr=0.0):
    return (bnd, cor, intr)


def _fractions(*metrics):
    return np.array(metrics).T


class TestClassification:
    def test_families(self):
        th = ClassificationThresholds()
        delays = np.array([-20.0, -1.0, 0.01, 4.0, 100.0])
        metrics = [
            _metric(bnd=0.3, cor=0.5),      # corner-concentrated, big negative
            _metric(bnd=0.3, cor=0.01),     # boundary-hot, small negative
            _metric(bnd=0.05, cor=0.01),    # cold everywhere, near-zero delay
            _metric(bnd=0.4, cor=0.02),     # boundary-hot, positive
            _metric(bnd=0.2, intr=0.9),     # interior-dominant, positive
        ]
        fractions = _fractions(*metrics)
        labels = [c.label for c in classify_modes(delays, fractions, BASELINES, th)]
        assert labels == ["corner", "ballistic", "non-propagating", "surface-wave", "cavity"]
        assert not any(c.warning for c in classify_modes(delays, fractions, BASELINES, th))

    def test_fallthrough_flags_warning(self):
        th = ClassificationThresholds()
        out = classify_modes(
            np.array([-50.0]), _fractions(_metric(bnd=0.05, cor=0.01)), BASELINES, th
        )
        assert out[0].label == "ballistic" and out[0].warning

    def test_group_counts(self):
        th = ClassificationThresholds()
        delays = np.array([-20.0, 0.0, 0.0])
        metrics = [_metric(cor=0.5), _metric(), _metric()]
        counts = group_counts(classify_modes(delays, _fractions(*metrics), BASELINES, th))
        assert counts["corner"] == 1 and counts["non-propagating"] == 2
