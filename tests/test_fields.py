import numpy as np
import pytest

from wsdelay import cli
from wsdelay.bem import bem_smatrix
from wsdelay.errors import DomainError
from wsdelay.fields import (
    ClassificationThresholds,
    ExcitationFieldCache,
    GridSpec,
    bem_excitation_fields,
    classify_modes,
    group_counts,
    localization_metrics,
    mode_field_matrix,
    modal_excitation_fields,
    region_masks,
)
from wsdelay.geometry import CAVITY_INTERIOR_BOX, make_circle, make_geometry, mesh_geometry
from wsdelay.io import ScenarioConfig
from wsdelay.modal import ModeSet
from wsdelay.smatrix import BoundaryCondition
from wsdelay.wigner import q_matrix, smatrix_fd_derivative, ws_decompose

SOFT = BoundaryCondition.SOUND_SOFT
HARD = BoundaryCondition.SOUND_HARD


@pytest.fixture(scope="module")
def circle_case():
    k, a = 1.0, 2.0
    geom = make_circle(a)
    modes = ModeSet.angular(5, k)
    mesh = mesh_geometry(geom, k)
    s, sol = bem_smatrix(geom, SOFT, k, modes, mesh=mesh, gate=None, return_solution=True)
    spec = GridSpec(-10, 10, -10, 10, nx=81, ny=81)
    cache = bem_excitation_fields(mesh, sol, modes, spec)
    return geom, modes, s, cache, spec


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
        _, modes, _, cache, _ = circle_case
        mf = mode_field_matrix(cache, np.eye(len(modes), dtype=complex))
        assert np.allclose(mf[:, 2], np.where(cache.mask, 0.0, cache.fields[:, 2]))

    def test_linearity(self, circle_case):
        _, modes, _, cache, _ = circle_case
        rng = np.random.default_rng(0)
        u = rng.normal(size=len(modes)) + 1j * rng.normal(size=len(modes))
        v = rng.normal(size=len(modes)) + 1j * rng.normal(size=len(modes))
        al, be = 1.3 - 0.4j, -0.2 + 2.0j
        mf = mode_field_matrix(cache, np.column_stack([al * u + be * v, u, v]))
        lhs, rhs = mf[:, 0], al * mf[:, 1] + be * mf[:, 2]
        scale = np.max(np.abs(rhs))
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale

    def test_parseval_for_unitary_w(self, circle_case):
        _, modes, _, cache, _ = circle_case
        rng = np.random.default_rng(1)
        a = rng.normal(size=(len(modes),) * 2) + 1j * rng.normal(size=(len(modes),) * 2)
        w, _ = np.linalg.qr(a)
        mf = mode_field_matrix(cache, w)
        e_modes = np.sum(np.abs(mf) ** 2)
        e_exc = np.sum(np.abs(cache.fields) ** 2)
        assert e_modes == pytest.approx(e_exc, rel=1e-6)

    def test_masked_points_are_zero(self, circle_case):
        _, modes, _, cache, _ = circle_case
        mf = mode_field_matrix(cache, np.ones((len(modes), 2), dtype=complex))
        assert np.all(mf[cache.mask] == 0.0)
        assert np.any(cache.mask)

    def test_mode_field_peak_stable_under_grid_refinement(self, circle_case):
        geom, modes, s, cache, spec = circle_case
        rng = np.random.default_rng(9)
        w = rng.normal(size=len(modes)) + 1j * rng.normal(size=len(modes))
        w /= np.linalg.norm(w)
        peaks = []
        for n in (81, 161):
            g = GridSpec(-10, 10, -10, 10, nx=n, ny=n)
            c = modal_excitation_fields(s, geom, g)
            peaks.append(np.max(np.abs(mode_field_matrix(c, w[:, None]))))
        assert np.isfinite(peaks).all()
        assert abs(peaks[1] - peaks[0]) < 0.01 * peaks[1]

    def test_modal_route_matches_bem_route(self, circle_case):
        # representation-integral route vs separation-of-variables route;
        # compared beyond the near-boundary band where plain quadrature of
        # the representation kernel is reliable
        geom, modes, s, cache, spec = circle_case
        cache2 = modal_excitation_fields(s, geom, spec)
        pts = spec.points()
        away = np.hypot(pts[:, 0], pts[:, 1]) > 3.0
        both = ~cache.mask & ~cache2.mask & away
        diff = np.max(np.abs(cache.fields[both] - cache2.fields[both]))
        scale = np.max(np.abs(cache.fields[both]))
        assert diff < 1e-5 * scale


def reference_fractions(cache, w, regions):
    """Per-mode energy sums, sum |F w|^2 over each region's points."""
    out = np.zeros((3, w.shape[1]))
    for i in range(w.shape[1]):
        energy = np.abs(np.where(cache.mask, 0.0, cache.fields @ w[:, i])) ** 2
        total = float(np.sum(energy[regions.live])) or 1.0
        rows = (regions.boundary, regions.corner, regions.interior)
        out[:, i] = [float(np.sum(energy[r])) / total for r in rows]
    return out


# (kind, geometry parameters, M, grid half-width, interior box)
SCENES = {
    "strip": ("strip", {}, 111, 40.0, None),
    "cavity-w3": ("cavity", {"w": 3.0}, 71, 25.0, CAVITY_INTERIOR_BOX),
    "circle-a2": ("circle", {"a": 2.0}, 13, 20.0, None),
}


@pytest.fixture(scope="module", params=[
    pytest.param((scene, bc), id=f"{scene}-{name}")
    for scene in SCENES for name, bc in (("soft", SOFT), ("hard", HARD))
])
def delay_case(request):
    """Excitation cache, delay eigenvectors and regions of one scenario on a
    61 x 61 grid, with the CLI's own derivative and masks."""
    scene, bc = request.param
    kind, params, m, hw, box = SCENES[scene]
    k = 1.0
    geom = make_geometry(kind, **params)
    mesh = mesh_geometry(geom, k)
    modes = ModeSet.with_count(2, m, k)
    s, sol = bem_smatrix(geom, bc, k, modes, mesh=mesh, gate=None, return_solution=True)

    def provider(kp):
        return bem_smatrix(geom, bc, kp, ModeSet.with_count(2, m, kp), mesh=mesh, gate=None)

    dec = ws_decompose(q_matrix(s, smatrix_fd_derivative(provider, k)), s)
    spec = GridSpec(-hw, hw, -hw, hw, nx=61, ny=61)
    cache = bem_excitation_fields(mesh, sol, modes, spec)
    return cache, dec.w, region_masks(geom, spec, k, cache.mask, interior_box=box)


class TestGramFractions:
    def test_match_per_mode_sums(self, delay_case):
        cache, w, regions = delay_case
        fractions = localization_metrics(cache, w, regions)
        assert fractions.shape == (3, w.shape[1])
        assert np.max(np.abs(fractions - reference_fractions(cache, w, regions))) <= 1e-14
        assert np.all(fractions >= 0.0)
        for row, region in enumerate((regions.boundary, regions.corner, regions.interior)):
            if not np.any(region):
                assert np.all(fractions[row] == 0.0)


class TestFieldMapsExportOnly:
    def test_mode_fields_only_for_exported_columns(self, tmp_path, monkeypatch):
        calls = []

        def recording(cache, w):
            calls.append(w.copy())
            return mode_field_matrix(cache, w)

        monkeypatch.setattr(cli, "mode_field_matrix", recording)
        cfg = ScenarioConfig(scenario="cylinder", a=2.0, mode_count=9, grid_nx=41,
                             grid_ny=41, export_modes=(3, 1))
        summary = cli.run_scenario(cfg, str(tmp_path / "o"))
        assert len(calls) == 1
        assert np.array_equal(calls[0], summary["decomposition"].w[:, [2, 0]])


class TestMetrics:
    def test_uniform_field_gives_baselines(self, circle_case):
        geom, modes, _, cache, spec = circle_case
        regions = region_masks(geom, spec, modes.k, cache.mask)
        uniform = np.where(cache.mask, 0.0, 1.0 + 0.0j)[:, None]
        flat = ExcitationFieldCache(fields=uniform, mask=cache.mask)
        bf, cf, _ = localization_metrics(flat, np.ones((1, 1)), regions)[:, 0]
        assert bf == pytest.approx(regions.baselines[0], rel=1e-12)
        assert cf == 0.0  # circle has no corners

    def test_interior_box(self, circle_case):
        geom, modes, _, cache, spec = circle_case
        regions = region_masks(
            geom, spec, modes.k, cache.mask, interior_box=(-1.0, 1.0, -1.0, 1.0)
        )
        # box lies inside the scatterer: nothing live there
        assert np.sum(regions.interior) == 0


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
