import numpy as np
import pytest

from wsdelay.bem import bem_smatrix
from wsdelay.errors import DomainError
from wsdelay.fields import (
    ClassificationThresholds,
    GridSpec,
    LocalizationMetrics,
    bem_excitation_fields,
    classify_modes,
    group_counts,
    localization_metrics,
    mode_field_matrix,
    modal_excitation_fields,
    region_masks,
)
from wsdelay.geometry import make_circle, mesh_geometry
from wsdelay.modal import ModeSet
from wsdelay.smatrix import BoundaryCondition

SOFT = BoundaryCondition.SOUND_SOFT


@pytest.fixture(scope="module")
def circle_case():
    k, a = 1.0, 2.0
    geom = make_circle(a)
    modes = ModeSet.angular(5, k)
    mesh = mesh_geometry(geom, k)
    s, sol, mesh = bem_smatrix(
        geom, SOFT, k, modes, mesh=mesh, gate=None, return_solution=True
    )
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


class TestMetrics:
    def test_uniform_field_gives_baselines(self, circle_case):
        geom, modes, _, cache, spec = circle_case
        regions = region_masks(geom, spec, cache.k, cache.mask)
        vals = np.ones(len(spec.points()), dtype=complex)
        m = localization_metrics(vals, regions)
        assert m.boundary_fraction == pytest.approx(m.boundary_baseline, rel=1e-12)
        assert m.corner_fraction == 0.0  # circle has no corners

    def test_interior_box(self, circle_case):
        geom, modes, _, cache, spec = circle_case
        regions = region_masks(
            geom, spec, cache.k, cache.mask, interior_box=(-1.0, 1.0, -1.0, 1.0)
        )
        # box lies inside the scatterer: nothing live there
        assert np.sum(regions.interior) == 0


def _metric(bnd=0.0, cor=0.0, intr=0.0, bb=0.1, cb=0.02, ib=0.2):
    return LocalizationMetrics(
        boundary_fraction=bnd,
        corner_fraction=cor,
        interior_fraction=intr,
        boundary_baseline=bb,
        corner_baseline=cb,
        interior_baseline=ib,
    )


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
        labels = [c.label for c in classify_modes(delays, metrics, th)]
        assert labels == ["corner", "ballistic", "non-propagating", "surface-wave", "cavity"]
        assert not any(c.warning for c in classify_modes(delays, metrics, th))

    def test_fallthrough_flags_warning(self):
        th = ClassificationThresholds()
        out = classify_modes(np.array([-50.0]), [_metric(bnd=0.05, cor=0.01)], th)
        assert out[0].label == "ballistic" and out[0].warning

    def test_group_counts(self):
        th = ClassificationThresholds()
        delays = np.array([-20.0, 0.0, 0.0])
        metrics = [_metric(cor=0.5), _metric(), _metric()]
        counts = group_counts(classify_modes(delays, metrics, th))
        assert counts["corner"] == 1 and counts["non-propagating"] == 2
