import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import special as sp
from scipy.linalg import circulant
from scipy.spatial import ConvexHull, QhullError

from wsdelay import bem
from wsdelay.bem import (
    BoundarySolution,
    _log_sin_row,
    _log_weights,
    assemble_operators,
    bem_smatrix,
    far_field_coefficients,
    scattered_field,
    solve_exterior,
    spectral_diff_matrix,
    standing_mode_traces,
)
from wsdelay.errors import ContractError, DomainError, SolverError
from wsdelay.fields import GridSpec, bem_excitation_fields, region_masks
from wsdelay.geometry import (
    kress_w,
    make_cavity,
    make_circle,
    make_geometry,
    make_polyline,
    make_strip,
    mesh_geometry,
)
from wsdelay.mie import mie_smatrix, reflection_table
from wsdelay.modal import ModeIndex, ModeSet, conjugate_mode, gamma_2d, regular_waves_batch
from wsdelay.smatrix import DEFAULT_SMATRIX_GATE, BoundaryCondition
from wsdelay.wigner import q_matrix, smatrix_fd_derivative, validate_smatrix, ws_decompose

SOFT = BoundaryCondition.SOUND_SOFT
HARD = BoundaryCondition.SOUND_HARD


def complex_hankel_field(mesh, solution, points):
    """Scattered field from the complex H0/H1 kernel: the reference for
    scattered_field's real and imaginary kernel parts."""
    dens = solution.density
    k = eta = solution.k
    dx = points[:, None, :] - mesh.nodes[None, :, :]
    rho = np.maximum(np.sqrt(np.sum(dx**2, axis=-1)), 1e-14)
    rdotn = dx[:, :, 0] * mesh.normals[None, :, 0] + dx[:, :, 1] * mesh.normals[None, :, 1]
    g = -0.25j * (sp.j0(k * rho) - 1j * sp.y0(k * rho))
    dg_dn = -0.25j * k * (sp.j1(k * rho) - 1j * sp.y1(k * rho)) * rdotn / rho
    kern = dg_dn - 1j * eta * g if solution.bc is SOFT else g + 1j * eta * dg_dn
    return (kern * mesh.weights[None, :]) @ dens


def four_operator_system(mesh, k, bc):
    """Combined-field matrix from the complex S, K, K' and Maue T operators
    combined afterwards: the reference for assemble_operators' direct
    per-boundary-condition assembly."""
    x, xp, xpp, sigma, h = mesh.nodes, mesh.xp, mesh.xpp, mesh.speed, mesh.h
    n = mesh.n_nodes
    dx = x[:, None, :] - x[None, :, :]
    rho = np.sqrt(np.sum(dx**2, axis=-1))
    np.fill_diagonal(rho, 1.0)
    z = k * rho
    j0, j1 = sp.j0(z), sp.j1(z)
    h0, h1 = j0 - 1j * sp.y0(z), j1 - 1j * sp.y1(z)
    rw, lg = circulant(_log_weights(n // 2)), circulant(_log_sin_row(mesh))

    def split(full, part, diag):
        rest = full - part * lg
        np.fill_diagonal(part, diag[0])
        np.fill_diagonal(rest, diag[1])
        return rw * part + h * rest

    g0, g0_log = -0.25j * h0, -(1.0 / (4.0 * np.pi)) * j0
    g0_diag = -0.25j - np.euler_gamma / (2 * np.pi) - np.log(k * sigma / 2.0) / (2 * np.pi)
    diag_s = (-sigma / (4.0 * np.pi), g0_diag * sigma)
    curv = xpp[:, 0] * xp[:, 1] - xpp[:, 1] * xp[:, 0]
    diag_d = (0.0, curv / (4.0 * np.pi * sigma**2))
    if bc is SOFT:
        single = split(g0 * sigma[None, :], g0_log * sigma[None, :], diag_s)
        q = dx[:, :, 0] * xp[None, :, 1] - dx[:, :, 1] * xp[None, :, 0]
        double = split(-0.25j * k * h1 * q / rho, -(k / (4.0 * np.pi)) * j1 * q / rho, diag_d)
        return 0.5 * np.eye(n) + double - 1j * k * single
    p = (dx[:, :, 0] * xp[:, None, 1] - dx[:, :, 1] * xp[:, None, 0]) / sigma[:, None]
    adjoint = split(
        0.25j * k * h1 * p * sigma[None, :] / rho,
        (k / (4.0 * np.pi)) * j1 * p * sigma[None, :] / rho,
        diag_d,
    )
    nn = (xp[:, None, :] * xp[None, :, :]).sum(-1) / (sigma[:, None] * sigma[None, :])
    weighted = split(g0 * nn * sigma[None, :], g0_log * nn * sigma[None, :], diag_s)
    b = split(g0, g0_log, (-1.0 / (4.0 * np.pi), g0_diag))
    dspec = spectral_diff_matrix(n)
    hyper = (dspec @ b @ dspec) / sigma[:, None] + k**2 * weighted
    return sigma[:, None] * (-0.5 * np.eye(n) + adjoint) + 1j * k * sigma[:, None] * hyper


def full_log_split(a, b, bessel, rw, lg, h, diag):
    """_log_split on whole N x N matrices, diag the limits (K1_ii, K2_ii) on
    the main diagonal: the log-split of full_matrix_assembly."""
    j0, _, j1, _ = bessel
    out = np.empty(lg.shape, dtype=complex)
    parts = (b * j1 / np.pi, a * j0 / np.pi)
    for full, part, dst, take in zip(
        bem._kernel(a, b, bessel), parts, (out.real, out.imag), (np.real, np.imag)
    ):
        full -= part * lg
        np.fill_diagonal(part, take(diag[0]))
        np.fill_diagonal(full, take(diag[1]))
        dst[...] = rw * part + h * full
    return out


def full_matrix_assembly(mesh, k, bc):
    """assemble_operators on whole N x N matrices, with the Bessel quartet
    evaluated at every entry: the bitwise reference for the row-blocked,
    one-triangle assembly."""
    xp, sigma, h = mesh.xp, mesh.speed, mesh.h
    n = mesh.n_nodes
    dx, dy = (mesh.nodes[:, None, c] - mesh.nodes[None, :, c] for c in (0, 1))
    rho = np.sqrt(dx * dx + dy * dy)
    np.fill_diagonal(rho, 1.0)
    bessel = bem._bessel(k * rho)
    rw = circulant(_log_weights(n // 2))
    lg = circulant(_log_sin_row(mesh))
    g0_diag = -0.25j - (np.euler_gamma + np.log(k * sigma / 2.0)) / (2 * np.pi)
    curv = (mesh.xpp[:, 0] * xp[:, 1] - mesh.xpp[:, 1] * xp[:, 0]) / (4.0 * np.pi)
    if bc is SOFT:
        q = dx * xp[None, :, 1] - dy * xp[None, :, 0]
        diag = (0.25j * k * sigma / np.pi, curv / sigma**2 - 1j * k * g0_diag * sigma)
        mat = full_log_split(
            0.25 * k * sigma[None, :], -0.25 * k * q / rho, bessel, rw, lg, h, diag
        )
        mat[np.diag_indices(n)] += 0.5
        return mat
    p = dx * xp[:, None, 1] - dy * xp[:, None, 0]
    xx = xp[:, None, 0] * xp[None, :, 0] + xp[:, None, 1] * xp[None, :, 1]
    diag = (-0.25j * k**3 * sigma**2 / np.pi, curv / sigma + 1j * k**3 * sigma**2 * g0_diag)
    mat = full_log_split(
        -0.25 * k**3 * xx, 0.25 * k * p * sigma[None, :] / rho, bessel, rw, lg, h, diag
    )
    jg = full_log_split(-0.25, 0.0, bessel, rw, lg, h, (-0.25j / np.pi, 1j * g0_diag))
    dspec = spectral_diff_matrix(n)
    mat.real += k * (dspec @ jg.real @ dspec)
    mat.imag += k * (dspec @ jg.imag @ dspec)
    mat[np.diag_indices(n)] -= 0.5 * sigma
    return mat


def offnode_dirichlet_residual(
    mesh, solution, incident_fn, offset=0.37, exclude_corner_radius=0.0
):
    """Collocate the soft combined-field equation between the solve's nodes.

    The equation is the boundary condition, so its residual at parameters the
    solve never saw measures how well the condition holds along the whole
    curve. The density is evaluated there by trigonometric interpolation of
    sigma psi, the quadrature's integrand with sigma = |x'(t)|, divided by
    sigma(t*): the grading flattens sigma toward the corners, so psi itself
    steepens in t there while sigma psi stays smooth. The log-quadrature
    weights take their general-point formula. Returns the max residual
    normalized by the incident sup-norm.

    The density of the combined-field equation is singular at corners, where
    pointwise interpolation necessarily degrades even though far-field
    functionals stay accurate; exclude_corner_radius drops sample points
    within that distance of a corner vertex.
    """
    k = solution.k
    n = mesh.n_nodes
    n_half = n // 2
    tstar = mesh.t + offset * mesh.h
    pos, vel = mesh.embed(tstar)

    # general-point log weights R_j(t*)
    m = np.arange(1, n_half)
    dt = tstar[:, None] - mesh.t[None, :]
    em_star = np.exp(1j * np.outer(tstar, m))
    em_node = np.exp(1j * np.outer(mesh.t, m))
    csum = np.real(em_star / m[None, :] @ em_node.conj().T)
    rw = -(2.0 * np.pi / n_half) * csum - (np.pi / n_half**2) * np.cos(n_half * dt)

    # K - j k S: the soft kernel sigma(tau) (dG/dn_y - j k G) of assemble_operators
    dx = pos[:, None, :] - mesh.nodes[None, :, :]
    rho = np.sqrt(np.sum(dx**2, axis=-1))
    lg = np.log(4.0 * np.sin(dt / 2.0) ** 2)
    q = dx[:, :, 0] * mesh.xp[None, :, 1] - dx[:, :, 1] * mesh.xp[None, :, 0]
    combined = np.empty(lg.shape, dtype=complex)
    bem._log_split(
        0.25 * k * mesh.speed[None, :], -0.25 * k * q / rho, bem._bessel(k * rho),
        rw, lg, mesh.h, diag=None, out=(combined.real, combined.imag),
    )

    # trigonometric interpolation of sigma psi at t*, divided by sigma(t*)
    delta = tstar[:, None] - mesh.t[None, :]
    basis = np.sin(n * delta / 2.0) / np.tan(delta / 2.0) / n
    psi = solution.density[:, 0]
    psi_star = basis @ (mesh.speed * psi) / np.hypot(vel[:, 0], vel[:, 1])

    lhs = 0.5 * psi_star + combined @ psi
    inc = incident_fn(pos)
    scale = float(np.max(np.abs(inc)))
    residual = np.abs(lhs + inc)
    if exclude_corner_radius > 0.0 and mesh.geometry.corners:
        corners = np.asarray(mesh.geometry.corners, dtype=float)
        dmin = np.min(
            np.hypot(
                pos[:, None, 0] - corners[None, :, 0],
                pos[:, None, 1] - corners[None, :, 1],
            ),
            axis=1,
        )
        residual = residual[dmin > exclude_corner_radius]
    return float(np.max(residual) / scale)


def sampled_far_field(mesh, solution, modes):
    """Far-field coefficients by sampling F(theta) in max(512, 8 n_max)
    directions and summing against e^{jn theta}: the reference for
    far_field_coefficients' reciprocity projection."""
    k = solution.k
    n_far = max(512, 8 * max(abs(p.n) for p in modes.modes))
    theta = np.arange(n_far) * (2.0 * np.pi / n_far)
    xhat = np.column_stack([np.cos(theta), np.sin(theta)])
    phase = np.exp(1j * k * (xhat @ mesh.nodes.T))
    xdotn = xhat @ mesh.normals.T
    if solution.bc is SOFT:
        kern = (1j * k * xdotn - 1j * k) * phase
    else:
        kern = (1.0 + 1j * k * 1j * k * xdotn) * phase
    c_far = -0.25j * np.sqrt(2.0 / (np.pi * k)) * np.exp(1j * np.pi / 4.0)
    f_theta = c_far * (kern * mesh.weights[None, :]) @ solution.density
    orders = np.array([p.n for p in modes.modes])
    proj = np.exp(1j * np.outer(orders, theta)) * (2.0 * np.pi / n_far) / np.sqrt(2.0 * np.pi)
    return proj @ f_theta


def dense_spectral_diff(n):
    """spectral_diff_matrix from the N^2 entry formula: its bitwise reference."""
    i = np.arange(n)
    diff = i[:, None] - i[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        d = 0.5 * (-1.0) ** diff / np.tan(diff * np.pi / n)
    d[diff == 0] = 0.0
    return d


def cosine_sum_log_weights(n_half):
    """_log_weights as the O(N^2) cosine sum, arguments reduced exactly
    (m q mod N) so the reference carries no rounding of m q h."""
    n = 2 * n_half
    m = np.arange(1, n_half)
    csum = np.cos((2.0 * np.pi / n) * (np.outer(m, np.arange(n)) % n)) / m[:, None]
    return -(2.0 * np.pi / n_half) * csum.sum(axis=0) - (np.pi / n_half**2) * (-1.0) ** np.arange(n)


class TestGeometry:
    def test_strip_dimensions(self):
        g = make_strip()
        assert g.perimeter == pytest.approx(102.0)
        xs = sorted(set(v[0] for v in g.corners))
        ys = sorted(set(v[1] for v in g.corners))
        assert xs == [-25.0, 25.0]
        assert ys == [-0.25, 0.75]

    def test_cavity_gap_edges(self):
        g3 = make_cavity(3.0)
        bottom = [v for v in g3.corners if v[1] == -15.0]
        gap_x = sorted(abs(v[0]) for v in bottom if abs(v[0]) < 15.0)
        assert gap_x[0] == pytest.approx(1.5)
        g5 = make_cavity(5.0)
        bottom = [v for v in g5.corners if v[1] == -15.0]
        gap_x = sorted(abs(v[0]) for v in bottom if abs(v[0]) < 15.0)
        assert gap_x[0] == pytest.approx(2.5)
        # 2x13.5 + 3x30 outer pieces, 2x4 gap walls, 2x9.5 + 3x22 inner pieces
        assert g3.perimeter == pytest.approx(210.0)

    def test_cavity_invalid_width(self):
        with pytest.raises(DomainError):
            make_cavity(0.0)
        with pytest.raises(DomainError):
            make_cavity(30.0)

    def test_contains(self):
        strip = make_strip()
        inside = strip.contains(np.array([[0.0, 0.25], [0.0, 0.0], [24.9, 0.7]]))
        assert inside.tolist() == [True, True, True]
        outside = strip.contains(np.array([[0.0, 2.0], [30.0, 0.0], [0.0, -0.3]]))
        assert outside.tolist() == [False, False, False]
        cav = make_cavity(3.0)
        # origin sits in the void, wall material at (0, 13) and (13, 0)
        assert not cav.contains(np.array([[0.0, 0.0]]))[0]
        assert cav.contains(np.array([[0.0, 13.0]]))[0]
        assert cav.contains(np.array([[13.0, 0.0]]))[0]
        assert not cav.contains(np.array([[0.0, -13.0]]))[0]  # inside the gap channel

    def test_self_intersection_rejected(self):
        with pytest.raises(DomainError, match="self-intersecting"):
            make_polyline([(0, 0), (1, 1), (1, 0), (0, 1)])
        with pytest.raises(DomainError, match="self-intersecting"):
            make_polyline([(0, 0), (4, 0), (4, 4), (2, -2), (0, 4)])
        # a simple loop the wrong way round is told its orientation
        with pytest.raises(DomainError, match="counterclockwise"):
            make_polyline([(0, 0), (0, 1), (1, 1), (1, 0)])

    def test_factory(self):
        assert make_geometry("strip").name == "strip"
        assert make_geometry("cavity", w=3.0).perimeter == pytest.approx(210.0)
        assert make_geometry("circle", a=2.0).perimeter == pytest.approx(4 * np.pi)
        with pytest.raises(DomainError):
            make_geometry("blob")


class TestMesh:
    def test_kress_grading_derivative_consistency(self):
        xi = np.linspace(0.02, 0.98, 41)
        w, w1, w2 = kress_w(xi, 4)
        h = 1e-6
        wp = (kress_w(xi + h, 4)[0] - kress_w(xi - h, 4)[0]) / (2 * h)
        assert np.max(np.abs(wp - w1)) < 1e-6
        wpp = (kress_w(xi + h, 4)[1] - kress_w(xi - h, 4)[1]) / (2 * h)
        assert np.max(np.abs(wpp - w2)) < 1e-4

    def test_kress_endpoints(self):
        w, w1, _ = kress_w(np.array([0.0, 0.5, 1.0]), 4)
        assert w[0] == pytest.approx(0.0, abs=1e-15)
        assert w[1] == pytest.approx(0.5, rel=1e-12)
        assert w[2] == pytest.approx(1.0, rel=1e-12)
        assert abs(w1[0]) < 1e-12 and abs(w1[2]) < 1e-12

    def test_strip_mesh_density_and_grading(self):
        mesh = mesh_geometry(make_strip(), 1.0, nodes_per_wavelength=12)
        assert 300 <= mesh.n_nodes <= 520
        # >= 10 nodes per wavelength everywhere: local spacing below lambda/10
        spacing = mesh.h * mesh.speed
        assert np.max(spacing) < 2 * np.pi / 10.0
        # spacing shrinks monotonically into each corner (check one side end)
        side = spacing[mesh.segment_id == 0]
        third = len(side) // 3
        assert np.all(np.diff(side[:third]) > 0)
        assert np.all(np.diff(side[-third:]) < 0)

    def test_circle_mesh_uniform(self):
        mesh = mesh_geometry(make_circle(1.0), 1.0)
        assert np.allclose(mesh.speed, mesh.speed[0], rtol=1e-12)

    def test_mesh_total_arclength(self):
        for g in (make_strip(), make_cavity(3.0), make_circle(2.0)):
            mesh = mesh_geometry(g, 1.0)
            # trapezoid of |x'| is limited by the grading order at corners
            assert np.sum(mesh.weights) == pytest.approx(g.perimeter, rel=1e-4)

    def test_degenerate_segment_rejected(self):
        with pytest.raises(DomainError, match="degenerate segment"):
            make_polyline([(0, 0), (1e-12, 0), (1, 0), (1, 1), (0, 1)])

    @pytest.mark.parametrize("k, npw", [(np.nan, 12), (1.0, 5.9), (1.0, np.nan)])
    def test_bad_mesh_inputs_rejected(self, k, npw):
        with pytest.raises(DomainError):
            mesh_geometry(make_strip(), k, nodes_per_wavelength=npw)

    def test_embed_reproduces_nodes(self):
        for g in (make_strip(), make_cavity(3.0), make_circle(2.0)):
            mesh = mesh_geometry(g, 1.0)
            pos, vel = mesh.embed(mesh.t)
            assert np.max(np.abs(pos - mesh.nodes)) < 1e-12 * np.max(np.abs(mesh.nodes))
            assert np.max(np.abs(vel - mesh.xp)) < 1e-12 * np.max(np.abs(mesh.xp))


class TestCircleAgainstClosedForm:
    @pytest.mark.parametrize("bc", [SOFT, HARD])
    def test_smatrix_matches(self, bc):
        k, a = 1.0, 2.0
        modes = ModeSet.angular(7, k)  # M = 15
        ref = mie_smatrix(2, bc, k, a, modes)
        geom = make_circle(a)
        s = bem_smatrix(geom, bc, k, modes, mesh=mesh_geometry(geom, k))
        assert np.max(np.abs(s.matrix - ref.matrix)) < 1e-4
        assert s.unitarity_residual() < 1e-4
        assert s.symmetry_residual() < 1e-4

    def test_far_field_against_reflection_coefficient(self):
        k, a = 1.0, 2.0
        mesh = mesh_geometry(make_circle(a), k)
        modes = ModeSet.angular(5, k)
        values, nds = standing_mode_traces(mesh, modes, k)
        p = ModeIndex.angular(2)
        col = modes.position(p)
        sol = solve_exterior(mesh, SOFT, values[:, [col]], k=k)
        coeffs = far_field_coefficients(mesh, sol, values, nds)[:, 0]
        # scattered amplitude into the conjugate mode: (alpha - 1) x free phase
        alpha = reflection_table(2, SOFT, k, a, 2)[0][2]
        expect = 1j * (-1.0) ** 2 * (alpha - 1.0)
        got = coeffs[modes.position(ModeIndex.angular(-2))]
        assert abs(got - expect) < 1e-10
        others = np.delete(coeffs, modes.position(ModeIndex.angular(-2)))
        assert np.max(np.abs(others)) < 1e-10

    def test_sound_hard_cross_check(self):
        k, a = 1.0, 2.0
        mesh = mesh_geometry(make_circle(a), k)
        modes = ModeSet.angular(5, k)
        values, nds = standing_mode_traces(mesh, modes, k)
        p = ModeIndex.angular(3)
        col = modes.position(p)
        sol = solve_exterior(mesh, HARD, values[:, [col]], nds[:, [col]], k=k)
        coeffs = far_field_coefficients(mesh, sol, values, nds)[:, 0]
        alpha = reflection_table(2, HARD, k, a, 3)[0][3]
        expect = 1j * (-1.0) ** 3 * (alpha - 1.0)
        got = coeffs[modes.position(ModeIndex.angular(-3))]
        assert abs(got - expect) < 1e-3


class TestSolver:
    def test_offnode_boundary_condition_residual(self):
        k, a = 1.0, 2.0
        mesh = mesh_geometry(make_circle(a), k)
        modes = ModeSet.angular(4, k)
        values, _ = standing_mode_traces(mesh, modes, k)
        sol = solve_exterior(mesh, SOFT, values[:, [3]], k=k)
        res = offnode_dirichlet_residual(
            mesh, sol, lambda pts: regular_waves_batch(modes, k, pts)[:, 3]
        )
        assert res < 1e-4

    def test_offnode_residual_on_cornered_boundary(self):
        k = 1.0
        mesh = mesh_geometry(make_strip(), k)
        modes = ModeSet.angular(8, k)
        values, _ = standing_mode_traces(mesh, modes, k)
        sol = solve_exterior(mesh, SOFT, values[:, [0]], k=k)
        # the corner layer hosts the singular part of the density; the
        # condition is checked pointwise on the smooth remainder
        res = offnode_dirichlet_residual(
            mesh, sol, lambda pts: regular_waves_batch(modes, k, pts)[:, 0],
            exclude_corner_radius=2.0,
        )
        assert res < 5e-4

    def test_linearity(self):
        k, a = 1.0, 1.5
        mesh = mesh_geometry(make_circle(a), k)
        modes = ModeSet.angular(3, k)
        values, _ = standing_mode_traces(mesh, modes, k)
        f, g = values[:, 1], values[:, 4]
        al, be = 0.7 - 0.2j, -1.1 + 0.5j
        s1 = solve_exterior(mesh, SOFT, al * f + be * g, k=k).density
        s2 = (
            al * solve_exterior(mesh, SOFT, f, k=k).density
            + be * solve_exterior(mesh, SOFT, g, k=k).density
        )
        assert np.max(np.abs(s1 - s2)) < 1e-10 * np.max(np.abs(s2))

    def test_density_has_a_column_per_right_hand_side(self):
        mesh = mesh_geometry(make_circle(1.5), 1.0)
        values, _ = standing_mode_traces(mesh, ModeSet.angular(3, 1.0), 1.0)
        sol = solve_exterior(mesh, SOFT, values[:, 1], k=1.0)
        assert sol.density.shape == (mesh.n_nodes, 1)
        with pytest.raises(ContractError):
            BoundarySolution(sol.density[:, 0], SOFT, 1.0, sol.residual)

    def test_node_on_the_origin_is_singular(self):
        # the triangle's bottom edge puts a node exactly on (0, 0)
        mesh = mesh_geometry(make_polyline([(-4.5, 0.0), (4.5, 0.0), (0.0, 12.0)]), 1.0)
        assert np.any(np.all(mesh.nodes == 0.0, axis=1))
        with pytest.raises(DomainError, match="basis origin"):
            standing_mode_traces(mesh, ModeSet.angular(3, 1.0), 1.0)

    def test_hard_requires_normal_trace(self):
        mesh = mesh_geometry(make_circle(1.0), 1.0)
        with pytest.raises(ContractError):
            solve_exterior(mesh, HARD, np.zeros(mesh.n_nodes, dtype=complex), k=1.0)

    def test_scattered_field_matches_separation_solution(self):
        # domain evaluation cross-checked against the closed-form total field
        # of the sound-soft circle
        k, a = 1.0, 2.0
        mesh = mesh_geometry(make_circle(a), k, nodes_per_wavelength=16)
        modes = ModeSet.angular(3, k)
        values, _ = standing_mode_traces(mesh, modes, k)
        p = modes.modes[2]
        col = 2
        sol = solve_exterior(mesh, SOFT, values[:, [col]], k=k)
        ang = np.linspace(0.1, 2 * np.pi, 7)
        r_eval = 1.5 * a
        pts = r_eval * np.column_stack([np.cos(ang), np.sin(ang)])
        total = regular_waves_batch(modes, k, pts)[:, col] + scattered_field(mesh, sol, pts)[:, 0]
        alpha = reflection_table(2, SOFT, k, a, abs(p.n))[0][abs(p.n)]
        gam = gamma_2d(p.n, k)
        radial = gam * (
            2.0 * sp.jv(p.n, k * r_eval) + (alpha - 1.0) * sp.hankel2(p.n, k * r_eval)
        )
        expect = radial * np.exp(1j * p.n * ang) / np.sqrt(2 * np.pi)
        assert np.max(np.abs(total - expect)) < 1e-5


    @pytest.mark.parametrize("bc", [SOFT, HARD])
    def test_scattered_field_matches_complex_hankel_kernel(self, bc):
        k = 1.0
        geom = make_strip()
        mesh = mesh_geometry(geom, k)
        _, sol = bem_smatrix(
            geom, bc, k, ModeSet.angular(5, k), mesh=mesh, gate=None, return_solution=True
        )
        # far points, and points just outside the band the field maps mask
        band = float(np.max(mesh.weights))
        ang = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
        far = 60.0 * np.column_stack([np.cos(ang), np.sin(ang)])
        near = mesh.nodes + 1.1 * band * mesh.normals
        near = near[~geom.contains(near) & (geom.distance_to_boundary(near) >= band)]
        assert len(near) > 100
        pts = np.vstack([far, near])
        got = scattered_field(mesh, sol, pts)
        want = complex_hankel_field(mesh, sol, pts)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def field_test_points(geom, mesh, k, halfwidth):
    """Points the field maps would evaluate, in three sets: a lattice of
    spacing lambda/7 whose live points include the row next to the masked
    band, a lambda/12 cluster over one box side centred on a boundary node
    (a box straddling the boundary), and scattered off-grid points."""
    lam = 2.0 * np.pi / k
    band = float(np.max(mesh.weights))
    n = int(2.0 * halfwidth / (lam / 7.0)) + 1
    axis = np.linspace(-halfwidth, halfwidth, n)
    lattice = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
    side = np.linspace(-0.7 * lam, 0.7 * lam, 17)
    cluster = np.stack(np.meshgrid(side, side), axis=-1).reshape(-1, 2)
    cluster += mesh.nodes[mesh.n_nodes // 3]
    scattered = np.random.default_rng(12).uniform(-halfwidth, halfwidth, size=(300, 2))
    sets = []
    for pts in (lattice, cluster, scattered):
        dist = geom.distance_to_boundary(pts)
        sets.append(pts[~geom.contains(pts) & (dist >= band)])
    dist = geom.distance_to_boundary(sets[0])
    assert np.any(dist < band + lam / 7.0)
    assert len(sets[1]) > 100
    return np.vstack(sets)


class TestFieldBoxes:
    @pytest.mark.parametrize("bc", [SOFT, HARD])
    @pytest.mark.parametrize("k", [0.7, 1.0])
    @pytest.mark.parametrize(
        "geom, halfwidth",
        [(make_strip(), 40.0), (make_cavity(3.0), 25.0), (make_circle(2.0), 30.0)],
        ids=["strip", "cavity3", "circle"],
    )
    def test_matches_direct_sum(self, monkeypatch, geom, halfwidth, k, bc):
        mesh = mesh_geometry(geom, k)
        _, sol = bem_smatrix(
            geom, bc, k, ModeSet.angular(3, k), mesh=mesh, gate=None, return_solution=True
        )
        pts = field_test_points(geom, mesh, k, halfwidth)
        sizes = []
        bessel = bem._bessel
        monkeypatch.setattr(bem, "_bessel", lambda z: sizes.append(np.size(z)) or bessel(z))
        got = scattered_field(mesh, sol, pts)
        # the expansions carried a large part of the sum
        assert sum(sizes) < 0.6 * len(pts) * mesh.n_nodes
        want = np.vstack([complex_hankel_field(mesh, sol, pts[i:i + 512])
                          for i in range(0, len(pts), 512)])
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_strip_map_bessel_work_bounded(self, monkeypatch):
        # the 101 x 101 strip map at k = 1: about 11 % of the point-node pairs
        # take the kernel (near nodes, and boxes too small to expand), plus
        # one H0/H1 pair per far node and box; the direct sum evaluated the
        # quartet at every pair
        k = 1.0
        modes = ModeSet.angular(5, k)
        geom = make_strip()
        mesh = mesh_geometry(geom, k)
        _, sol = bem_smatrix(geom, SOFT, k, modes, mesh=mesh, gate=None, return_solution=True)
        sizes = []
        bessel = bem._bessel
        monkeypatch.setattr(bem, "_bessel", lambda z: sizes.append(np.size(z)) or bessel(z))
        spec = GridSpec(-40.0, 40.0, -40.0, 40.0, 101, 101)
        regions = region_masks(geom, spec, k, mesh)
        bem_excitation_fields(mesh, sol, modes, spec, regions, np.empty((len(modes), 0)))
        assert sum(sizes) <= 0.25 * np.sum(regions.live) * mesh.n_nodes

    @pytest.mark.parametrize("bc", [SOFT, HARD])
    def test_direct_sum_chunks_match_reference(self, monkeypatch, bc):
        # chunks of about 7 rows: many per box, and boxes whose direct rows
        # end in a partial chunk
        k, geom = 1.0, make_cavity(3.0)
        mesh = mesh_geometry(geom, k)
        _, sol = bem_smatrix(
            geom, bc, k, ModeSet.angular(3, k), mesh=mesh, gate=None, return_solution=True
        )
        pts = field_test_points(geom, mesh, k, 25.0)
        monkeypatch.setattr(bem, "_PAIR_BLOCK", 7 * mesh.n_nodes + 3)
        got = scattered_field(mesh, sol, pts)
        want = np.vstack([complex_hankel_field(mesh, sol, pts[i:i + 512])
                          for i in range(0, len(pts), 512)])
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_empty_and_single_point(self):
        k = 1.0
        geom = make_circle(2.0)
        mesh = mesh_geometry(geom, k)
        _, sol = bem_smatrix(
            geom, SOFT, k, ModeSet.angular(2, k), mesh=mesh, gate=None, return_solution=True
        )
        assert scattered_field(mesh, sol, np.empty((0, 2))).shape == (0, 5)
        pt = np.array([7.0, -3.0])
        got = scattered_field(mesh, sol, pt)
        assert got.shape == (1, 5)
        want = complex_hankel_field(mesh, sol, pt[None])
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestAssembly:
    @pytest.mark.parametrize("bc", [SOFT, HARD])
    @pytest.mark.parametrize("k", [0.7, 1.0])
    @pytest.mark.parametrize(
        "geom",
        [make_circle(2.0), make_strip(), make_cavity(3.0)],
        ids=["circle", "strip", "cavity3"],
    )
    def test_matches_four_operator_reference(self, geom, k, bc):
        # the hard case's floor is the cancellation in D B D near corners,
        # whose sums run ~50x the result; both routes err alike against an
        # extended-precision product there
        mesh = mesh_geometry(geom, k)
        got = assemble_operators(mesh, k, bc)
        want = four_operator_system(mesh, k, bc)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_nonpositive_wavenumber_rejected(self):
        mesh = mesh_geometry(make_circle(1.0), 1.0)
        with pytest.raises(DomainError):
            assemble_operators(mesh, 0.0, SOFT)

    @pytest.mark.parametrize("bc", [SOFT, HARD])
    @pytest.mark.parametrize("k", [0.7, 1.0])
    @pytest.mark.parametrize(
        "geom",
        [make_circle(2.0), make_strip(), make_cavity(3.0), make_cavity(5.0)],
        ids=["circle", "strip", "cavity3", "cavity5"],
    )
    def test_row_blocks_match_full_matrix_bitwise(self, geom, k, bc):
        # N from 32 to 842, none a multiple of the row block: the Bessel
        # triangle's mirror, the blocks' diagonal limits and the ragged last
        # block all change no bit
        mesh = mesh_geometry(geom, k)
        assert mesh.n_nodes % bem._ROW_BLOCK
        got = assemble_operators(mesh, k, bc)
        assert np.array_equal(got, full_matrix_assembly(mesh, k, bc))

    @pytest.mark.parametrize("block", [1, 7, 10**6])
    @pytest.mark.parametrize("bc", [SOFT, HARD])
    @pytest.mark.parametrize("geom", [make_circle(2.0), make_strip()], ids=["circle", "strip"])
    def test_row_block_edge_cases_bitwise(self, monkeypatch, geom, bc, block):
        # one-row strips (the last one's mirror empty), a ragged last strip,
        # and one strip holding every row with no mirror at all
        monkeypatch.setattr(bem, "_ROW_BLOCK", block)
        mesh = mesh_geometry(geom, 1.0)
        got = assemble_operators(mesh, 1.0, bc)
        assert np.array_equal(got, full_matrix_assembly(mesh, 1.0, bc))

    @pytest.mark.parametrize("bc", [SOFT, HARD])
    def test_bessel_quartet_evaluated_on_one_triangle(self, monkeypatch, bc):
        # J0, Y0, J1 and Y1 at k rho are symmetric, so about half the N^2
        # entries are evaluated; each strip's evaluation serves its mirrored
        # entries and, hard, the Maue core as well
        sizes = []
        bessel = bem._bessel
        monkeypatch.setattr(bem, "_bessel", lambda z: sizes.append(np.size(z)) or bessel(z))
        mesh = mesh_geometry(make_cavity(3.0), 1.0)
        assert mesh.n_nodes == 842
        assemble_operators(mesh, 1.0, bc)
        assert sum(sizes) <= 0.55 * mesh.n_nodes**2


def traced_peak(fn):
    """Peak of the memory traced while fn runs, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAssemblyMemory:
    # the default-mesh hard w=3 cavity, 842 nodes, in units of one complex
    # N x N matrix: the matrix itself, and hard the Maue core's two real
    # parts with the spectral differentiation matrix and one product; the
    # solve adds the LU factors. A whole-matrix assembly holding the Bessel
    # quartet and the circulant log matrices reads 6.5 (hard) and 4.5 (soft)
    @pytest.mark.parametrize("bc, bound", [(HARD, 4.0), (SOFT, 2.5)])
    def test_assembly_peak(self, bc, bound):
        mesh = mesh_geometry(make_cavity(3.0), 1.0)
        assert mesh.n_nodes == 842
        peak = traced_peak(lambda: assemble_operators(mesh, 1.0, bc))
        assert peak <= bound * 16 * mesh.n_nodes**2

    @pytest.mark.parametrize("bc, bound", [(HARD, 4.0), (SOFT, 3.0)])
    def test_smatrix_peak(self, bc, bound):
        geom = make_cavity(3.0)
        mesh = mesh_geometry(geom, 1.0)
        modes = ModeSet.angular(35, 1.0)
        assert len(modes) == 71
        peak = traced_peak(lambda: bem_smatrix(geom, bc, 1.0, modes, mesh=mesh, gate=None))
        assert peak <= bound * 16 * mesh.n_nodes**2


class TestFarField:
    @pytest.mark.parametrize("k", [0.7, 1.0])
    @pytest.mark.parametrize(
        "geom",
        [make_circle(2.0), make_strip(), make_cavity(3.0)],
        ids=["circle", "strip", "cavity3"],
    )
    def test_matches_sampled_projection(self, geom, k):
        mesh = mesh_geometry(geom, k)
        modes = ModeSet.angular(int(k * np.max(np.hypot(*mesh.nodes.T))) + 8, k)
        values, nds = standing_mode_traces(mesh, modes, k)
        for bc in (SOFT, HARD):
            sol = solve_exterior(mesh, bc, values, nds, k=k)
            single = BoundarySolution(sol.density[:, [3]], bc, k, sol.residual)
            for s in (sol, single):
                got = far_field_coefficients(mesh, s, values, nds)
                want = sampled_far_field(mesh, s, modes)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_solve_evaluates_the_traces_once(self, monkeypatch):
        # the right-hand side's traces serve the projection too
        calls = []
        batch = bem.regular_waves_batch
        monkeypatch.setattr(
            bem, "regular_waves_batch", lambda *args: calls.append(1) or batch(*args)
        )
        geom = make_circle(2.0)
        bem_smatrix(geom, SOFT, 1.0, ModeSet.angular(3, 1.0), mesh=mesh_geometry(geom, 1.0),
                    gate=None)
        assert len(calls) == 1


class TestQuadratureRows:
    @pytest.mark.parametrize("n", [64, 446, 622, 692, 842])
    def test_spectral_diff_bitwise(self, n):
        assert np.array_equal(spectral_diff_matrix(n), dense_spectral_diff(n))

    def test_spectral_diff_odd_rejected(self):
        with pytest.raises(ContractError):
            spectral_diff_matrix(63)

    @pytest.mark.parametrize("n_half", [32, 223, 311, 346, 421])
    def test_log_weights_match_cosine_sum(self, n_half):
        want = cosine_sum_log_weights(n_half)
        assert np.max(np.abs(_log_weights(n_half) - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("geom", [make_strip(), make_cavity(3.0)], ids=["strip", "cavity3"])
    def test_log_sin_no_farther_from_exact(self, geom):
        mesh = mesh_geometry(geom, 1.0)
        dt = mesh.t[:, None] - mesh.t[None, :]
        s = 4.0 * np.sin(dt / 2.0) ** 2
        np.fill_diagonal(s, 1.0)
        old = np.log(s)
        # (i - j) h / 2 = (i - j) pi / N, pi to extended precision
        pi = np.longdouble("3.14159265358979323846264338327950288")
        q = np.subtract.outer(np.arange(mesh.n_nodes), np.arange(mesh.n_nodes))
        s_ext = 4.0 * np.sin(q * (pi / mesh.n_nodes)) ** 2
        np.fill_diagonal(s_ext, 1.0)
        exact = np.log(s_ext)
        new = circulant(_log_sin_row(mesh))
        assert np.array_equal(np.diag(new), np.zeros(mesh.n_nodes))
        assert np.max(np.abs(new - exact)) <= np.max(np.abs(old - exact))


class TestRotation:
    @pytest.mark.parametrize("bc", [SOFT, HARD])
    def test_rotated_square_is_phase_similar(self, bc):
        # rotating the scatterer by alpha maps incoming e^{jn theta} to
        # e^{-jn alpha} e^{jn theta} and outgoing e^{-jm theta} to
        # e^{jm alpha} e^{-jm theta}, so S' = P S P with P = diag(e^{jn alpha})
        # and Q' = P* Q P: same delays
        k, alpha = 1.0, 0.6
        square = np.array([(-2.0, -2.0), (2.0, -2.0), (2.0, 2.0), (-2.0, 2.0)])
        rot = np.array([[np.cos(alpha), -np.sin(alpha)], [np.sin(alpha), np.cos(alpha)]])
        out = []
        for verts in (square, square @ rot.T):
            geom = make_polyline([tuple(v) for v in verts])
            mesh = mesh_geometry(geom, k)

            def provider(kp, geom=geom, mesh=mesh):
                return bem_smatrix(geom, bc, kp, ModeSet.angular(8, kp), mesh=mesh)

            s = provider(k)
            dec = ws_decompose(q_matrix(s, smatrix_fd_derivative(provider, k)), s)
            out.append((mesh, s, dec.delays))
        (mesh, s, delays), (mesh_rot, s_rot, delays_rot) = out
        assert np.max(np.abs(mesh_rot.nodes - mesh.nodes @ rot.T)) < 1e-12
        phase = np.exp(1j * alpha * np.array([p.n for p in s.modes.modes]))
        expect = phase[:, None] * s.matrix * phase[None, :]
        assert len(s.modes) == 17
        assert np.max(np.abs(s_rot.matrix - expect)) <= 1e-10
        assert np.max(np.abs(delays_rot - delays)) <= 1e-8 * np.max(np.abs(delays))


class TestReflection:
    @pytest.mark.parametrize("bc", [SOFT, HARD])
    def test_mirrored_quadrilateral_is_port_permuted(self, bc):
        # reflecting the scatterer across the x-axis maps e^{jn theta} to
        # e^{-jn theta}, and gamma_{-n} H_{-n} = gamma_n H_n, so incoming and
        # outgoing port n become port -n: S_R = P S P with P the n <-> -n
        # permutation, and Q_R = P Q P has the same delays. The shape has no
        # symmetry of its own. Soft unitarity is 1.9e-3 here, above the
        # default gate (the corner grading), so no gate is applied.
        k = 1.0
        quad = np.array([(-2.0, -1.0), (2.5, -1.5), (1.0, 2.0), (-1.5, 1.2)])
        mirrored = (quad * [1.0, -1.0])[::-1]          # reversed, so still CCW
        out = []
        for verts in (quad, mirrored):
            geom = make_polyline([tuple(v) for v in verts])
            mesh = mesh_geometry(geom, k)

            def provider(kp, geom=geom, mesh=mesh):
                return bem_smatrix(geom, bc, kp, ModeSet.angular(8, kp), mesh=mesh, gate=None)

            s = provider(k)
            dec = ws_decompose(q_matrix(s, smatrix_fd_derivative(provider, k)), s)
            out.append((s, dec.delays))
        (s, delays), (s_ref, delays_ref) = out
        perm = [s.modes.position(conjugate_mode(p)[0]) for p in s.modes.modes]
        assert len(s.modes) == 17
        assert np.max(np.abs(s_ref.matrix - s.matrix[np.ix_(perm, perm)])) <= 1e-10
        assert np.max(np.abs(delays_ref - delays)) <= 1e-8 * np.max(np.abs(delays))


def convex_hull_polygon(points):
    """Counterclockwise hull vertices of (angle, radius) points; draws whose
    points coincide or are collinear have no hull and are rejected."""
    xy = np.array([(r * np.cos(a), r * np.sin(a)) for a, r in points])
    try:
        hull = ConvexHull(xy)
    except QhullError:
        assume(False)
    return [tuple(v) for v in xy[hull.vertices]]


QUADRILATERAL = [(1.09, 1.51), (-1.96, 0.77), (-1.91, -2.25), (-0.81, -1.63)]
# an (angle, radius) draw whose hull is a triangle with a 5.2 degree corner at
# (2 cos 2, 2 sin 2): the default mesh's 32 nodes per segment leave that
# corner unresolved, and the hard S fails its own gates
SHARP_TRIANGLE = [(0.0, 2.0), (0.0, 2.0), (0.0, 1.5), (2.0, 2.0)]


class TestReciprocity:
    # S = S^T (reciprocity) holds for any scatterer, so it is checked on
    # random convex polygons: hulls of 4-6 points at radius 1.5-3, the shapes
    # the soft grading defect was measured on. Symmetry is held to the gate,
    # or to the solve's own unitarity residual where that exceeds the gate
    # (unresolved sharp corners, pinned below)
    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(0.0, 2.0 * np.pi), st.floats(1.5, 3.0)),
            min_size=4,
            max_size=6,
        )
    )
    @example(SHARP_TRIANGLE)
    def test_hard_smatrix_symmetric_on_random_convex_polygons(self, points):
        geom = make_polyline(convex_hull_polygon(points))
        s = bem_smatrix(geom, HARD, 1.0, ModeSet.angular(8, 1.0), mesh=mesh_geometry(geom, 1.0),
                        gate=None)
        assert s.symmetry_residual() <= max(DEFAULT_SMATRIX_GATE, s.unitarity_residual())

    @pytest.mark.parametrize(
        "vertices, bc",
        [
            (QUADRILATERAL, SOFT),
            (QUADRILATERAL, HARD),
            pytest.param(
                convex_hull_polygon(SHARP_TRIANGLE), HARD, marks=pytest.mark.xfail(strict=True)
            ),
        ],
        ids=["quadrilateral-soft", "quadrilateral-hard", "sharp-triangle-hard"],
    )
    def test_symmetry_gate_on_pinned_shapes(self, vertices, bc):
        # quadrilateral: soft symmetry 6.6e-4 (6.0e-3 at grading p = 4), hard
        # 5.4e-5; sharp triangle: hard symmetry 2.0e-3 and unitarity 2.6e-2,
        # the unresolved corner
        geom = make_polyline(vertices)
        s = bem_smatrix(geom, bc, 1.0, ModeSet.angular(8, 1.0), mesh=mesh_geometry(geom, 1.0),
                        gate=None)
        assert s.symmetry_residual() <= DEFAULT_SMATRIX_GATE

    @pytest.mark.parametrize(
        "vertices, bc",
        [
            pytest.param(QUADRILATERAL, SOFT, marks=pytest.mark.xfail(strict=True)),
            (QUADRILATERAL, HARD),
            pytest.param(
                convex_hull_polygon(SHARP_TRIANGLE), HARD, marks=pytest.mark.xfail(strict=True)
            ),
        ],
        ids=["quadrilateral-soft", "quadrilateral-hard", "sharp-triangle-hard"],
    )
    def test_pinned_shapes_pass_the_s_gate(self, vertices, bc):
        # the full gate, unitarity too: quadrilateral soft unitarity 7.5e-3
        # and symmetry 6.6e-4, hard 5.4e-5 for both; sharp triangle hard
        # 2.6e-2 and 2.0e-3
        geom = make_polyline(vertices)
        s = bem_smatrix(geom, bc, 1.0, ModeSet.angular(8, 1.0), mesh=mesh_geometry(geom, 1.0),
                        gate=None)
        assert validate_smatrix(s).passed


class TestBemSMatrix:
    def test_mesh_refinement_converges(self):
        k = 1.0
        modes = ModeSet.angular(20, k)
        geom = make_strip()
        mats = []
        for npw in (12.0, 24.0):
            mesh = mesh_geometry(geom, k, nodes_per_wavelength=npw)
            mats.append(bem_smatrix(geom, SOFT, k, modes, mesh=mesh, gate=None).matrix)
        assert np.max(np.abs(mats[1] - mats[0])) < 1e-3

    def test_observed_convergence_order_at_least_two(self):
        # corner-limited regime: error against the finest mesh drops with
        # order >= 2 as the density doubles
        geom = make_polyline([(-2, -2), (2, -2), (2, 2), (-2, 2)])
        modes = ModeSet.angular(8, 1.0)
        mats = {}
        # densities above the per-segment floor so each level really refines
        for npw in (26.0, 52.0, 104.0):
            mesh = mesh_geometry(geom, 1.0, nodes_per_wavelength=npw)
            mats[npw] = bem_smatrix(geom, SOFT, 1.0, modes, mesh=mesh, gate=None).matrix
        e1 = np.linalg.norm(mats[26.0] - mats[104.0])
        e2 = np.linalg.norm(mats[52.0] - mats[104.0])
        order = np.log2(e1 / e2)
        assert order >= 2.0

    def test_quality_gate_raises(self):
        modes = ModeSet.angular(4, 1.0)
        geom = make_circle(1.0)
        with pytest.raises(SolverError):
            bem_smatrix(geom, SOFT, 1.0, modes, mesh=mesh_geometry(geom, 1.0), gate=1e-16)

    def test_mesh_of_other_geometry_rejected(self):
        mesh = mesh_geometry(make_cavity(5.0), 1.0)
        with pytest.raises(ContractError):
            bem_smatrix(make_cavity(3.0), SOFT, 1.0, ModeSet.angular(4, 1.0), mesh=mesh)

    def test_dim_mismatch(self):
        geom = make_circle(1.0)
        with pytest.raises(ContractError):
            bem_smatrix(geom, SOFT, 1.0, ModeSet.spherical(2, 1.0), mesh=mesh_geometry(geom, 1.0))

    def test_standing_traces_finite_for_high_orders(self):
        # the standing excitation stays tiny outside its caustic; no overflow
        mesh = mesh_geometry(make_cavity(3.0), 1.0)
        modes = ModeSet.angular(35, 1.0)
        values, nds = standing_mode_traces(mesh, modes, 1.0)
        assert np.all(np.isfinite(values)) and np.all(np.isfinite(nds))
        assert np.max(np.abs(values)) < 1e3
