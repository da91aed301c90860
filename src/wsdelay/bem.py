"""Nystrom boundary-integral solver for 2D exterior Helmholtz scattering.

Layer potentials with the outgoing Green's function G = -(j/4) H_0^(2)(k rho)
are discretized on the graded global parameter grid of geometry.BoundaryMesh.
Kernels are split as K = K1 ln(4 sin^2((t-tau)/2)) + K2 and integrated with
the spectral product-quadrature for the log factor plus the trapezoid rule,
collocating at the nodes (classical diagonal limits supplied analytically).
On the uniform parameter grid the k-independent matrices (log weights, the
log factor, spectral differentiation) are circulant or Toeplitz, built from
one row.

Formulations are combined-field with eta = k, hence immune to fictitious
interior resonances:

    sound-soft:  u_s = D[psi] - j k S[psi],
                 (I/2 + K - j k S) psi = -u_inc
    sound-hard:  u_s = S[psi] + j k D[psi],
                 (-I/2 + K' + j k T) psi = -du_inc/dn

assemble_operators builds only the matrix the boundary condition solves.
Every kernel has the form j a (Y0 + j J0) + b (Y1 + j J1) at z = k rho with
real a and b, so one evaluation of J0, Y0, J1, Y1 serves all of them and the
matrices are assembled from real and imaginary parts. The soft matrix is one
log-split of sigma(tau) (dG/dn_y - j k G), the representation kernel itself.
The hard matrix rewrites T by the Maue identity as tangential derivatives
around a single-layer kernel plus a k^2 (n.n)-weighted single layer, so only
logarithmic singularities are ever integrated: K' and the weighted layer
share one log-split, the Maue core is the other. Hard rows are scaled by
|x'(t_i)|, which removes the 1/|x'| of the outer arc-length derivative at
nodes graded into corners.

Scattering columns are driven by the regular standing excitation (incoming
mode plus its free-space response), which is finite everywhere regardless of
where the basis origin lies relative to the scatterer; the S matrix is the
free-space matrix plus the scattered far field's outgoing coefficients. By
reciprocity (Jacobi-Anger) those are exact boundary sums of the density
against the same standing traces, with no angular sampling.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import special as sp
from scipy.linalg import circulant, lu_factor, lu_solve, toeplitz

from .errors import ContractError, DomainError, QualityGateError, SolverError
from .geometry import BoundaryMesh, Geometry, mesh_geometry
from .mie import free_space_smatrix
from .modal import ModeIndex, ModeSet, regular_waves_batch
from .smatrix import DEFAULT_SMATRIX_GATE, BoundaryCondition, SMatrix


# ---------------------------------------------------------------------------
# spectral quadrature pieces
# ---------------------------------------------------------------------------
def _log_weights(n_half: int) -> np.ndarray:
    """R(q h): weights for the ln(4 sin^2((t-tau)/2)) factor, per difference.

    R(q h) = -(2 pi/n_half) sum_{m<n_half} cos(m q h)/m - (pi/n_half^2) cos(n_half q h),
    one real inverse DFT of that half spectrum. Exact for trigonometric
    polynomials of degree < n_half on the 2 n_half point uniform grid.
    """
    m = np.arange(n_half + 1)
    spec = -(np.pi / n_half) / np.maximum(m, 1)
    spec[0], spec[n_half] = 0.0, -np.pi / n_half**2
    return np.fft.irfft(spec, 2 * n_half) * (2 * n_half)


def _log_sin_matrix(mesh: BoundaryMesh) -> np.ndarray:
    """ln(4 sin^2((t_i - t_j)/2)), masked diagonal: on the uniform grid one row
    in q = i - j, folded to min(q, n - q) so the sine's argument stays small."""
    n = mesh.n_nodes
    q = np.arange(n)
    s = 4.0 * np.sin(0.5 * mesh.h * np.minimum(q, n - q)) ** 2
    s[0] = 1.0
    return circulant(np.log(s))


def spectral_diff_matrix(n: int) -> np.ndarray:
    """Periodic spectral differentiation matrix on n (even) uniform nodes."""
    if n % 2:
        raise ContractError("spectral differentiation needs an even node count")
    diff = np.arange(1 - n, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = 0.5 * (-1.0) ** diff / np.tan(diff * np.pi / n)
    d[n - 1] = 0.0
    return toeplitz(d[n - 1:], d[n - 1::-1])


# ---------------------------------------------------------------------------
# kernels and system matrices
# ---------------------------------------------------------------------------
def _bessel(z):
    """J0, Y0, J1, Y1 at z: the one Bessel evaluation behind every 2D kernel."""
    return sp.j0(z), sp.y0(z), sp.j1(z), sp.y1(z)


def _kernel(a, b, bessel):
    """Real and imaginary parts of j a (Y0 + j J0) + b (Y1 + j J1), a and b real.

    G = -(Y0 + j J0)/4 and dG/dn_y = -(k/4)(Y1 + j J1) (x - y).n_y / rho, so
    every kernel here is of this form.
    """
    j0, y0, j1, y1 = bessel
    return b * y1 - a * j0, a * y0 + b * j1


def _log_split(a, b, bessel, rw, lg, h, diag=None):
    """Nystrom matrix of the kernel K = _kernel(a, b) = K1 ln(4 sin^2) + K2.

    Y_n(z) carries (2/pi) J_n(z) ln z, so K1 = (b J1 + j a J0)/pi. Returns
    rw*K1 + h*(K - K1 ln 4sin^2), built from real and imaginary parts. diag,
    when given, holds the complex coincident-point limits (K1_ii, K2_ii).
    """
    j0, _, j1, _ = bessel
    out = np.empty(lg.shape, dtype=complex)
    parts = (b * j1 / np.pi, a * j0 / np.pi)
    for full, part, dst, take in zip(
        _kernel(a, b, bessel), parts, (out.real, out.imag), (np.real, np.imag)
    ):
        full -= part * lg
        if diag is not None:
            np.fill_diagonal(part, take(diag[0]))
            np.fill_diagonal(full, take(diag[1]))
        dst[...] = rw * part + h * full
    return out


def assemble_operators(mesh: BoundaryMesh, k: float, bc: BoundaryCondition) -> np.ndarray:
    """Combined-field collocation matrix of bc at k (hard rows scaled by |x'|)."""
    if k <= 0:
        raise DomainError("wavenumber must be positive")
    xp, sigma, h = mesh.xp, mesh.speed, mesh.h
    n = mesh.n_nodes
    dx, dy = (mesh.nodes[:, None, c] - mesh.nodes[None, :, c] for c in (0, 1))
    rho = np.sqrt(dx * dx + dy * dy)
    np.fill_diagonal(rho, 1.0)
    bessel = _bessel(k * rho)
    rw = circulant(_log_weights(n // 2))
    lg = _log_sin_matrix(mesh)

    # diagonal limit of G's smooth part, and the double-layer limits from the
    # curvature-like factor x1'' x2' - x2'' x1'
    g0_diag = -0.25j - (np.euler_gamma + np.log(k * sigma / 2.0)) / (2 * np.pi)
    curv = (mesh.xpp[:, 0] * xp[:, 1] - mesh.xpp[:, 1] * xp[:, 0]) / (4.0 * np.pi)
    if bc is BoundaryCondition.SOUND_SOFT:
        # sigma(tau) (dG/dn_y - j k G), q = (x - y) . (x2', -x1')(tau)
        q = dx * xp[None, :, 1] - dy * xp[None, :, 0]
        diag = (0.25j * k * sigma / np.pi, curv / sigma**2 - 1j * k * g0_diag * sigma)
        mat = _log_split(0.25 * k * sigma[None, :], -0.25 * k * q / rho, bessel, rw, lg, h, diag)
        mat[np.diag_indices(n)] += 0.5
        return mat

    # sigma(t) [K' + j k^3 (n.n) S], p = (x - y) . (x2', -x1')(t) and
    # xx = x'(t) . x'(tau) = sigma(t) sigma(tau) (n.n), plus the Maue term
    # j k D B D, B the log-split of G (jg below is that of j G)
    p = dx * xp[:, None, 1] - dy * xp[:, None, 0]
    xx = xp[:, None, 0] * xp[None, :, 0] + xp[:, None, 1] * xp[None, :, 1]
    diag = (-0.25j * k**3 * sigma**2 / np.pi, curv / sigma + 1j * k**3 * sigma**2 * g0_diag)
    mat = _log_split(
        -0.25 * k**3 * xx, 0.25 * k * p * sigma[None, :] / rho, bessel, rw, lg, h, diag
    )
    jg = _log_split(-0.25, 0.0, bessel, rw, lg, h, (-0.25j / np.pi, 1j * g0_diag))
    dspec = spectral_diff_matrix(n)
    mat.real += k * (dspec @ jg.real @ dspec)
    mat.imag += k * (dspec @ jg.imag @ dspec)
    mat[np.diag_indices(n)] -= 0.5 * sigma
    return mat


@dataclass
class BoundarySolution:
    """Density of the combined-field representation for one or more excitations."""

    density: np.ndarray           # (N,) or (N, M)
    bc: BoundaryCondition
    k: float
    residual: float
    excitation: Optional[ModeIndex] = None


def solve_exterior(
    mesh: BoundaryMesh,
    bc: BoundaryCondition,
    trace: np.ndarray,
    normal_trace: np.ndarray = None,
    k: float = None,
) -> BoundarySolution:
    """Solve the combined-field equation for given incident boundary data.

    trace holds the incident field at the nodes; normal_trace its outward
    normal derivative (required for sound-hard). Both may carry multiple
    right-hand sides as columns.
    """
    if k is None:
        k = mesh.k_design
    if bc is BoundaryCondition.SOUND_HARD:
        if normal_trace is None:
            raise ContractError("sound-hard solve needs the incident normal derivative")
        nt = np.asarray(normal_trace, dtype=complex).reshape(mesh.n_nodes, -1)
        rhs = -mesh.speed[:, None] * nt
    else:
        rhs = -np.asarray(trace, dtype=complex).reshape(mesh.n_nodes, -1)
    a = assemble_operators(mesh, k, bc)
    try:
        lu = lu_factor(a)
        density = lu_solve(lu, rhs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise SolverError(f"boundary solve failed: {exc}") from exc
    res = np.linalg.norm(a @ density - rhs) / max(np.linalg.norm(rhs), 1e-300)
    if not np.all(np.isfinite(density)):
        raise SolverError("boundary solve produced non-finite density")
    if res > 1e-8:
        raise SolverError("boundary linear solve residual above threshold", residual=res)
    out = density if rhs.shape[1] > 1 else density[:, 0]
    return BoundarySolution(density=out, bc=bc, k=k, residual=float(res))


# ---------------------------------------------------------------------------
# field evaluation and far-field projection
# ---------------------------------------------------------------------------
def _rep_kernel(bc, k, rho, rdotn):
    """Real and imaginary parts of the representation kernel (per unit arc):
    dG/dn - j k G for soft, G + j k dG/dn = j (k dG/dn - j G) for hard."""
    bessel = _bessel(k * rho)
    if bc is BoundaryCondition.SOUND_SOFT:
        return _kernel(0.25 * k, (-0.25 * k) * rdotn / rho, bessel)
    re, im = _kernel(0.25, (-0.25 * k * k) * rdotn / rho, bessel)
    return -im, re


def scattered_field(
    mesh: BoundaryMesh, solution: BoundarySolution, points: np.ndarray
) -> np.ndarray:
    """Evaluate the scattered field at points away from the boundary."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    dens = solution.density if solution.density.ndim == 2 else solution.density[:, None]
    chunk = 4096
    w = mesh.weights
    (node_x, node_y), (nrm_x, nrm_y) = mesh.nodes.T, mesh.normals.T
    out = np.empty((len(pts), dens.shape[1]), dtype=complex)
    for lo in range(0, len(pts), chunk):
        hi = min(lo + chunk, len(pts))
        dx = pts[lo:hi, 0, None] - node_x
        dy = pts[lo:hi, 1, None] - node_y
        rho = np.maximum(np.sqrt(dx * dx + dy * dy), 1e-14)
        kern_re, kern_im = _rep_kernel(solution.bc, solution.k, rho, dx * nrm_x + dy * nrm_y)
        kern = np.empty(rho.shape, dtype=complex)
        kern.real = kern_re * w
        kern.imag = kern_im * w
        out[lo:hi] = kern @ dens
    return out if solution.density.ndim == 2 else out[:, 0]


def far_field_coefficients(
    mesh: BoundaryMesh,
    solution: BoundarySolution,
    values: np.ndarray,
    normal_derivs: np.ndarray,
) -> np.ndarray:
    """Project the scattered far field onto the outgoing angular templates.

    The far amplitude F(theta) multiplies e^{-jkr}/sqrt(r), and port n takes
    the integral of F e^{jn theta}/sqrt(2 pi). F's kernel is
    c (jk xhat.n - jk) e^{jk xhat.y} (soft) or c (1 - k^2 xhat.n) e^{jk xhat.y}
    (hard), c = -(j/4) sqrt(2/(pi k)) e^{j pi/4}. By Jacobi-Anger the angular
    integral of e^{jn theta} e^{jk xhat.y} is 2 pi j^n J_n(k|y|) e^{jn phi} =
    2 pi j^n sqrt(2 pi) R_n(y)/(2 gamma_n), R_n the standing trace, and the
    xhat.n factor becomes a normal derivative. The projection is therefore
    exact, with no angular sampling: the weighted density against
    dR_n/dn - jk R_n (soft) or R_n + jk dR_n/dn (hard), times
    c 2 pi j^n/(2 gamma_n) = -j/(2k). values and normal_derivs are the
    standing traces of standing_mode_traces at the solution's k, one column
    per port, so the solve's right-hand side serves the projection too.
    """
    k = solution.k
    if solution.bc is BoundaryCondition.SOUND_SOFT:
        ports = normal_derivs - 1j * k * values
    else:
        ports = values + 1j * k * normal_derivs
    weighted = mesh.weights[:, None] * solution.density.reshape(mesh.n_nodes, -1)
    coeffs = (-0.5j / k) * (ports.T @ weighted)
    return coeffs if solution.density.ndim == 2 else coeffs[:, 0]


def offnode_dirichlet_residual(
    mesh: BoundaryMesh,
    solution: BoundarySolution,
    incident_fn,
    offset: float = 0.37,
    exclude_corner_radius: float = 0.0,
) -> float:
    """Collocate the soft combined-field equation between the solve's nodes.

    The equation is the boundary condition, so its residual at parameters the
    solve never saw measures how well the condition holds along the whole
    curve. The density is evaluated there by trigonometric interpolation and
    the log-quadrature weights by their general-point formula. Returns the
    max residual normalized by the incident sup-norm.

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
    combined = _log_split(
        0.25 * k * mesh.speed[None, :], -0.25 * k * q / rho, _bessel(k * rho), rw, lg, mesh.h
    )

    # trigonometric interpolation of the density at t*
    delta = tstar[:, None] - mesh.t[None, :]
    basis = np.sin(n * delta / 2.0) / np.tan(delta / 2.0) / n
    psi = solution.density if solution.density.ndim == 1 else solution.density[:, 0]
    psi_star = basis @ psi

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


# ---------------------------------------------------------------------------
# incident data for the scattering columns
# ---------------------------------------------------------------------------
def standing_mode_traces(mesh: BoundaryMesh, modes: ModeSet, k: float):
    """Values and normal derivatives of the regular standing excitations.

    Column p holds 2 gamma_n J_n(kr) X_n(theta) at the nodes: the incoming
    mode p plus its own free-space outgoing response, finite everywhere.
    """
    if np.any(np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1]) == 0.0):
        raise ContractError("boundary node at the basis origin")
    return regular_waves_batch(modes, k, mesh.nodes, mesh.normals)


def bem_smatrix(
    geometry: Geometry,
    bc: BoundaryCondition,
    k: float,
    modes: ModeSet,
    mesh: BoundaryMesh = None,
    nodes_per_wavelength: float = 12.0,
    grading_exponent: int = 4,
    gate: Optional[float] = DEFAULT_SMATRIX_GATE,
    return_solution: bool = False,
):
    """Scattering matrix of an arbitrary piecewise-smooth 2D boundary.

    S = S_free + projection of the scattered far fields of the M standing
    excitations. Pass a prebuilt mesh of geometry to keep the node set fixed
    across nearby wavenumbers (finite-difference dS/dk needs that).
    """
    if modes.dim != 2:
        raise ContractError("BEM scattering needs a 2D mode set")
    if mesh is None:
        mesh = mesh_geometry(geometry, k, nodes_per_wavelength, grading_exponent)
    elif mesh.geometry != geometry:
        raise ContractError("mesh was built for another geometry")
    values, normal_derivs = standing_mode_traces(mesh, modes, k)
    sol = solve_exterior(mesh, bc, values, normal_derivs, k=k)
    delta = far_field_coefficients(mesh, sol, values, normal_derivs)
    s = SMatrix(modes=modes, k=k, matrix=free_space_smatrix(modes).matrix + delta)
    if gate is not None:
        res = max(s.unitarity_residual(), s.symmetry_residual())
        if res > gate:
            raise QualityGateError(
                f"scattering matrix fails quality gate ({res:.2e} > {gate:.2e})"
            )
    if return_solution:
        return s, sol, mesh
    return s
