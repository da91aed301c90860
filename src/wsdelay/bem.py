"""Nystrom boundary-integral solver for 2D exterior Helmholtz scattering.

Layer potentials with the outgoing Green's function G = -(j/4) H_0^(2)(k rho)
are discretized on the graded global parameter grid of geometry.BoundaryMesh.
Kernels are split as K = K1 ln(4 sin^2((t-tau)/2)) + K2 and integrated with
the spectral product-quadrature for the log factor plus the trapezoid rule,
collocating at the nodes (classical diagonal limits supplied analytically).

Formulations are combined-field, hence immune to fictitious interior
resonances:

    sound-soft:  u_s = D[psi] - j eta S[psi],
                 (I/2 + K - j eta S) psi = -u_inc
    sound-hard:  u_s = S[psi] + j eta D[psi],
                 (-I/2 + K' + j eta T) psi = -du_inc/dn

with eta = k and T rewritten by the Maue identity as tangential derivatives
around a single-layer kernel plus a k^2 (n.n)-weighted single layer, so only
logarithmic singularities are ever integrated. The hard-case rows are scaled
by |x'(t_i)|, which removes the 1/|x'| of the outer arc-length derivative at
nodes graded into corners.

Scattering columns are driven by the regular standing excitation (incoming
mode plus its free-space response), which is finite everywhere regardless of
where the basis origin lies relative to the scatterer; the S matrix is the
free-space matrix plus the projection of the scattered far field onto the
outgoing templates.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import special as sp
from scipy.linalg import lu_factor, lu_solve

from .errors import ContractError, DomainError, QualityGateError, SolverError
from .geometry import BoundaryMesh, Geometry, mesh_geometry
from .mie import free_space_smatrix
from .modal import ModeIndex, ModeSet, regular_waves_batch
from .smatrix import DEFAULT_SMATRIX_GATE, BoundaryCondition, SMatrix

_EULER_GAMMA = 0.5772156649015329


# ---------------------------------------------------------------------------
# spectral quadrature pieces
# ---------------------------------------------------------------------------
def _log_weights(n_half: int) -> np.ndarray:
    """R(q h): weights for the ln(4 sin^2((t-tau)/2)) factor, per difference.

    Exact for trigonometric polynomials of degree < n_half on the 2 n_half
    point uniform grid.
    """
    n_nodes = 2 * n_half
    h = np.pi / n_half
    q = np.arange(n_nodes)
    m = np.arange(1, n_half)
    csum = np.cos(np.outer(m, q * h)) / m[:, None]
    return -(2.0 * np.pi / n_half) * csum.sum(axis=0) - (np.pi / n_half**2) * np.cos(
        n_half * q * h
    )


def _log_weight_matrix(mesh: BoundaryMesh) -> np.ndarray:
    n = mesh.n_nodes
    r = _log_weights(n // 2)
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return r[idx]


def _log_sin_matrix(mesh: BoundaryMesh) -> np.ndarray:
    """ln(4 sin^2((t_i - t_j)/2)) with a masked diagonal."""
    n = mesh.n_nodes
    dt = mesh.t[:, None] - mesh.t[None, :]
    s = 4.0 * np.sin(dt / 2.0) ** 2
    np.fill_diagonal(s, 1.0)
    return np.log(s)


def spectral_diff_matrix(n: int) -> np.ndarray:
    """Periodic spectral differentiation matrix on n (even) uniform nodes."""
    if n % 2:
        raise ContractError("spectral differentiation needs an even node count")
    i = np.arange(n)
    diff = i[:, None] - i[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        d = 0.5 * (-1.0) ** diff / np.tan(diff * np.pi / n)
    d[diff == 0] = 0.0
    return d


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------
@dataclass
class BoundaryOperators:
    """Dense Nystrom matrices of the boundary operators at one wavenumber."""

    mesh: BoundaryMesh
    k: float
    single: np.ndarray            # S: single layer with arc Jacobian
    double: np.ndarray            # K: double layer (PV part)
    adjoint_double: np.ndarray    # K': normal derivative of single layer (PV)
    hypersingular: Optional[np.ndarray] = None  # T via Maue (rows NOT scaled)


def _log_split(full, part, rw, lg, h, diag=None):
    """Nystrom matrix of a kernel K = K1 ln(4 sin^2((t-tau)/2)) + K2.

    full is K and part is K1; returns rw*K1 + h*(K - K1 ln 4sin^2). diag, when
    given, holds the analytic coincident-point limits (K1_ii, K2_ii); they
    overwrite the diagonal of part in place.
    """
    rest = full - part * lg
    if diag is not None:
        np.fill_diagonal(part, diag[0])
        np.fill_diagonal(rest, diag[1])
    return rw * part + h * rest


def assemble_operators(mesh: BoundaryMesh, k: float, hypersingular: bool = False):
    if k <= 0:
        raise DomainError("wavenumber must be positive")
    x = mesh.nodes
    xp = mesh.xp
    xpp = mesh.xpp
    sigma = mesh.speed
    n = mesh.n_nodes
    h = mesh.h

    dx = x[:, None, :] - x[None, :, :]
    rho = np.sqrt(np.sum(dx**2, axis=-1))
    np.fill_diagonal(rho, 1.0)
    z = k * rho
    j0, j1 = sp.j0(z), sp.j1(z)
    y0, y1 = sp.y0(z), sp.y1(z)
    h0, h1 = j0 - 1j * y0, j1 - 1j * y1

    rw = _log_weight_matrix(mesh)
    lg = _log_sin_matrix(mesh)

    # G0 = -(j/4) H0^(2)(k rho), its log part and its diagonal limit
    g0 = -0.25j * h0
    g0_log = -(1.0 / (4.0 * np.pi)) * j0
    g0_diag = -0.25j - _EULER_GAMMA / (2 * np.pi) - np.log(k * sigma / 2.0) / (2 * np.pi)
    diag_s = (-sigma / (4.0 * np.pi), g0_diag * sigma)

    # single layer, kernel G0 sigma(tau)
    single = _log_split(g0 * sigma[None, :], g0_log * sigma[None, :], rw, lg, h, diag_s)

    # curvature-like factor x1'' x2' - x2'' x1' gives the double-layer limits
    curv = xpp[:, 0] * xp[:, 1] - xpp[:, 1] * xp[:, 0]
    diag_d = (0.0, curv / (4.0 * np.pi * sigma**2))

    # double layer, kernel -(jk/4) H1^(2)(k rho) q / rho, q = dx . (x2', -x1')(tau)
    q = dx[:, :, 0] * xp[None, :, 1] - dx[:, :, 1] * xp[None, :, 0]
    np.fill_diagonal(q, 0.0)
    double = _log_split(
        -0.25j * k * h1 * q / rho, -(k / (4.0 * np.pi)) * j1 * q / rho, rw, lg, h, diag_d
    )

    # adjoint double layer, kernel (jk/4) H1^(2) (dx . n(t)) sigma(tau) / rho
    pnum = dx[:, :, 0] * xp[:, None, 1] - dx[:, :, 1] * xp[:, None, 0]
    np.fill_diagonal(pnum, 0.0)
    p = pnum / sigma[:, None]
    adjoint_double = _log_split(
        0.25j * k * h1 * p * sigma[None, :] / rho,
        (k / (4.0 * np.pi)) * j1 * p * sigma[None, :] / rho,
        rw, lg, h, diag_d,
    )

    hyper = None
    if hypersingular:
        # Maue: T = (1/sigma) d/dt [ G0 applied to psi'(tau) ] + k^2 (n.n) S
        nn = (xp[:, None, :] * xp[None, :, :]).sum(-1) / (sigma[:, None] * sigma[None, :])
        weighted = _log_split(
            g0 * nn * sigma[None, :], g0_log * nn * sigma[None, :], rw, lg, h, diag_s
        )
        b = _log_split(g0, g0_log, rw, lg, h, (-1.0 / (4.0 * np.pi), g0_diag))
        dspec = spectral_diff_matrix(n)
        hyper = (dspec @ b @ dspec) / sigma[:, None] + k**2 * weighted

    return BoundaryOperators(
        mesh=mesh,
        k=k,
        single=single,
        double=double,
        adjoint_double=adjoint_double,
        hypersingular=hyper,
    )


def system_matrix(ops: BoundaryOperators, bc: BoundaryCondition, eta: float = None):
    """Combined-field collocation matrix (hard rows scaled by |x'|)."""
    n = ops.mesh.n_nodes
    if eta is None:
        eta = ops.k
    if bc is BoundaryCondition.SOUND_SOFT:
        return 0.5 * np.eye(n) + ops.double - 1j * eta * ops.single
    sigma = ops.mesh.speed
    base = -0.5 * np.eye(n) + ops.adjoint_double
    return sigma[:, None] * base + 1j * eta * (
        sigma[:, None] * ops.hypersingular
    )


@dataclass
class BoundarySolution:
    """Density of the combined-field representation for one or more excitations."""

    density: np.ndarray           # (N,) or (N, M)
    bc: BoundaryCondition
    k: float
    eta: float
    residual: float
    excitation: Optional[ModeIndex] = None


def solve_exterior(
    mesh: BoundaryMesh,
    bc: BoundaryCondition,
    trace: np.ndarray,
    normal_trace: np.ndarray = None,
    k: float = None,
    eta: float = None,
    ops: BoundaryOperators = None,
    residual_limit: float = 1e-8,
) -> BoundarySolution:
    """Solve the combined-field equation for given incident boundary data.

    trace holds the incident field at the nodes; normal_trace its outward
    normal derivative (required for sound-hard). Both may carry multiple
    right-hand sides as columns.
    """
    if k is None:
        k = mesh.k_design
    if eta is None:
        eta = k
    if ops is None:
        ops = assemble_operators(mesh, k, hypersingular=bc is BoundaryCondition.SOUND_HARD)
    if bc is BoundaryCondition.SOUND_HARD:
        if normal_trace is None:
            raise ContractError("sound-hard solve needs the incident normal derivative")
        nt = np.asarray(normal_trace, dtype=complex).reshape(mesh.n_nodes, -1)
        rhs = -mesh.speed[:, None] * nt
    else:
        rhs = -np.asarray(trace, dtype=complex).reshape(mesh.n_nodes, -1)
    a = system_matrix(ops, bc, eta)
    try:
        lu = lu_factor(a)
        density = lu_solve(lu, rhs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise SolverError(f"boundary solve failed: {exc}") from exc
    res = np.linalg.norm(a @ density - rhs) / max(np.linalg.norm(rhs), 1e-300)
    if not np.all(np.isfinite(density)):
        raise SolverError("boundary solve produced non-finite density")
    if res > residual_limit:
        raise SolverError("boundary linear solve residual above threshold", residual=res)
    out = density if rhs.shape[1] > 1 else density[:, 0]
    return BoundarySolution(
        density=out, bc=bc, k=k, eta=eta, residual=float(res)
    )


# ---------------------------------------------------------------------------
# field evaluation and far-field projection
# ---------------------------------------------------------------------------
def _rep_kernel(bc, k, eta, rho, rdotn):
    """Real and imaginary parts of the representation kernel (per unit arc),
    from G = -(j/4) H0^(2)(z) = -(Y0 + j J0)/4 and dG/dn = -(k/4)(Y1 + j J1)
    rdotn/rho at z = k rho."""
    z = k * rho
    j0, y0, j1, y1 = sp.j0(z), sp.y0(z), sp.j1(z), sp.y1(z)
    c = (0.25 * k) * rdotn / rho
    if bc is BoundaryCondition.SOUND_SOFT:      # dG/dn - j eta G
        return -c * y1 - (0.25 * eta) * j0, (0.25 * eta) * y0 - c * j1
    return (eta * c) * j1 - 0.25 * y0, -0.25 * j0 - (eta * c) * y1   # G + j eta dG/dn


def scattered_field(
    mesh: BoundaryMesh,
    solution: BoundarySolution,
    points: np.ndarray,
    chunk: int = 4096,
) -> np.ndarray:
    """Evaluate the scattered field at points away from the boundary."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    dens = solution.density if solution.density.ndim == 2 else solution.density[:, None]
    k, eta, bc = solution.k, solution.eta, solution.bc
    w = mesh.weights
    (node_x, node_y), (nrm_x, nrm_y) = mesh.nodes.T, mesh.normals.T
    out = np.empty((len(pts), dens.shape[1]), dtype=complex)
    for lo in range(0, len(pts), chunk):
        hi = min(lo + chunk, len(pts))
        dx = pts[lo:hi, 0, None] - node_x
        dy = pts[lo:hi, 1, None] - node_y
        rho = np.maximum(np.sqrt(dx * dx + dy * dy), 1e-14)
        kern_re, kern_im = _rep_kernel(bc, k, eta, rho, dx * nrm_x + dy * nrm_y)
        kern = np.empty(rho.shape, dtype=complex)
        kern.real = kern_re * w
        kern.imag = kern_im * w
        out[lo:hi] = kern @ dens
    return out if solution.density.ndim == 2 else out[:, 0]


def far_field_coefficients(
    mesh: BoundaryMesh,
    solution: BoundarySolution,
    modes: ModeSet,
    n_far: int = None,
) -> np.ndarray:
    """Project the scattered far field onto the outgoing angular templates.

    Far amplitude F(theta) multiplies e^{-jkr}/sqrt(r); coefficients follow
    from orthonormality of e^{-jn theta}/sqrt(2 pi).
    """
    k, eta, bc = solution.k, solution.eta, solution.bc
    n_max = max(abs(p.n) for p in modes.modes)
    if n_far is None:
        n_far = max(512, 8 * n_max)
    theta = np.arange(n_far) * (2.0 * np.pi / n_far)
    xhat = np.column_stack([np.cos(theta), np.sin(theta)])
    phase = np.exp(1j * k * (xhat @ mesh.nodes.T))          # (n_far, N)
    xdotn = xhat @ mesh.normals.T
    if bc is BoundaryCondition.SOUND_SOFT:
        kern = (1j * k * xdotn - 1j * eta) * phase
    else:
        kern = (1.0 + 1j * eta * 1j * k * xdotn) * phase
    c_far = -0.25j * np.sqrt(2.0 / (np.pi * k)) * np.exp(1j * np.pi / 4.0)
    dens = solution.density if solution.density.ndim == 2 else solution.density[:, None]
    f_theta = c_far * (kern * mesh.weights[None, :]) @ dens  # (n_far, M)
    orders = np.array([p.n for p in modes.modes])
    proj = np.exp(1j * np.outer(orders, theta)) * (2.0 * np.pi / n_far) / np.sqrt(2.0 * np.pi)
    coeffs = proj @ f_theta
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
    k, eta = solution.k, solution.eta
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

    dx = pos[:, None, :] - mesh.nodes[None, :, :]
    rho = np.sqrt(np.sum(dx**2, axis=-1))
    z = k * rho
    j0, j1, y0, y1 = sp.j0(z), sp.j1(z), sp.y0(z), sp.y1(z)
    lg = np.log(4.0 * np.sin(dt / 2.0) ** 2)
    sigma = mesh.speed

    single = _log_split(
        -0.25j * (j0 - 1j * y0) * sigma[None, :],
        -(1.0 / (4.0 * np.pi)) * j0 * sigma[None, :],
        rw, lg, mesh.h,
    )
    q = dx[:, :, 0] * mesh.xp[None, :, 1] - dx[:, :, 1] * mesh.xp[None, :, 0]
    double = _log_split(
        -0.25j * k * (j1 - 1j * y1) * q / rho, -(k / (4.0 * np.pi)) * j1 * q / rho,
        rw, lg, mesh.h,
    )

    # trigonometric interpolation of the density at t*
    delta = tstar[:, None] - mesh.t[None, :]
    basis = np.sin(n * delta / 2.0) / np.tan(delta / 2.0) / n
    psi = solution.density if solution.density.ndim == 1 else solution.density[:, 0]
    psi_star = basis @ psi

    lhs = 0.5 * psi_star + (double - 1j * eta * single) @ psi
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
    eta: float = None,
    gate: Optional[float] = DEFAULT_SMATRIX_GATE,
    return_solution: bool = False,
):
    """Scattering matrix of an arbitrary piecewise-smooth 2D boundary.

    S = S_free + projection of the scattered far fields of the M standing
    excitations. Pass a prebuilt mesh to keep the node set fixed across
    nearby wavenumbers (finite-difference dS/dk needs that).
    """
    if modes.dim != 2:
        raise ContractError("BEM scattering needs a 2D mode set")
    if mesh is None:
        mesh = mesh_geometry(geometry, k, nodes_per_wavelength, grading_exponent)
    values, normal_derivs = standing_mode_traces(mesh, modes, k)
    sol = solve_exterior(mesh, bc, values, normal_derivs, k=k, eta=eta)
    delta = far_field_coefficients(mesh, sol, modes)
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
