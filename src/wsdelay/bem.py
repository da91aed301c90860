"""Nystrom boundary-integral solver for 2D exterior Helmholtz scattering.

Layer potentials with the outgoing Green's function G = -(j/4) H_0^(2)(k rho)
are discretized on the graded global parameter grid of geometry.BoundaryMesh.
Kernels are split as K = K1 ln(4 sin^2((t-tau)/2)) + K2 and integrated with
the spectral product-quadrature for the log factor plus the trapezoid rule,
collocating at the nodes (classical diagonal limits supplied analytically).
On the uniform parameter grid the log weights and the log factor are
circulant rows, gathered per block; spectral differentiation is Toeplitz.

Formulations are combined-field with eta = k, hence immune to fictitious
interior resonances:

    sound-soft:  u_s = D[psi] - j k S[psi],
                 (I/2 + K - j k S) psi = -u_inc
    sound-hard:  u_s = S[psi] + j k D[psi],
                 (-I/2 + K' + j k T) psi = -du_inc/dn

assemble_operators builds only the matrix the boundary condition solves.
Every kernel has the form j a (Y0 + j J0) + b (Y1 + j J1) at z = k rho with
real a and b, so one evaluation of J0, Y0, J1, Y1 serves all of them and the
matrices are assembled from real and imaginary parts. rho is symmetric bit
for bit, so each strip of cache-sized row blocks, from its diagonal on, serves
its rows and the mirrored entries below it with one evaluation of that
quartet, and no N x N Bessel or log table is held. The soft matrix is one
log-split of sigma(tau) (dG/dn_y - j k G), the representation kernel itself.
The hard matrix rewrites T by the Maue identity as tangential derivatives
around a single-layer kernel plus a k^2 (n.n)-weighted single layer, so only
logarithmic singularities are ever integrated: K' and the weighted layer
share one log-split, the Maue core is the other. Hard rows are scaled by
|x'(t_i)|, which removes the 1/|x'| of the outer arc-length derivative at
nodes graded into corners.

Field points are summed in boxes: about each box centre, Graf's addition
theorem separates H0 for the nodes far from the box into point and node
factors, the source-to-local step of a one-level fast multipole method
(V. Rokhlin, J. Comput. Phys. 86, 1990), so Bessel functions are evaluated
per far node and box, not per point-node pair. Near nodes keep the kernel.

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
from scipy.linalg import lu_factor, lu_solve, toeplitz

from .errors import ContractError, DomainError, QualityGateError, SolverError
from .geometry import BoundaryMesh, Geometry, mesh_geometry
from .mie import free_space_smatrix
from .modal import ModeSet, regular_waves_batch
from .smatrix import DEFAULT_SMATRIX_GATE, BoundaryCondition, SMatrix
from .specfun import cyl_jn_table


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


def _log_sin_row(mesh: BoundaryMesh) -> np.ndarray:
    """ln(4 sin^2((t_i - t_j)/2)), 0 at i = j: the circulant's row in q = i - j,
    folded to min(q, N - q) so the sine's argument stays small."""
    n, q = mesh.n_nodes, np.arange(mesh.n_nodes)
    s = 4.0 * np.sin(0.5 * mesh.h * np.minimum(q, n - q)) ** 2
    s[0] = 1.0
    return np.log(s)


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


def _log_split(a, b, bessel, rw, lg, h, diag, out):
    """Nystrom entries of the kernel K = _kernel(a, b) = K1 ln(4 sin^2) + K2.

    Y_n(z) carries (2/pi) J_n(z) ln z, so K1 = (b J1 + j a J0)/pi. Writes
    rw*K1 + h*(K - K1 ln 4sin^2) into out, its real and imaginary parts.
    diag, unless None, is (K1_ii, K2_ii), the complex coincident-point limits
    on the block's diagonal from (0, 0): its rows collocate at its first columns.
    """
    j0, _, j1, _ = bessel
    parts = (b * j1 / np.pi, a * j0 / np.pi)
    for full, part, dst, take in zip(_kernel(a, b, bessel), parts, out, (np.real, np.imag)):
        full -= part * lg
        if diag is not None:
            np.fill_diagonal(part, take(diag[0]))
            np.fill_diagonal(full, take(diag[1]))
        dst[...] = rw * part + h * full


# rows per assembly strip: a strip's real temporaries (_ROW_BLOCK x N) stay
# cache-sized, and the Bessel triangle's overhead over N^2/2 is N _ROW_BLOCK/2
_ROW_BLOCK = 64


def assemble_operators(mesh: BoundaryMesh, k: float, bc: BoundaryCondition) -> np.ndarray:
    """Combined-field collocation matrix of bc at k (hard rows scaled by |x'|).

    Assembled in strips, rows i0:i1 from column i0 on. rho is symmetric bit
    for bit, as x_i - x_j = -(x_j - x_i) exactly, so the strip's one Bessel
    evaluation also serves its mirror, rows i1: of columns i0:i1: the same
    kernel with row and column nodes swapped, written transposed. The log
    rows are gathered per strip, the mirror's weights at (j - i) mod N, as
    the weight row is not symmetric bit for bit; jg is a separate log-split.
    """
    if k <= 0:
        raise DomainError("wavenumber must be positive")
    xp, sigma, h = mesh.xp, mesh.speed, mesh.h
    n = mesh.n_nodes
    w_row, lg_row = _log_weights(n // 2), _log_sin_row(mesh)
    mat = np.empty((n, n), dtype=complex)

    # diagonal limit of G's smooth part, and the double-layer limits from the
    # curvature-like factor x1'' x2' - x2'' x1'
    g0_diag = -0.25j - (np.euler_gamma + np.log(k * sigma / 2.0)) / (2 * np.pi)
    curv = (mesh.xpp[:, 0] * xp[:, 1] - mesh.xpp[:, 1] * xp[:, 0]) / (4.0 * np.pi)
    soft = bc is BoundaryCondition.SOUND_SOFT
    if soft:
        limits = (0.25j * k * sigma / np.pi, curv / sigma**2 - 1j * k * g0_diag * sigma)
    else:
        limits = (-0.25j * k**3 * sigma**2 / np.pi, curv / sigma + 1j * k**3 * sigma**2 * g0_diag)
        jg = [np.empty((n, n)), np.empty((n, n))]   # log-split of j G, real and imaginary

    def block(dx, dy, rho, split, rows, cols, at, diag):
        """Entries of nodes rows against nodes cols, index tuples broadcasting
        to the block (dx, dy = x_row - x_col); at(part) views them in part."""
        xr, xc = xp[rows], xp[cols]
        if soft:
            # sigma(tau) (dG/dn_y - j k G), with (x - y) . (x2', -x1')(tau)
            a = 0.25 * k * sigma[cols]
            b = -0.25 * k * (dx * xc[..., 1] - dy * xc[..., 0]) / rho
        else:
            # sigma(t) [K' + j k^3 (n.n) S], x'(t) . x'(tau) = sigma(t) sigma(tau) (n.n),
            # plus the Maue term j k D B D, B the log-split of G (jg that of j G)
            a = -0.25 * k**3 * (xr[..., 0] * xc[..., 0] + xr[..., 1] * xc[..., 1])
            b = 0.25 * k * (dx * xr[..., 1] - dy * xr[..., 0]) * sigma[cols] / rho
            _log_split(-0.25, 0.0, *split, diag and diag[1], tuple(map(at, jg)))
        _log_split(a, b, *split, diag and diag[0], (at(mat.real), at(mat.imag)))

    for i0 in range(0, n, _ROW_BLOCK):
        i1 = min(i0 + _ROW_BLOCK, n)
        m = i1 - i0
        dx, dy = (mesh.nodes[i0:i1, None, c] - mesh.nodes[None, i0:, c] for c in (0, 1))
        rho = np.sqrt(dx * dx + dy * dy)
        np.fill_diagonal(rho, 1.0)
        bessel = _bessel(k * rho)
        gap = np.subtract.outer(np.arange(i0, i1), np.arange(i0, n)) % n   # (i - j) mod N
        lg = lg_row[gap]
        diag = ((limits[0][i0:i1], limits[1][i0:i1]), (-0.25j / np.pi, 1j * g0_diag[i0:i1]))
        block(dx, dy, rho, (bessel, w_row[gap], lg, h), np.s_[i0:i1, None], np.s_[None, i0:],
              lambda part: part[i0:i1, i0:], diag)
        split = (tuple(t[:, m:] for t in bessel), w_row[-gap[:, m:] % n], lg[:, m:], h)
        block(-dx[:, m:], -dy[:, m:], rho[:, m:], split, np.s_[None, i1:], np.s_[i0:i1, None],
              lambda part: part[i1:, i0:i1].T, None)
    if soft:
        mat[np.diag_indices(n)] += 0.5
        return mat
    dspec = spectral_diff_matrix(n)
    for dst in (mat.real, mat.imag):
        prod = (dspec @ jg.pop(0)) @ dspec
        prod *= k
        dst += prod
    mat[np.diag_indices(n)] -= 0.5 * sigma
    return mat


@dataclass
class BoundarySolution:
    """Density of the combined-field representation for one or more excitations."""

    density: np.ndarray           # (N, columns), one per right-hand side
    bc: BoundaryCondition
    k: float
    residual: float

    def __post_init__(self):
        if np.ndim(self.density) != 2:
            raise ContractError("density must be (nodes, columns)")


def solve_exterior(
    mesh: BoundaryMesh,
    bc: BoundaryCondition,
    trace: np.ndarray,
    normal_trace: np.ndarray = None,
    *,
    k: float,
) -> BoundarySolution:
    """Solve the combined-field equation for given incident boundary data.

    trace holds the incident field at the nodes; normal_trace its outward
    normal derivative (required for sound-hard). Both may carry multiple
    right-hand sides as columns; a 1-D trace is one, and the density has a
    column per right-hand side either way.
    """
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
        raise SolverError(f"boundary linear solve residual {res:.1e} above 1e-08")
    return BoundarySolution(density=density, bc=bc, k=k, residual=float(res))


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


# field points are binned into square boxes of about this side, in wavelengths;
# a box's direct sum runs in row chunks of about _PAIR_BLOCK point-node pairs
_BOX_WAVELENGTHS = 1.4
_PAIR_BLOCK = 1 << 16


def _graf_order(kr_box: float, rho: float) -> int:
    """Graf truncation P for box radius r_box and far nodes at least r_box/rho
    away: rho^P < 1e-16, and J_n(k r_box)'s bound (e k r_box/2n)^n/sqrt(2 pi n) < 1e-17."""
    n_j = 1
    while (np.e * kr_box / (2 * n_j)) ** n_j / np.sqrt(2 * np.pi * n_j) >= 1e-17:
        n_j += 1
    return max(n_j, int(np.ceil(np.log(1e-16) / np.log(rho))))


def _powers(base, order):
    """Rows base^0 .. base^order, by cumulative products."""
    rows = np.broadcast_to(base, (order, len(base)))
    return np.cumprod(np.vstack([np.ones_like(base), rows]), axis=0)


def _graf_sources(bc, k, offset, dist, normals, order):
    """Rows n = -P..P of the far nodes' coefficient block T.

    With U_n = H_n(k r) e^{-jn theta} in the nodes' polar coordinates about
    the box centre, dU_n/dn = (k/2)(conj(nu) U_{n-1} - nu U_{n+1}),
    nu = n_x + j n_y, and T_n = -(j/4)(dU_n/dn - jk U_n) soft or
    -(j/4)(U_n + jk dU_n/dn) hard. H_0 and H_1 come from _bessel, higher
    orders by upward recurrence (stable for H), and U_{-n} = (-1)^n H_n e^{jn theta}.
    """
    z = k * dist
    j0, y0, j1, y1 = _bessel(z)
    h = np.empty((order + 2, len(z)), dtype=complex)
    h[0], h[1] = j0 - 1j * y0, j1 - 1j * y1
    for n in range(1, order + 1):
        h[n + 1] = (2 * n / z) * h[n] - h[n - 1]
    phase = _powers(np.exp(-1j * np.arctan2(offset[:, 1], offset[:, 0])), order + 1)
    u = np.concatenate([h[:0:-1] * phase[:0:-1].conj(), h * phase])    # n = -(P+1)..P+1
    u[order % 2:order + 1:2] *= -1.0
    g, f = (-0.25j, -0.25 * k) if bc is BoundaryCondition.SOUND_SOFT else (0.25 * k, -0.25j)
    nu = normals[:, 0] + 1j * normals[:, 1]
    return (0.5 * k * g) * (nu.conj() * u[:-2] - nu * u[2:]) + f * u[1:-1]


def _boxes(pts: np.ndarray, k: float):
    """Square boxes of side at least _BOX_WAVELENGTHS wavelengths over the points:
    (box radius, each point's box centre, the point rows of every nonempty box)."""
    lo = pts.min(axis=0)
    span = float(np.max(pts.max(axis=0) - lo))
    least = _BOX_WAVELENGTHS * 2.0 * np.pi / k
    count = max(int(span / least), 1)
    side = max(span / count, least)
    cell = np.minimum((pts - lo) // side, count - 1)
    key = cell[:, 0] * count + cell[:, 1]
    order = np.argsort(key, kind="stable")
    boxes = np.split(order, np.flatnonzero(np.diff(key[order])) + 1)
    return side / np.sqrt(2.0), lo + (cell + 0.5) * side, boxes


def scattered_field(
    mesh: BoundaryMesh, solution: BoundarySolution, points: np.ndarray
) -> np.ndarray:
    """Evaluate the scattered field at points away from the boundary.

    The points are binned into square boxes of side about 1.4 wavelengths.
    Nodes closer to a box centre c than twice the box radius r_box enter
    through the representation kernel; the far ones through Graf's addition
    theorem (DLMF 10.23.7), H0(k|x - y|) = sum_{|n|<=P} B_n(x) U_n(y) with
    B_n = J_n(k r_x) e^{jn theta_x}, U_n = H_n(k r_y) e^{-jn theta_y} about c:
    a = T (w psi) with T of _graf_sources, then B a. Far nodes give rho <= 1/2,
    so one cyl_jn_table of that order serves every box. A box with fewer
    points than its 2P+1 terms takes the direct sum.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    dens = solution.density
    k, bc = solution.k, solution.bc
    w, nodes, normals = mesh.weights, mesh.nodes, mesh.normals
    out = np.empty((len(pts), dens.shape[1]), dtype=complex)

    def direct(rows, cols):   # out[rows], in chunks of about _PAIR_BLOCK pairs
        y, n, wy, psi = nodes[cols], normals[cols], w[cols], dens[cols]
        step = max(_PAIR_BLOCK // max(len(y), 1), 1)
        for part in np.split(rows, range(step, len(rows), step)):
            dx, dy = (pts[part, c, None] - y[:, c] for c in (0, 1))
            rho = np.maximum(np.sqrt(dx * dx + dy * dy), 1e-14)
            kern_re, kern_im = _rep_kernel(bc, k, rho, dx * n[:, 0] + dy * n[:, 1])
            kern = np.empty(rho.shape, dtype=complex)
            kern.real, kern.imag = kern_re * wy, kern_im * wy
            out[part] = kern @ psi

    if not len(pts):
        return out
    r_box, centres, boxes = _boxes(pts, k)
    local = pts - centres
    jn = cyl_jn_table(_graf_order(k * r_box, 0.5), k * np.hypot(local[:, 0], local[:, 1]))
    spin = np.exp(1j * np.arctan2(local[:, 1], local[:, 0]))
    for rows in boxes:
        offset = nodes - centres[rows[0]]
        dist = np.hypot(offset[:, 0], offset[:, 1])
        far = dist >= 2.0 * r_box
        order = _graf_order(k * r_box, r_box / np.min(dist[far])) if np.any(far) else 0
        far &= len(rows) > 2 * order
        direct(rows, ~far)
        if np.any(far):
            t = _graf_sources(bc, k, offset[far], dist[far], normals[far], order)
            pos = _powers(spin[rows], order) * jn[: order + 1, rows]
            b = np.vstack([pos[:0:-1].conj(), pos])      # n = -P..P, B_-n = (-1)^n conj B_n
            b[(order - 1) % 2:order:2] *= -1.0
            out[rows] += b.T @ (t @ (w[far, None] * dens[far]))
    return out


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
    return (-0.5j / k) * (ports.T @ (mesh.weights[:, None] * solution.density))


# ---------------------------------------------------------------------------
# incident data for the scattering columns
# ---------------------------------------------------------------------------
def standing_mode_traces(mesh: BoundaryMesh, modes: ModeSet, k: float):
    """Values and normal derivatives of the regular standing excitations.

    Column p holds 2 gamma_n J_n(kr) X_n(theta) at the nodes: the incoming
    mode p plus its own free-space outgoing response, finite everywhere; its
    normal derivative is not, so a node on the basis origin raises
    SingularPointError.
    """
    return regular_waves_batch(modes, k, mesh.nodes, mesh.normals)


def bem_smatrix(
    geometry: Geometry,
    bc: BoundaryCondition,
    k: float,
    modes: ModeSet,
    mesh: BoundaryMesh = None,
    gate: Optional[float] = DEFAULT_SMATRIX_GATE,
    return_solution: bool = False,
):
    """Scattering matrix of an arbitrary piecewise-smooth 2D boundary.

    S = S_free + projection of the scattered far fields of the M standing
    excitations. Pass a prebuilt mesh of geometry to keep the node set fixed
    across nearby wavenumbers (finite-difference dS/dk needs that). With
    return_solution, returns (S, boundary solution).
    """
    if modes.dim != 2:
        raise ContractError("BEM scattering needs a 2D mode set")
    if mesh is None:
        mesh = mesh_geometry(geometry, k)
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
        return s, sol
    return s
