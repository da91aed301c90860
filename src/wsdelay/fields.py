"""Total-field maps for delay eigenmodes and their phenomenological labels.

By linearity the field of a delay eigenmode w is F w, F the total fields of
the M standing excitations on a Cartesian grid. Localization metrics (energy
fractions near the boundary, at corners and inside a cavity void) quantify
what the eigenmode illuminates. Each region's energy is the quadratic form
w^H G_r w of the Gram matrix G_r = F_r^H F_r over the region's rows, so the
metrics need no point values of any mode. F is never held whole: one pass
over the live grid, in bands of rows at most one Graf box high, adds each
band's rows of F to the region Grams and to the exported modes' values and
drops them. A threshold cascade sorts the modes into the observed families:
corner diffraction, beam-like ballistic reflection,
boundary-guided surface waves, non-propagating (caustic radius beyond the
scatterer) and trapped cavity modes.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg.blas import zherk

from .bem import _BOX_WAVELENGTHS, BoundarySolution, scattered_field
from .errors import ContractError, DomainError
from .geometry import BoundaryMesh, Geometry
from .mie import free_space_smatrix
from .modal import ModeSet, gamma_2d, polar_coordinates, regular_waves_batch
from .smatrix import SMatrix
from .specfun import hankel1_table

MODE_LABELS = ("corner", "ballistic", "surface-wave", "non-propagating", "cavity")


@dataclass(frozen=True)
class GridSpec:
    xmin: float
    xmax: float
    ymin: float
    ymax: float
    nx: int = 301
    ny: int = 301

    def __post_init__(self):
        if self.xmax <= self.xmin or self.ymax <= self.ymin:
            raise DomainError("empty grid extent")
        if self.nx < 2 or self.ny < 2:
            raise DomainError("grid needs at least 2x2 points")

    def points(self) -> np.ndarray:
        """Grid points, row-major: y varies slowest."""
        x = np.linspace(self.xmin, self.xmax, self.nx)
        y = np.linspace(self.ymin, self.ymax, self.ny)
        yy, xx = np.meshgrid(y, x, indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel()])


@dataclass
class RegionMasks:
    boundary: np.ndarray
    corner: np.ndarray
    interior: np.ndarray
    live: np.ndarray

    @property
    def baselines(self):
        n = max(int(np.sum(self.live)), 1)
        return (
            float(np.sum(self.boundary)) / n,
            float(np.sum(self.corner)) / n,
            float(np.sum(self.interior)) / n,
        )


def region_masks(
    geometry: Geometry, spec: GridSpec, k: float, mesh: Optional[BoundaryMesh] = None,
) -> RegionMasks:
    """The live grid points and the metric regions within them; the interior
    region is the live part of the geometry's interior, if it has one.

    Points inside the scatterer are dead, and so are those within one panel
    length of mesh's boundary, where the plain quadrature of the
    representation integral is not trustworthy; without a mesh (the modal
    fields, exact off the scatterer) the band is 0.02 wavelengths.
    """
    pts = spec.points()
    lam = 2.0 * np.pi / k
    band = 0.02 * lam if mesh is None else float(np.max(mesh.weights))
    dist = geometry.distance_to_boundary(pts)
    live = ~geometry.contains(pts) & (dist >= band)
    boundary = live & (dist <= lam)
    corner = interior = np.zeros(len(pts), dtype=bool)
    if geometry.corners:
        c = np.asarray(geometry.corners, dtype=float)
        dcorner = np.min(np.hypot(pts[:, None, 0] - c[:, 0], pts[:, None, 1] - c[:, 1]), axis=1)
        corner = live & (dcorner <= lam)
    if geometry.interior is not None:
        x0, x1, y0, y1 = geometry.interior
        x, y = pts[:, 0], pts[:, 1]
        interior = live & (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)
    return RegionMasks(boundary=boundary, corner=corner, interior=interior, live=live)


def mode_field_matrix(fields: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Fields of the delay eigenmodes in W's columns at a block's points,
    from that block's excitation fields: fields @ W."""
    return fields @ w


def _stream(spec, regions, export, fields_at, k):
    """One pass over the live grid points in bands of rows at most one Graf
    box high, which scattered_field bins into one row of whole boxes.

    fields_at(points) gives a band's (points, M) excitation fields F_b. Each
    region's rows of F_b add F_b^H F_b to its Gram matrix by a Hermitian
    rank-k update, which reads F_b in place (the live rows are all of it),
    and F_b W[:, export] fills the exported modes' rows; then F_b goes.
    Returns the (4, M, M) Grams of the live, boundary, corner and interior
    points and the (points, exports) values, 0 at dead points.
    """
    pts = spec.points()
    dy = (spec.ymax - spec.ymin) / (spec.ny - 1)
    step = spec.nx * (int(_BOX_WAVELENGTHS * 2.0 * np.pi / k / dy) + 1)
    grams = np.zeros((4, len(export), len(export)), dtype=complex)
    values = np.zeros((len(pts), export.shape[1]), dtype=complex)
    sets = (regions.live, regions.boundary, regions.corner, regions.interior)
    for start in range(0, len(pts), step):
        rows = start + np.flatnonzero(regions.live[start:start + step])
        if not len(rows):
            continue
        f = fields_at(pts[rows])
        for r, region in enumerate(sets):
            part = region[rows]
            if np.any(part):
                grams[r] = zherk(1.0, f if np.all(part) else f[part], 1.0, grams[r], trans=2)
        values[rows] = mode_field_matrix(f, export)
        del f   # before the next band is made, not after
    return np.triu(grams) + np.triu(grams, 1).conj().swapaxes(1, 2), values


def bem_excitation_fields(mesh: BoundaryMesh, solution: BoundarySolution, modes: ModeSet,
                          spec: GridSpec, regions: RegionMasks, export: np.ndarray):
    """Region Grams and exported mode values (see _stream) of the total
    fields, incident plus scattered, of all excitations; regions come from
    region_masks with this mesh.
    """
    if solution.density.shape[1] != len(modes):
        raise ContractError("need one boundary solution per mode")

    def fields_at(pts):
        f = regular_waves_batch(modes, solution.k, pts)
        f += scattered_field(mesh, solution, pts)
        return f

    return _stream(spec, regions, export, fields_at, solution.k)


def modal_excitation_fields(s: SMatrix, spec: GridSpec, regions: RegionMasks, export):
    """Region Grams and exported mode values (see _stream) of the excitation
    fields of a centered-scatterer S matrix (2D).

    Valid wherever the outgoing partial-wave expansion converges, i.e.
    outside the circumscribing circle; region_masks without a mesh removes
    interior points, so this serves the circular-cylinder scenarios. Every
    port's outgoing wave conj(gamma_n) H^(2)_n(kr) e^{-jn theta}/sqrt(2 pi)
    comes from one H^(1) table, with H^(2) = conj H^(1) at real arguments and
    H_{-n} = (-1)^n H_n.
    """
    if s.modes.dim != 2:
        raise ContractError("modal field evaluation is 2D")
    delta = s.matrix - free_space_smatrix(s.modes).matrix
    orders = np.array([m.n for m in s.modes.modes])
    scale = [np.conj(gamma_2d(n, s.k)) * (-1.0) ** min(n, 0) for n in orders]

    def fields_at(pts):
        r, theta = polar_coordinates(pts)
        h1 = hankel1_table(2, s.modes.top, s.k * r)[0]
        outgoing = np.conj(h1[np.abs(orders)]).T * scale
        outgoing *= np.exp(-1j * np.outer(theta, orders)) / np.sqrt(2.0 * np.pi)
        f = regular_waves_batch(s.modes, s.k, pts)
        f += outgoing @ delta
        return f

    return _stream(spec, regions, export, fields_at, s.k)


# ---------------------------------------------------------------------------
# localization metrics and classification
# ---------------------------------------------------------------------------
def localization_metrics(grams: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Energy fractions (boundary, corner, interior) of W's columns, (3, M).

    grams holds the live, boundary, corner and interior Gram matrices
    G_r = F_r^H F_r of the excitation fields; a region's energy is
    Re diag(W^H G_r W), the total the live one. An empty region gives exact
    zeros. A uniform field returns each region's area fraction (the
    baseline), so fraction/baseline measures concentration.
    """
    energy = np.sum(w.conj() * (grams @ w), axis=1).real
    total = energy[0]
    total[total == 0.0] = 1.0
    return energy[1:] / total


@dataclass(frozen=True)
class ClassificationThresholds:
    """Delay windows and concentration factors for the mode families.

    The factors multiply each region's uniform-field baseline. Calibrated on
    the strip at the default grid: ballistic beams concentrate boundary
    energy at 1.4-1.6x baseline while corner modes reach 3.9-6.5x on the
    corner metric, so the split points sit at 1.3x and 3.5x. tau_ballistic bounds the
    path shortening; scenario runners scale it to the scatterer size (twice
    the circumscribing radius).
    """

    tau0: float = 0.5           # |delay| border of the near-zero family
    tau_ballistic: float = 3.0  # most negative ballistic delay
    boundary_factor: float = 1.3
    corner_factor: float = 3.5
    interior_factor: float = 2.0


@dataclass
class ModeClassification:
    index: int
    label: str
    delay: float
    boundary_fraction: float
    corner_fraction: float
    interior_fraction: float
    warning: bool = False


def classify_modes(
    delays: np.ndarray,
    fractions: np.ndarray,
    baselines: tuple,
    thresholds: ClassificationThresholds = ClassificationThresholds(),
) -> list:
    """Sort delay eigenmodes into the phenomenological families.

    fractions is localization_metrics' (3, M) array and baselines the
    regions' (boundary, corner, interior) area fractions. Rules, in
    precedence order per delay regime; a mode fitting no rule gets the
    nearest label and a warning flag.
    """
    th = thresholds
    bb, cb, ib = baselines
    bf, cf, xf = fractions
    boundary_hot = bf > th.boundary_factor * bb
    corner_hot = cf > th.corner_factor * max(cb, 1e-12)
    interior_hot = (ib > 0) & (xf > th.interior_factor * ib)
    out = []
    for i, delay in enumerate(delays):
        warning = False
        if delay > th.tau0:
            if interior_hot[i]:
                label = "cavity"
            elif boundary_hot[i]:
                label = "surface-wave"
            else:
                label, warning = "surface-wave", True
        elif delay < -th.tau0:
            if corner_hot[i]:
                label = "corner"
            elif delay >= -th.tau_ballistic and boundary_hot[i]:
                label = "ballistic"
            else:
                # specular reflection is the nearest family for any negative
                # delay that is not corner-concentrated
                label, warning = "ballistic", True
        else:
            if boundary_hot[i]:
                # caustic-edge modes may also light the corner band; they
                # still belong to the specular family
                label, warning = "ballistic", bool(corner_hot[i])
            elif abs(delay) > 0.1 * th.tau0:
                # transitional: the delay says it touches the scatterer even
                # though the boundary band is not clearly hot
                label, warning = "ballistic", True
            else:
                label = "non-propagating"
        out.append(
            ModeClassification(
                index=i,
                label=label,
                delay=float(delay),
                boundary_fraction=float(bf[i]),
                corner_fraction=float(cf[i]),
                interior_fraction=float(xf[i]),
                warning=warning,
            )
        )
    return out


def group_counts(classification: list) -> dict:
    counts = {label: 0 for label in MODE_LABELS}
    for c in classification:
        counts[c.label] += 1
    return counts
