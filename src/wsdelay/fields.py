"""Total-field maps for delay eigenmodes and their phenomenological labels.

Total fields of the M standing excitations are cached on a Cartesian grid;
by linearity the field of a delay eigenmode w is F w, the w-weighted
combination of those columns. Localization metrics (energy fractions near
the boundary, at corners and inside a cavity void) quantify what the
eigenmode illuminates. Each region's energy is the quadratic form
w^H G_r w of the Gram matrix G_r = F_r^H F_r over the region's rows, so the
metrics need no point values of any mode; only the exported modes get
them. A threshold cascade sorts the modes into the observed
families: corner diffraction, beam-like ballistic reflection,
boundary-guided surface waves, non-propagating (caustic radius beyond the
scatterer) and trapped cavity modes.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bem import BoundarySolution, scattered_field
from .errors import ContractError, DomainError
from .geometry import BoundaryMesh, Geometry
from .mie import free_space_smatrix
from .modal import ModeSet, gamma_2d, polar_coordinates, regular_waves_batch
from .smatrix import SMatrix
from .specfun import cyl_hankel1_table

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
class FieldGrid:
    """Complex potential samples on a grid; masked points are inside the
    scatterer (or in the unreliable boundary band) and hold 0."""

    spec: GridSpec
    values: np.ndarray
    mask: np.ndarray


@dataclass
class ExcitationFieldCache:
    """Total fields of every port excitation at the grid points."""

    fields: np.ndarray          # (n_points, M) complex, 0 where masked
    mask: np.ndarray            # (n_points,) True where not evaluated
    k: float


def _grid_mask(geometry: Geometry, pts: np.ndarray, band: float) -> np.ndarray:
    inside = geometry.contains(pts)
    if band > 0.0:
        near = geometry.distance_to_boundary(pts) < band
        return inside | near
    return inside


def bem_excitation_fields(
    mesh: BoundaryMesh,
    solution: BoundarySolution,
    modes: ModeSet,
    spec: GridSpec,
) -> ExcitationFieldCache:
    """Cache total fields (incident + scattered) of all excitations.

    Points inside the scatterer or within one panel length of the boundary
    are masked: the plain quadrature of the representation integral is not
    trustworthy in that band.
    """
    if solution.density.ndim != 2 or solution.density.shape[1] != len(modes):
        raise ContractError("need one boundary solution per mode")
    pts = spec.points()
    band = float(np.max(mesh.weights))
    mask = _grid_mask(mesh.geometry, pts, band)
    live = ~mask
    k = solution.k
    fields = np.zeros((len(pts), len(modes)), dtype=complex)
    fields[live] = regular_waves_batch(modes, k, pts[live]) + scattered_field(
        mesh, solution, pts[live]
    )
    return ExcitationFieldCache(fields=fields, mask=mask, k=k)


def modal_excitation_fields(
    s: SMatrix, geometry: Geometry, spec: GridSpec
) -> ExcitationFieldCache:
    """Excitation fields from a centered-scatterer S matrix (2D).

    Valid wherever the outgoing partial-wave expansion converges, i.e.
    outside the circumscribing circle; the mask removes interior points, so
    this serves the circular-cylinder scenarios. Every port's outgoing wave
    conj(gamma_n) H^(2)_n(kr) e^{-jn theta}/sqrt(2 pi) comes from one H^(1)
    table, with H^(2) = conj H^(1) at real arguments and H_{-n} = (-1)^n H_n.
    """
    if s.modes.dim != 2:
        raise ContractError("modal field evaluation is 2D")
    pts = spec.points()
    lam = 2.0 * np.pi / s.k
    mask = _grid_mask(geometry, pts, 0.02 * lam)
    live = ~mask
    delta = s.matrix - free_space_smatrix(s.modes).matrix
    r, theta, _ = polar_coordinates(pts[live], 2)
    orders = np.array([m.n for m in s.modes.modes])
    h1 = cyl_hankel1_table(int(np.max(np.abs(orders))), s.k * r)[0]
    scale = [np.conj(gamma_2d(n, s.k)) * (-1.0) ** min(n, 0) for n in orders]
    outgoing = np.conj(h1[np.abs(orders)]).T * scale
    outgoing *= np.exp(-1j * np.outer(theta, orders)) / np.sqrt(2.0 * np.pi)
    fields = np.zeros((len(pts), len(s.modes)), dtype=complex)
    fields[live] = regular_waves_batch(s.modes, s.k, pts[live]) + outgoing @ delta
    return ExcitationFieldCache(fields=fields, mask=mask, k=s.k)


def mode_field_matrix(cache: ExcitationFieldCache, w: np.ndarray) -> np.ndarray:
    """Fields of the delay eigenmodes in W's columns: cache.fields @ W."""
    out = cache.fields @ w
    out[cache.mask, :] = 0.0
    return out


# ---------------------------------------------------------------------------
# localization metrics and classification
# ---------------------------------------------------------------------------
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
    geometry: Geometry, spec: GridSpec, k: float, mask: np.ndarray,
    interior_box: Optional[tuple] = None,
) -> RegionMasks:
    """Index masks for the metric regions, all within the live grid."""
    pts = spec.points()
    lam = 2.0 * np.pi / k
    live = ~mask
    dist = geometry.distance_to_boundary(pts)
    boundary = live & (dist <= lam)
    if geometry.corners:
        corners = np.asarray(geometry.corners, dtype=float)
        dcorner = np.min(
            np.hypot(
                pts[:, None, 0] - corners[None, :, 0],
                pts[:, None, 1] - corners[None, :, 1],
            ),
            axis=1,
        )
        corner = live & (dcorner <= lam)
    else:
        corner = np.zeros(len(pts), dtype=bool)
    if interior_box is not None:
        x0, x1, y0, y1 = interior_box
        interior = (
            live
            & (pts[:, 0] >= x0)
            & (pts[:, 0] <= x1)
            & (pts[:, 1] >= y0)
            & (pts[:, 1] <= y1)
        )
    else:
        interior = np.zeros(len(pts), dtype=bool)
    return RegionMasks(boundary=boundary, corner=corner, interior=interior, live=live)


def localization_metrics(
    cache: ExcitationFieldCache, w: np.ndarray, regions: RegionMasks
) -> np.ndarray:
    """Energy fractions (boundary, corner, interior) of W's columns, (3, M).

    A region's energy is Re diag(W^H G_r W), with G_r = F_r^H F_r over the
    region's rows of cache.fields; the total takes every row, since masked
    rows hold 0. An empty region gives exact zeros. A uniform field returns
    each region's area fraction (the baseline), so fraction/baseline
    measures concentration.
    """

    def energy(f):
        return np.sum(w.conj() * ((f.conj().T @ f) @ w), axis=0).real

    total = energy(cache.fields)
    total[total == 0.0] = 1.0
    rows = (regions.boundary, regions.corner, regions.interior)
    return np.array([energy(cache.fields[r]) for r in rows]) / total


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
