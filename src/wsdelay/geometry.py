"""Scatterer boundaries and their graded global parametrizations.

A Geometry is a closed, counterclockwise loop of segments (straight lines
between corner vertices, or a full circle). Meshing maps the loop onto a
single 2pi-periodic parameter with globally uniform node spacing, assigning
each segment an integer node budget. Straight segments are reparametrized
with a Kress-style sigmoidal grading whose derivatives vanish at the ends,
which clusters nodes polynomially toward the corners and restores high-order
quadrature accuracy there; nodes sit half a step off the segment ends so no
node ever lands on a corner. Circles keep their native uniform spacing.
"""

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import DomainError

STRIP_HALF_LENGTH = 25.0
STRIP_Y_BOTTOM = -0.25
STRIP_Y_TOP = 0.75
CAVITY_OUTER = 15.0   # outer square half-side
CAVITY_INNER = 11.0   # inner void half-side (wall thickness 4)
GRADING_EXPONENT = 6  # Kress grading of straight segments toward their ends
NODES_PER_WAVELENGTH = 12.0  # default mesh density at the coarsest spacing


@dataclass(frozen=True)
class Line:
    start: tuple
    end: tuple

    @property
    def length(self) -> float:
        return float(np.hypot(self.end[0] - self.start[0], self.end[1] - self.start[1]))


@dataclass(frozen=True)
class Circle:
    radius: float   # centered at the origin

    @property
    def length(self) -> float:
        return 2.0 * np.pi * self.radius


@dataclass
class Geometry:
    """Closed scatterer boundary with outward normals to the solid's exterior."""

    name: str
    segments: tuple
    corners: tuple = field(default_factory=tuple)
    interior: Optional[tuple] = None   # a cavity's void (x0, x1, y0, y1)

    @property
    def circumradius(self) -> float:
        """Largest distance from the origin to the boundary."""
        if self.corners:
            return max(np.hypot(*v) for v in self.corners)
        return self.segments[0].radius

    def contains(self, points) -> np.ndarray:
        """True for points inside the solid region (ray casting for polygons)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if len(self.segments) == 1 and isinstance(self.segments[0], Circle):
            return np.hypot(pts[:, 0], pts[:, 1]) < self.segments[0].radius
        verts = np.array([s.start for s in self.segments], dtype=float)
        x, y = pts[:, 0], pts[:, 1]
        inside = np.zeros(len(pts), dtype=bool)
        n = len(verts)
        for i in range(n):
            x1, y1 = verts[i]
            x2, y2 = verts[(i + 1) % n]
            crosses = (y1 > y) != (y2 > y)
            with np.errstate(divide="ignore", invalid="ignore"):
                xint = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            inside ^= crosses & (x < np.where(crosses, xint, np.inf))
        return inside

    def distance_to_boundary(self, points) -> np.ndarray:
        """Unsigned distance from each point to the boundary curve."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if len(self.segments) == 1 and isinstance(self.segments[0], Circle):
            return np.abs(np.hypot(pts[:, 0], pts[:, 1]) - self.segments[0].radius)
        best = np.full(len(pts), np.inf)
        for seg in self.segments:
            a = np.asarray(seg.start, dtype=float)
            b = np.asarray(seg.end, dtype=float)
            ab = b - a
            denom = float(ab @ ab)
            t = np.clip(((pts - a) @ ab) / denom, 0.0, 1.0)
            proj = a + t[:, None] * ab
            d = np.hypot(pts[:, 0] - proj[:, 0], pts[:, 1] - proj[:, 1])
            best = np.minimum(best, d)
        return best


def _polygon(name, vertices):
    verts = [tuple(map(float, v)) for v in vertices]
    n = len(verts)
    segs = []
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        seg = Line(a, b)
        if seg.length < 1e-9:
            raise DomainError(f"degenerate segment at vertex {i} of {name}")
        segs.append(seg)
    area = 0.0
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        area += x1 * y2 - x2 * y1
    _reject_self_intersection(verts)
    if area <= 0:
        raise DomainError("polygon must be counterclockwise (positive area)")
    return Geometry(name=name, segments=tuple(segs), corners=tuple(verts))


def _reject_self_intersection(verts):
    n = len(verts)

    def crosses(p1, p2, p3, p4):
        d = lambda a, b, c: (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return (
            d(p1, p2, p3) * d(p1, p2, p4) < 0 and d(p3, p4, p1) * d(p3, p4, p2) < 0
        )

    for i in range(n):
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue
            if crosses(verts[i], verts[(i + 1) % n], verts[j], verts[(j + 1) % n]):
                raise DomainError("boundary is self-intersecting")


def make_strip() -> Geometry:
    """50 m x 1 m rectangle centered at (0, 0.25 m)."""
    return _polygon(
        "strip",
        [
            (-STRIP_HALF_LENGTH, STRIP_Y_BOTTOM),
            (STRIP_HALF_LENGTH, STRIP_Y_BOTTOM),
            (STRIP_HALF_LENGTH, STRIP_Y_TOP),
            (-STRIP_HALF_LENGTH, STRIP_Y_TOP),
        ],
    )


def make_cavity(gap_width: float) -> Geometry:
    """Thick square shell (outer 30 x 30, inner 22 x 22) with a bottom gap.

    The gap of the given width is centered on x = 0 in the bottom wall; its
    side walls connect the outer and inner boundaries.
    """
    if not 0.0 < gap_width < 2.0 * CAVITY_INNER:
        raise DomainError(f"cavity gap width must lie in (0, {2*CAVITY_INNER})")
    g = gap_width / 2.0
    o, i = CAVITY_OUTER, CAVITY_INNER
    shell = _polygon(
        f"cavity(w={gap_width:g})",
        [
            (g, -o),
            (o, -o),
            (o, o),
            (-o, o),
            (-o, -o),
            (-g, -o),
            (-g, -i),
            (-i, -i),
            (-i, i),
            (i, i),
            (i, -i),
            (g, -i),
        ],
    )
    return replace(shell, interior=(-i, i, -i, i))


def make_circle(radius: float) -> Geometry:
    if radius <= 0:
        raise DomainError("radius must be positive")
    return Geometry(name=f"circle(a={radius:g})", segments=(Circle(float(radius)),))


def make_polyline(vertices) -> Geometry:
    if len(vertices) < 3:
        raise DomainError("custom boundary needs at least 3 vertices")
    return _polygon("custom", vertices)



# ---------------------------------------------------------------------------
# Kress grading
# ---------------------------------------------------------------------------
def _kress_v(s, p):
    """Kress's cubic v(s) and its first two s-derivatives."""
    return (
        (1.0 / p - 0.5) * ((np.pi - s) / np.pi) ** 3 + (s - np.pi) / (np.pi * p) + 0.5,
        3.0 * (0.5 - 1.0 / p) * (np.pi - s) ** 2 / np.pi**3 + 1.0 / (np.pi * p),
        -6.0 * (0.5 - 1.0 / p) * (np.pi - s) / np.pi**3,
    )


def kress_w(xi, p):
    """Graded map [0,1] -> [0,1] with p-1 vanishing derivatives at the ends.

    Returns (w, w', w'') with derivatives taken w.r.t. xi.
    """
    s = 2.0 * np.pi * np.asarray(xi, dtype=float)
    v, v1, v2 = _kress_v(s, p)
    u = np.maximum(v, 0.0)
    vm, vm1, vm2 = _kress_v(2 * np.pi - s, p)
    um = np.maximum(vm, 0.0)
    a = u**p
    b = um**p
    a1 = p * u ** (p - 1) * v1
    b1 = -p * um ** (p - 1) * vm1
    a2 = p * (p - 1) * u ** (p - 2) * v1**2 + p * u ** (p - 1) * v2
    b2 = p * (p - 1) * um ** (p - 2) * vm1**2 + p * um ** (p - 1) * vm2
    denom = a + b
    w = a / denom
    w1 = (a1 * b - a * b1) / denom**2
    w2 = ((a2 * b - a * b2) * denom - 2.0 * (a1 * b - a * b1) * (a1 + b1)) / denom**3
    two_pi = 2.0 * np.pi
    return w, w1 * two_pi, w2 * two_pi**2


@dataclass
class BoundaryMesh:
    """Nystrom node set on the uniform global parameter grid."""

    geometry: Geometry
    t: np.ndarray            # parameter values, uniform spacing h
    h: float
    nodes: np.ndarray        # (N, 2)
    xp: np.ndarray           # dx/dt, (N, 2)
    xpp: np.ndarray          # d2x/dt2, (N, 2)
    segment_id: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.t)

    @property
    def speed(self) -> np.ndarray:
        return np.hypot(self.xp[:, 0], self.xp[:, 1])

    @property
    def normals(self) -> np.ndarray:
        sp = self.speed
        return np.column_stack([self.xp[:, 1] / sp, -self.xp[:, 0] / sp])

    @property
    def weights(self) -> np.ndarray:
        """Plain quadrature weights h * |x'| for smooth integrands."""
        return self.h * self.speed

    def embed(self, tvals):
        """Positions and velocities of the parametrization at arbitrary t."""
        tvals = np.asarray(tvals, dtype=float) % (2.0 * np.pi)
        counts = np.bincount(self.segment_id)
        starts = np.concatenate([[0.0], np.cumsum(counts)]) * self.h
        pos = np.zeros((len(tvals), 2))
        vel = np.zeros((len(tvals), 2))
        seg_idx = np.clip(
            np.searchsorted(starts, tvals, side="right") - 1, 0, len(counts) - 1
        )
        for si, seg in enumerate(self.geometry.segments):
            mask = seg_idx == si
            if not np.any(mask):
                continue
            span = counts[si] * self.h
            xi = (tvals[mask] - starts[si]) / span
            pos[mask], vel[mask], _ = _segment_map(seg, xi, 1.0 / span)
        return pos, vel


def _segment_map(seg, xi, dxi_dt):
    """Position, velocity and acceleration on one segment at local xi in
    [0, 1], for a global parameter advancing xi at the rate dxi_dt; lines
    take the Kress grading of GRADING_EXPONENT, circles their uniform angle."""
    if isinstance(seg, Circle):
        phi = 2.0 * np.pi * xi
        r, dphi = seg.radius, 2.0 * np.pi * dxi_dt
        pos = r * np.column_stack([np.cos(phi), np.sin(phi)])
        vel = r * np.column_stack([-np.sin(phi), np.cos(phi)]) * dphi
        acc = -r * np.column_stack([np.cos(phi), np.sin(phi)]) * dphi**2
        return pos, vel, acc
    w, w1, w2 = kress_w(xi, GRADING_EXPONENT)
    a = np.asarray(seg.start)
    d = np.asarray(seg.end) - a
    return a + np.outer(w, d), np.outer(w1 * dxi_dt, d), np.outer(w2 * dxi_dt**2, d)


def mesh_geometry(
    geometry: Geometry,
    k: float,
    nodes_per_wavelength: float = NODES_PER_WAVELENGTH,
) -> BoundaryMesh:
    """Graded composite mesh with globally uniform parameter spacing.

    Node budgets per segment keep the coarsest (mid-segment) spacing at or
    below lambda/nodes_per_wavelength; the grading roughly doubles the
    mid-segment stretch, which the budget accounts for.
    """
    if not k > 0:
        raise DomainError("wavenumber must be positive")
    if not nodes_per_wavelength >= 6:
        raise DomainError("need at least 6 nodes per wavelength")
    wavelength = 2.0 * np.pi / k
    counts = []
    for seg in geometry.segments:
        if seg.length < 1e-9:
            raise DomainError("degenerate segment")
        if isinstance(seg, Circle):
            n = max(32, int(np.ceil(nodes_per_wavelength * seg.length / wavelength)))
        else:
            # the factor 2 compensates the mid-segment stretch of the grading;
            # the floor leaves the graded ends room to resolve the corner layer
            n = max(32, int(np.ceil(2.0 * nodes_per_wavelength * seg.length / wavelength)))
        counts.append(n)
    if sum(counts) % 2 == 1:
        counts[int(np.argmax(counts))] += 1
    total = sum(counts)
    h = 2.0 * np.pi / total

    t_all, nodes, xp, xpp, seg_id = [], [], [], [], []
    offset = 0
    for si, (seg, n) in enumerate(zip(geometry.segments, counts)):
        tj = (offset + np.arange(n) + 0.5) * h
        xi = (np.arange(n) + 0.5) / n
        pos, vel, acc = _segment_map(seg, xi, 1.0 / (n * h))
        t_all.append(tj)
        nodes.append(pos)
        xp.append(vel)
        xpp.append(acc)
        seg_id.append(np.full(n, si))
        offset += n

    return BoundaryMesh(
        geometry=geometry,
        t=np.concatenate(t_all),
        h=h,
        nodes=np.vstack(nodes),
        xp=np.vstack(xp),
        xpp=np.vstack(xpp),
        segment_id=np.concatenate(seg_id),
    )
