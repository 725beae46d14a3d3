"""Triangulations of a disk-shaped domain with a labeled embedded inclusion.

The mesher is a structured polar-grid triangulation: concentric rings with 6*i
nodes on ring i, seamed by an angular sweep.  Construction is fully
deterministic so that downstream outputs are reproducible byte for byte.  A
mesh also gives its nested dissection, the elimination tree over which the
solver condenses a system onto the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

BACKGROUND = 0
INCLUSION = 1

_UNIT_TOL = 1e-9
_INSIDE_TOL = 1e-12


class MeshError(ValueError):
    """Invalid geometry or a mesh construction failure."""


def _as_point(p) -> np.ndarray:
    a = np.asarray(p, dtype=float).reshape(2)
    return a


@dataclass(frozen=True)
class ShapeSpec:
    """Inclusion geometry: an ellipse or a convex polygon.

    An ellipse is the image c + R diag(a, b) u of the unit disk, where c is
    ``center``, (a, b) are ``semi_axes`` and R turns by ``rotation`` (the
    angle of the first semi-axis, in radians).  A disk is the ellipse with
    a = b = r and no rotation; its ``kind`` stays "disk" so that ``max_norm``
    can use the closed form |c| + r.  Polygons must be convex and
    counterclockwise: every turn is to the left and the turns add up to one
    full turn.  All lengths are in domain units.
    """

    kind: str
    center: tuple[float, float] = (0.0, 0.0)
    semi_axes: tuple[float, float] = (0.0, 0.0)
    rotation: float = 0.0
    vertices: Optional[np.ndarray] = None

    @staticmethod
    def disk(center, radius: float) -> "ShapeSpec":
        if radius <= 0:
            raise MeshError("disk radius must be positive")
        c = _as_point(center)
        return ShapeSpec(kind="disk", center=(c[0], c[1]), semi_axes=(radius, radius))

    @staticmethod
    def ellipse(center, semi_axes, rotation: float = 0.0) -> "ShapeSpec":
        a, b = float(semi_axes[0]), float(semi_axes[1])
        if a <= 0 or b <= 0:
            raise MeshError("ellipse semi-axes must be positive")
        c = _as_point(center)
        return ShapeSpec(kind="ellipse", center=(c[0], c[1]), semi_axes=(a, b),
                         rotation=float(rotation))

    @staticmethod
    def polygon(vertices) -> "ShapeSpec":
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or len(v) < 3:
            raise MeshError("polygon needs at least 3 vertices of shape (n, 2)")
        e = np.roll(v, -1, axis=0) - v
        prev = np.roll(e, 1, axis=0)
        cross = prev[:, 0] * e[:, 1] - prev[:, 1] * e[:, 0]
        turning = np.arctan2(cross, np.sum(prev * e, axis=1)).sum()
        if np.any(cross <= 0) or abs(turning - 2 * math.pi) > 1e-9:
            raise MeshError("polygon must be convex and counterclockwise "
                            "(every turn to the left, one full turn in total)")
        v = v.copy()
        v.setflags(write=False)
        c = v.mean(axis=0)
        return ShapeSpec(kind="polygon", center=(c[0], c[1]), vertices=v)

    # -- geometry queries ---------------------------------------------------

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean membership for an (n, 2) array of points."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "polygon":
            v = self.vertices
            inside = np.ones(len(p), dtype=bool)
            for i in range(len(v)):
                e = v[(i + 1) % len(v)] - v[i]
                w = p - v[i]
                inside &= e[0] * w[:, 1] - e[1] * w[:, 0] >= 0.0
            return inside
        ct, st = math.cos(self.rotation), math.sin(self.rotation)
        dx, dy = p[:, 0] - self.center[0], p[:, 1] - self.center[1]
        a, b = self.semi_axes
        # R^T (p - c), scaled onto the unit disk
        return ((ct * dx + st * dy) / a) ** 2 + ((-st * dx + ct * dy) / b) ** 2 <= 1.0

    def support(self, theta: np.ndarray) -> float:
        """Support value sup_{x in shape} x . theta for a unit direction."""
        t = _as_point(theta)
        if abs(np.hypot(t[0], t[1]) - 1.0) > _UNIT_TOL:
            raise MeshError("direction must be a unit vector")
        if self.kind == "polygon":
            return float(np.max(self.vertices @ t))
        ct, st = math.cos(self.rotation), math.sin(self.rotation)
        a, b = self.semi_axes
        # c . theta + |diag(a, b) R^T theta|
        return float(np.asarray(self.center) @ t
                     + math.hypot(a * (ct * t[0] + st * t[1]), b * (-st * t[0] + ct * t[1])))

    def extreme_directions(self, point):
        """The two directions from ``point`` that bound the shape as seen from it.

        Every ray from the point into the shape lies in the sector that turns
        counterclockwise from the first direction to the second, at most pi
        wide (pi exactly at a smooth boundary point).  None when the point lies
        strictly inside, farther than 1e-12 (relative, for ellipses) from the
        boundary.  Directions are not normalised; plain floats keep the
        per-call cost small.
        """
        px, py = float(point[0]), float(point[1])
        if self.kind == "polygon":
            verts = self.vertices.tolist()
            if all((x1 - x0) * (py - y0) - (y1 - y0) * (px - x0)
                   > _INSIDE_TOL * math.hypot(x1 - x0, y1 - y0)
                   for (x0, y0), (x1, y1) in zip(verts, verts[1:] + verts[:1])):
                return None
            # angles about the direction g to the vertex mean, which lies inside;
            # a vertex at the point itself bounds nothing
            gx, gy = float(self.center[0]) - px, float(self.center[1]) - py
            dirs = [(x - px, y - py) for x, y in verts
                    if math.hypot(x - px, y - py) > _INSIDE_TOL]
            angles = [math.atan2(gx * dy - gy * dx, gx * dx + gy * dy) for dx, dy in dirs]
            return (dirs[angles.index(min(angles))], dirs[angles.index(max(angles))])
        a, b = self.semi_axes
        ct, st = math.cos(self.rotation), math.sin(self.rotation)
        dx, dy = px - float(self.center[0]), py - float(self.center[1])
        # w = T(point - center), where T maps the shape onto the unit disk
        wx, wy = (ct * dx + st * dy) / a, (-st * dx + ct * dy) / b
        rho = math.hypot(wx, wy)
        if rho < 1.0 - _INSIDE_TOL:
            return None
        # the tangents from w to the unit disk run along -sqrt(rho^2-1) u +- u_perp
        # (u = w/rho); at rho = 1 they are the boundary tangent itself
        s = math.sqrt(max((rho - 1.0) * (rho + 1.0), 0.0))
        ux, uy = wx / rho, wy / rho
        out = []
        for sign in (1.0, -1.0):
            lx, ly = a * (-s * ux - sign * uy), b * (-s * uy + sign * ux)
            out.append((ct * lx - st * ly, st * lx + ct * ly))  # T^-1 = R diag(a, b)
        return tuple(out)

    def boundary_points(self, n: int = 256) -> np.ndarray:
        if self.kind == "polygon":
            v = self.vertices
            per_edge = max(2, n // len(v))
            pts = []
            for i in range(len(v)):
                s = np.linspace(0.0, 1.0, per_edge, endpoint=False)[:, None]
                pts.append(v[i] + s * (v[(i + 1) % len(v)] - v[i]))
            return np.vstack(pts)
        ang = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
        a, b = self.semi_axes
        q = np.stack([a * np.cos(ang), b * np.sin(ang)], axis=1)
        ct, st = math.cos(self.rotation), math.sin(self.rotation)
        return np.asarray(self.center) + q @ np.array([[ct, st], [-st, ct]])

    def max_norm(self) -> float:
        """max |x| over the shape (distance of the farthest point from origin)."""
        if self.kind == "polygon":
            return float(np.max(np.hypot(self.vertices[:, 0], self.vertices[:, 1])))
        if self.kind == "disk":
            # closed form: the sample below falls short by up to 2.4e-6 |c| off centre
            return float(np.hypot(*self.center) + self.semi_axes[0])
        # max |x| = max over directions of the support value
        ang = np.linspace(0.0, 2 * math.pi, 1440, endpoint=False)
        return max(self.support(np.array([math.cos(a), math.sin(a)])) for a in ang)

    def area(self) -> float:
        if self.kind == "polygon":
            return polygon_area(self.vertices)
        return math.pi * self.semi_axes[0] * self.semi_axes[1]


def polygon_area(v: np.ndarray) -> float:
    """Signed shoelace area of a closed polygon, positive when counterclockwise."""
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


# ---------------------------------------------------------------------------
# Mesh container


@dataclass(frozen=True)
class Mesh:
    """Conforming triangulation of a disk with per-triangle region labels.

    ``boundary_loop`` lists the boundary node indices in counterclockwise
    order; consecutive pairs are the boundary edges.  Arrays are read-only:
    a constructed mesh is immutable and safe to share across threads.
    """

    vertices: np.ndarray          # (nv, 2) float
    triangles: np.ndarray         # (nt, 3) int, CCW
    labels: np.ndarray            # (nt,) int, BACKGROUND / INCLUSION
    boundary_loop: np.ndarray     # (nb,) int, ordered CCW
    h: float
    domain_radius: float
    inclusion: Optional[ShapeSpec] = None

    def __post_init__(self):
        for arr in (self.vertices, self.triangles, self.labels, self.boundary_loop):
            arr.setflags(write=False)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def boundary_edges(self) -> np.ndarray:
        """(nb, 2) index pairs of consecutive boundary nodes."""
        loop = self.boundary_loop
        return np.stack([loop, np.roll(loop, -1)], axis=1)

    @property
    def boundary_normals(self) -> np.ndarray:
        """Outward unit normal per boundary edge."""
        e = self.boundary_edges
        d = self.vertices[e[:, 1]] - self.vertices[e[:, 0]]
        n = np.stack([d[:, 1], -d[:, 0]], axis=1)
        return n / np.hypot(n[:, 0], n[:, 1])[:, None]

    @property
    def boundary_points(self) -> np.ndarray:
        return self.vertices[self.boundary_loop]

    def triangle_areas(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                      - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))

    def centroids(self) -> np.ndarray:
        return self.vertices[self.triangles].mean(axis=1)

    def boundary_polygon_area(self) -> float:
        return polygon_area(self.vertices[self.boundary_loop])

    @cached_property
    def dissection(self) -> tuple[Front, ...]:
        """The nested dissection of the mesh, formed on first use and kept
        (see ``nested_dissection``)."""
        return nested_dissection(self)

    def validate(self) -> None:
        """Check the structural invariants; raises MeshError on violation."""
        areas = self.triangle_areas()
        if np.any(areas <= 0):
            raise MeshError("triangle with non-positive area")
        total = float(areas.sum())
        poly = self.boundary_polygon_area()
        if abs(total - poly) > 1e-10 * max(poly, 1.0):
            raise MeshError("triangle areas do not tile the boundary polygon")
        loop = self.boundary_loop
        if len(np.unique(loop)) != len(loop):
            raise MeshError("boundary loop visits a node twice")
        if np.any((self.labels != BACKGROUND) & (self.labels != INCLUSION)):
            raise MeshError("labels must be BACKGROUND or INCLUSION")


# ---------------------------------------------------------------------------
# Nested dissection


# the most triangles a leaf of the dissection tree holds
_LEAF_TRIANGLES = 128


@dataclass(frozen=True)
class Front:
    """One node of a nested dissection: the vertices it eliminates, then the
    vertices it keeps, its front in that order.  A leaf lists its triangles
    and, row by row, the front positions of their vertices; an inner node
    lists its two children, each as its index in the dissection and the
    front positions of the child's kept vertices."""

    eliminated: np.ndarray                   # ascending
    kept: np.ndarray                         # ascending; the boundary loop at the root
    triangles: np.ndarray                    # (k,) triangle indices, empty at an inner node
    local: np.ndarray                        # (k, 3) front positions of their vertices
    children: tuple[tuple[int, np.ndarray], ...]

    def __post_init__(self):
        for arr in (self.eliminated, self.kept, self.triangles, self.local,
                    *(pos for _, pos in self.children)):
            arr.setflags(write=False)


def nested_dissection(mesh: Mesh) -> tuple[Front, ...]:
    """The fronts of a nested dissection of the mesh (George, SIAM J. Numer.
    Anal. 10, 1973), children before parents, the root last.

    The triangle centroids are split at the median along the wider extent of
    each node, into a complete binary tree of depth ceil(log2(nt / 128)), so
    that a leaf holds at most 128 triangles.  Each interior vertex is
    eliminated at the lowest node that holds all its triangles: with lo and
    hi the smallest and largest leaf index among them, the node
    bit_length(lo ^ hi) levels above the leaves, at index lo >> level.
    Boundary vertices are never eliminated, so the root keeps exactly the
    boundary loop.  Depends on the mesh alone."""
    tri, n = mesh.triangles, mesh.n_vertices
    depth = max(0, math.ceil(math.log2(len(tri) / _LEAF_TRIANGLES)))
    # each node's triangles stay contiguous in `order`, between consecutive
    # cuts; one stable sort a level orders each node along its wider extent,
    # keyed by node and by the centroid's rank on that axis
    cents = mesh.centroids()
    ranks = np.stack([np.unique(x, return_inverse=True)[1] for x in cents.T], axis=1)
    order, cuts = np.arange(len(tri)), np.array([0, len(tri)])
    for _ in range(depth):
        c = cents[order]
        extent = np.maximum.reduceat(c, cuts[:-1]) - np.minimum.reduceat(c, cuts[:-1])
        node = np.repeat(np.arange(len(cuts) - 1), np.diff(cuts))
        axis = (extent[:, 1] > extent[:, 0]).astype(np.int64)[node]
        key = node * len(tri) + ranks[order, axis]
        order = order[np.argsort(key, kind="stable")]
        halves = np.zeros(2 * len(cuts) - 1, dtype=np.int64)
        halves[1::2], halves[2::2] = (cuts[:-1] + cuts[1:]) // 2, cuts[1:]
        cuts = halves
    leaf = np.empty(len(tri), dtype=np.int64)
    leaf[order] = np.repeat(np.arange(len(cuts) - 1), np.diff(cuts))

    # the node that eliminates each vertex, as level * 2^depth + index
    lo, hi = np.full(n, len(cuts) - 1), np.zeros(n, dtype=np.int64)
    np.minimum.at(lo, tri, leaf[:, None])
    np.maximum.at(hi, tri, leaf[:, None])
    up = np.frexp(lo ^ hi)[1]                # levels above the leaves: bit_length(lo ^ hi)
    owner = (up << depth) + (lo >> up)
    owner[mesh.boundary_loop] = -1

    # level by level, the (node, vertex) pairs of its fronts as node * n + vertex:
    # a leaf holds its triangles' vertices, an inner node its children's kept ones
    keys = _unique(leaf[:, None] * n + tri)
    levels = []     # per level: its front vertices, their bounds and splits, and `above`
    for level in range(depth + 1):
        node, v = np.divmod(keys, n)
        mine = owner[v] == (level << depth) + node
        # each front lists its eliminated vertices, then its kept ones, ascending
        verts = v[np.argsort(2 * node + ~mine, kind="stable")]
        bounds = np.searchsorted(node, np.arange(2 ** (depth - level) + 1))
        split = bounds[:-1] + np.bincount(node[mine], minlength=len(bounds) - 1)
        if level == depth and np.array_equal(verts[split[0]:], np.sort(mesh.boundary_loop)):
            verts[split[0]:] = mesh.boundary_loop
        where = np.empty(len(keys), dtype=np.int64)      # each pair's front position
        where[np.searchsorted(keys, node * n + verts)] = np.arange(len(keys)) - bounds[node]
        if level:
            above[kept] = where[np.searchsorted(keys, parent)]
        else:
            local = where[np.searchsorted(keys, leaf[:, None] * n + tri)]
        kept = np.arange(len(verts)) >= split[node]
        parent = (node[kept] >> 1) * n + verts[kept]
        keys = _unique(parent)
        # the front positions of the kept vertices one level up, set by the next pass
        above = np.zeros(len(verts), dtype=np.int64)
        levels.append((verts, bounds, split, above))

    fronts: list[Front] = []

    def subtree(level: int, i: int) -> int:
        """Append the fronts of the subtree at (level, i), children first;
        the index of its root front."""
        verts, bounds, split, _ = levels[level]
        if level:
            _, below, below_split, above = levels[level - 1]
            children = tuple((subtree(level - 1, j), above[below_split[j]:below[j + 1]])
                             for j in (2 * i, 2 * i + 1))
            tris = np.zeros(0, dtype=np.int64)
        else:
            children, tris = (), order[cuts[i]:cuts[i + 1]]
        fronts.append(Front(eliminated=verts[bounds[i]:split[i]],
                            kept=verts[split[i]:bounds[i + 1]], triangles=tris,
                            local=local[tris], children=children))
        return len(fronts) - 1

    subtree(depth, 0)
    return tuple(fronts)


def _unique(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of an integer array, by one sort; numpy 2's
    np.unique, which hashes them first, took five times as long on the
    leaves' keys of a 58,806-triangle mesh."""
    a = np.sort(a, axis=None)
    return a[np.concatenate([[True], a[1:] != a[:-1]])]


# ---------------------------------------------------------------------------
# Structured polar mesher


def build_disk_mesh(domain_radius: float, target_h: float,
                    inclusion: Optional[ShapeSpec] = None) -> Mesh:
    """Triangulate the disk of the given radius with element size ~ target_h.

    Triangles are labeled by centroid membership in the inclusion.  The ring
    count is forced odd so that concentric interfaces cut generically through
    elements instead of aligning with a node ring.
    """
    if not (0 < target_h < domain_radius / 4):
        raise MeshError(f"mesh size {target_h:g} must lie in (0, radius/4) = "
                        f"(0, {domain_radius / 4:g})")
    if inclusion is not None:
        gap = domain_radius - inclusion.max_norm()
        if gap < 2 * target_h:
            raise MeshError(
                f"inclusion too close to the outer boundary (gap {gap:.4g} < {2 * target_h:.4g})")

    n_rings = max(4, int(round(domain_radius / target_h)))
    if n_rings % 2 == 0:
        n_rings += 1

    verts = [np.zeros((1, 2))]
    rings = [np.array([0], dtype=np.int64)]
    offset = 1
    for i in range(1, n_rings + 1):
        m = 6 * i
        ang = 2 * math.pi * np.arange(m) / m
        r = domain_radius * i / n_rings
        verts.append(np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1))
        rings.append(offset + np.arange(m, dtype=np.int64))
        offset += m
    vertices = np.vstack(verts)

    fan = np.stack([np.zeros(6, dtype=np.int64), rings[1], np.roll(rings[1], -1)], axis=1)
    triangles = np.concatenate([fan] + [_seam_rings(rings[i], rings[i + 1])
                                        for i in range(1, n_rings)])
    loop = rings[n_rings]

    cents = vertices[triangles].mean(axis=1)
    if inclusion is not None:
        labels = np.where(inclusion.contains(cents), INCLUSION, BACKGROUND)
        if int((labels == INCLUSION).sum()) < 8:
            raise MeshError("mesh size too coarse: fewer than 8 triangles inside the inclusion")
    else:
        labels = np.full(len(triangles), BACKGROUND, dtype=np.int64)

    mesh = Mesh(vertices=vertices, triangles=triangles,
                labels=np.asarray(labels, dtype=np.int64),
                boundary_loop=np.asarray(loop, dtype=np.int64),
                h=float(target_h), domain_radius=float(domain_radius),
                inclusion=inclusion)
    mesh.validate()
    return mesh


def _seam_rings(prev: np.ndarray, nxt: np.ndarray) -> np.ndarray:
    """Triangulate the annulus between two rings by an angular sweep: a stable
    merge of the steps to each ring's next node, ordered by the fraction of the
    turn they reach, a step on the outer ring first on ties.  A step on the
    inner ring at its node i, with j outer steps before it, gives the triangle
    (prev[i], nxt[j], prev[i + 1]), one on the outer ring (prev[i], nxt[j],
    nxt[j + 1]), indices modulo the ring sizes."""
    np_, nn = len(prev), len(nxt)
    frac = np.concatenate([np.arange(1, nn + 1) / nn, np.arange(1, np_ + 1) / np_])
    kind = np.repeat([0, 1], [nn, np_])
    inner = kind[np.lexsort((kind, frac))]
    i = np.cumsum(inner) - inner
    j = np.cumsum(1 - inner) - (1 - inner)
    third = np.where(inner == 1, prev[(i + 1) % np_], nxt[(j + 1) % nn])
    return np.stack([prev[i % np_], nxt[j % nn], third], axis=1)


# ---------------------------------------------------------------------------
# Plain-text exchange formats


def provenance_header(provenance: Optional[dict]) -> str:
    """The '# key: value' lines that open every text output file."""
    return "".join(f"# {key}: {val}\n" for key, val in (provenance or {}).items())


def write_mesh(mesh: Mesh, path, provenance: Optional[dict] = None) -> None:
    """Header (counts, h, radius), vertex lines, triangle+label lines, boundary edges."""
    normals = mesh.boundary_normals
    edges = mesh.boundary_edges
    with open(path, "w") as f:
        f.write("# enclosure2d mesh v1\n" + provenance_header(provenance))
        f.write(f"{mesh.n_vertices} {mesh.n_triangles} {len(edges)} "
                f"{mesh.h:.17g} {mesh.domain_radius:.17g}\n")
        # one % per block on the Python scalars of a flat tolist(), which
        # format as numpy's own to the same text, two to three times faster
        # than one f-string per line
        f.write("%.17g %.17g\n" * mesh.n_vertices % tuple(mesh.vertices.ravel().tolist()))
        f.write("%d %d %d %d\n" * mesh.n_triangles
                % tuple(np.column_stack([mesh.triangles, mesh.labels]).ravel().tolist()))
        # the node indices, stacked as floats with the normals, are exact
        f.write("%d %d %.17g %.17g\n" * len(edges)
                % tuple(np.column_stack([edges, normals]).ravel().tolist()))
