"""Canonical hypersurfaces used as ground truth.

Geodesic spheres, tubes around totally geodesic cores, horospheres,
bisectors, Clifford cones and the Lohnherr hypersurface, each as a
closed-form (or constructor-built) patch with its expected classification
fragment attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels as kernels
from .actions import load_action
from .ambient import GeometryError, SpaceForm, cross3
from .constructor import austere_search, build_hypersurface
from .hypersurface import HypersurfacePatch, shape_data

CONE_RADIAL_MARGIN = 1e-2   # vertex region excluded from cone boxes


@dataclass(eq=False)
class CatalogEntry:
    name: str
    space: SpaceForm
    parameters: dict
    patch: HypersurfacePatch
    expected: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)


def _orient_to_trace(patch: HypersurfacePatch, probe, expected_trace):
    """Fix the orientation sign so the measured trace matches the target."""
    sd = shape_data(patch, np.asarray(probe)[None])
    tr = float(sd.eigvals[0].sum())
    if abs(tr - expected_trace) > abs(-tr - expected_trace):
        patch.orientation = -patch.orientation
    return patch


def sphere_spectrum(c: float, r: float):
    """Principal curvatures of a geodesic sphere, inward normal."""
    if c > 0:
        s = np.sqrt(c)
        return (s / np.tan(s * r), (s / 2) / np.tan(s * r / 2), (s / 2) / np.tan(s * r / 2))
    s = np.sqrt(-c)
    return (s / np.tanh(s * r), (s / 2) / np.tanh(s * r / 2), (s / 2) / np.tanh(s * r / 2))


def geodesic_sphere(space: SpaceForm, r: float) -> CatalogEntry:
    """Distance sphere of radius r about [1:0:0]; Hopf with constant principal curvatures."""
    sp = space
    if sp.c > 0 and not 0 < r < np.pi / np.sqrt(sp.c):
        raise GeometryError(f"radius must lie in (0, pi/sqrt(c)) = (0, {np.pi / np.sqrt(sp.c):.6g})")
    if r <= 0:
        raise GeometryError("radius must be positive")
    center = sp.normalize_rep(np.eye(3, dtype=complex)[0])
    f, g = np.eye(3, dtype=complex)[1:]   # unitary basis of the horizontal space at the centre

    def chart(params):
        t, s1, s2 = params[:, 0], params[:, 1], params[:, 2]
        n = (np.cos(t)[:, None] * f
             + np.sin(t)[:, None] * (np.cos(s1)[:, None] * (1j * f)
             + np.sin(s1)[:, None] * (np.cos(s2)[:, None] * g
                                      + np.sin(s2)[:, None] * (1j * g))))
        return sp.exp(center[None, :], n, r)

    patch = HypersurfacePatch(sp, chart, ((0.35, 1.15), (0.35, 1.15), (0.35, 1.15)))
    spec = sphere_spectrum(sp.c, r)
    _orient_to_trace(patch, [0.7, 0.7, 0.7], sum(spec))
    return CatalogEntry(
        name="geodesic-sphere", space=sp,
        parameters={"r": r},
        patch=patch,
        expected={"hopf": True, "cmc": True, "spectrum": sorted(spec, reverse=True),
                  "austere": False},
    )


def horosphere(space: SpaceForm) -> CatalogEntry:
    """Limit sphere in CH^2: orbit of the Iwasawa nilpotent group."""
    sp = space
    if sp.c >= 0:
        raise GeometryError("horospheres need c < 0")
    e1 = np.array([[0, 0, 1], [0, 0, 1], [1, -1, 0]], dtype=complex)
    e2 = np.array([[0, 0, -1j], [0, 0, -1j], [1j, -1j, 0]], dtype=complex)
    zn = 1j * np.array([[1, -1, 0], [1, -1, 0], [0, 0, 0]], dtype=complex)
    base = sp.normalize_rep(np.eye(3, dtype=complex)[0])

    def chart(params):
        m = (params[:, 0, None, None] * e1 + params[:, 1, None, None] * e2
             + params[:, 2, None, None] * zn)
        return np.einsum("nij,j->ni", kernels.expm3_batch(m), base)

    patch = HypersurfacePatch(sp, chart, ((-0.4, 0.4), (-0.4, 0.4), (-0.4, 0.4)))
    s = np.sqrt(-sp.c)
    spec = (s, s / 2, s / 2)
    _orient_to_trace(patch, [0.05, -0.04, 0.03], sum(spec))
    return CatalogEntry(
        name="horosphere", space=sp, parameters={},
        patch=patch,
        expected={"hopf": True, "cmc": True, "spectrum": sorted(spec, reverse=True),
                  "austere": False},
    )


def tube_spectrum(c: float, r: float, core: str):
    """Tube principal curvatures, inward normal, for core rp2 / ch1."""
    if core == "rp2":
        s = np.sqrt(c)
        return (-s * np.tan(s * r), -(s / 2) * np.tan(s * r / 2), (s / 2) / np.tan(s * r / 2))
    s = np.sqrt(-c)
    if core == "ch1":
        return (s / np.tanh(s * r), (s / 2) * np.tanh(s * r / 2), (s / 2) * np.tanh(s * r / 2))
    raise GeometryError(f"unknown tube core {core!r}")


def tube_rp2(space: SpaceForm, r: float) -> CatalogEntry:
    """Tube around the totally geodesic real projective plane in CP^2."""
    sp = space
    if sp.c <= 0:
        raise GeometryError("tube-rp2 needs c > 0")
    if not 0 < r < np.pi / (2 * np.sqrt(sp.c)):
        raise GeometryError("tube radius beyond the focal distance")
    e = np.eye(3, dtype=complex)
    origin = sp.normalize_rep(e[0])

    def chart(params):
        u1, u2, phi = params[:, 0], params[:, 1], params[:, 2]
        v = u1[:, None] * e[1] + u2[:, None] * e[2]
        q = sp.exp(origin[None, :], v, 1.0)
        # exact real tangent frame on the core, then its J-image normal frame
        f1 = sp.project_horizontal(q, np.broadcast_to(e[1], q.shape))
        f1 = f1 / sp.norm(f1)[:, None]
        f2 = sp.project_horizontal(q, np.broadcast_to(e[2], q.shape))
        f2 = f2 - sp.g(f2, f1)[:, None] * f1
        f2 = f2 / sp.norm(f2)[:, None]
        n = np.cos(phi)[:, None] * (1j * f1) + np.sin(phi)[:, None] * (1j * f2)
        return sp.exp(q, n, r)

    patch = HypersurfacePatch(sp, chart, ((-0.45, 0.45), (-0.45, 0.45), (0.25, 1.35)))
    spec = tube_spectrum(sp.c, r, "rp2")
    _orient_to_trace(patch, [0.1, -0.1, 0.8], sum(spec))
    return CatalogEntry(
        name="tube-rp2", space=sp, parameters={"r": r}, patch=patch,
        expected={"hopf": True, "cmc": True, "spectrum": sorted(spec, reverse=True)},
    )


def tube_ch1(space: SpaceForm, r: float) -> CatalogEntry:
    """Tube around a totally geodesic complex hyperbolic line in CH^2."""
    sp = space
    if sp.c >= 0:
        raise GeometryError("tube-ch1 needs c < 0")
    if r <= 0:
        raise GeometryError("radius must be positive")
    e = np.eye(3, dtype=complex)
    origin = sp.normalize_rep(e[0])

    def chart(params):
        u1, u2, phi = params[:, 0], params[:, 1], params[:, 2]
        v = u1[:, None] * e[1] + u2[:, None] * (1j * e[1])
        q = sp.exp(origin[None, :], v, 1.0)
        n = np.cos(phi)[:, None] * e[2] + np.sin(phi)[:, None] * (1j * e[2])
        return sp.exp(q, n, r)

    patch = HypersurfacePatch(sp, chart, ((-0.45, 0.45), (-0.45, 0.45), (0.25, 1.35)))
    spec = tube_spectrum(sp.c, r, "ch1")
    _orient_to_trace(patch, [0.1, -0.1, 0.8], sum(spec))
    return CatalogEntry(
        name="tube-ch1", space=sp, parameters={"r": r}, patch=patch,
        expected={"hopf": True, "cmc": True, "spectrum": sorted(spec, reverse=True)},
    )


def lohnherr(space: SpaceForm) -> CatalogEntry:
    """The minimal ruled hypersurface of CH^2 with constant curvatures.

    Built equivariantly: the geodesic-law sweep of the ch2-line-g2a action
    launched along the direction where the orbit mean-curvature field is
    aligned with the curve.
    """
    c = space.c
    if c >= 0:
        raise GeometryError("the Lohnherr hypersurface lives in CH^2 (c < 0)")
    spec = load_action("ch2-line-g2a", c)
    sp = spec.space
    grid = [[0.0, 0.0], [0.1, -0.05]]
    # the grid is an absolute length, like the box; the search skips a grid
    # point whose chart overflows, so a raising policy meets the overflow here
    spec.section.point(grid)
    cands = austere_search(spec, grid, n_steps=150)
    if not cands:
        raise GeometryError("austere search failed to produce the Lohnherr curve")
    sigma = cands[0].curve
    ehs = build_hypersurface(spec, sigma, s_extent=0.3)
    s = np.sqrt(-c)
    return CatalogEntry(
        name="lohnherr", space=sp, parameters={},
        patch=ehs.patch,
        expected={"spectrum": [s / 2, 0.0, -s / 2], "a": 1 / np.sqrt(2), "b": 1 / np.sqrt(2),
                  "austere": True, "ruled": True, "levi_flat": True, "minimal": True,
                  "strongly_two_hopf": True},
        extras={"ehs": ehs, "sigma": sigma},
    )


def bisector(space: SpaceForm, p1=None, p2=None) -> CatalogEntry:
    """Equidistant locus of two points of CH^2.

    p1, p2: representatives (3,) of the two points, of any scale.
    Parametrized by the spine geodesic (the J-rotation of the segment's
    midpoint direction inside the complex geodesic of p1, p2) and the
    complex-geodesic slices orthogonal to it.
    """
    sp = space
    if sp.c >= 0:
        raise GeometryError("bisectors live in CH^2 (c < 0)")
    e = np.eye(3, dtype=complex)
    if p1 is None or p2 is None:
        m0 = sp.normalize_rep(e[0])
        d = 0.8
        p1 = sp.exp(m0, e[1], -d / 2)
        p2 = sp.exp(m0, e[1], d / 2)
    else:
        p1 = sp.normalize_rep(np.asarray(p1, dtype=complex))
        p2 = sp.normalize_rep(np.asarray(p2, dtype=complex))
    dist = float(sp.dist(p1, p2))
    if dist < 1e-8:
        raise GeometryError("bisector needs two distinct points")
    # midpoint and unit velocity of the connecting geodesic
    u1 = sp.phase_align(p1, p2)
    v = sp.project_horizontal(p1, u1 * p2)
    v = v / sp.norm(v)
    m = sp.exp(p1, v, dist / 2)
    gdot = sp.exp_velocity(p1, v, dist / 2)
    gdot = gdot / sp.norm(gdot)
    spine_dir = 1j * gdot
    # positive-definite normal direction of the complex geodesic span{m, gdot}
    sig = sp._sig
    n = sig * np.conj(cross3(np.conj(m), np.conj(gdot)))
    n = n / np.sqrt(np.real(sp.herm(n, n)))
    r = sp.radius

    def chart(params):
        t, s1, s2 = params[:, 0], params[:, 1], params[:, 2]
        x = sp.exp(np.broadcast_to(m, (len(t), 3)),
                   np.broadcast_to(spine_dir, (len(t), 3)), t)
        rho = np.hypot(s1, s2)
        coef = np.where(rho < 1e-14, 1.0,
                        np.sinh(rho / r) / np.where(rho < 1e-14, 1.0, rho / r))
        return np.cosh(rho / r)[:, None] * x + (coef * (s1 + 1j * s2))[:, None] * n

    patch = HypersurfacePatch(sp, chart, ((-0.4, 0.4), (-0.4, 0.4), (-0.4, 0.4)))
    _orient_to_trace(patch, [0.05, 0.1, -0.08], 0.0)
    return CatalogEntry(
        name="bisector", space=sp,
        parameters={"p1": p1, "p2": p2, "distance": dist},
        patch=patch,
        expected={"austere": True, "ruled": True, "levi_flat": True, "minimal": True,
                  "strongly_two_hopf": True},
        extras={"p1": p1, "p2": p2},
    )


def clifford_cone(space: SpaceForm, vertex=None) -> CatalogEntry:
    """Cone of geodesic rays from a torus-fixed point over the minimal orbit.

    The vertex must be fixed by the torus action (coordinate axes in CP^2,
    the timelike axis in CH^2); the vertex region is excluded from the box.
    """
    sp = space
    e = np.eye(3, dtype=complex)
    if sp.c > 0:
        spec = load_action("cp2-torus", sp.c)
        default_vertex = sp.normalize_rep(e[2])
    else:
        spec = load_action("ch2-torus", sp.c)
        default_vertex = sp.normalize_rep(e[0])
    vertex = default_vertex if vertex is None else sp.normalize_rep(
        np.asarray(vertex, dtype=complex))
    kn = max(float(sp.norm(spec.killing_vec(0, vertex))),
             float(sp.norm(spec.killing_vec(1, vertex))))
    if kn > 1e-8:
        raise GeometryError("cone vertex must be a fixed point of the torus action")
    r = sp.radius
    iv = int(np.argmax(np.abs(vertex)))
    if sp.c < 0 and iv != 0:
        raise GeometryError("the CH^2 cone vertex must be the timelike fixed point")
    others = [i for i in range(3) if i != iv]
    radial, spread = (np.cos, np.sin) if sp.c > 0 else (np.cosh, np.sinh)

    def chart(params):
        t, th1, th2 = params[:, 0], params[:, 1], params[:, 2]
        out = np.empty((len(t), 3), dtype=complex)
        out[:, others[0]] = spread(t / r) * np.exp(1j * th1) / np.sqrt(2)
        out[:, others[1]] = spread(t / r) * np.exp(1j * th2) / np.sqrt(2)
        out[:, iv] = radial(t / r)
        return r * out

    t_hi = np.pi / 2 * r - 0.3 if sp.c > 0 else 1.1
    box = ((CONE_RADIAL_MARGIN + 0.3, t_hi), (-0.6, 0.6), (-0.6, 0.6))
    name = "clifford-cone-cp2" if sp.c > 0 else "clifford-cone-ch2"

    patch = HypersurfacePatch(sp, chart, box)
    _orient_to_trace(patch, [0.5 * (box[0][0] + box[0][1]), 0.1, -0.1], 0.0)
    return CatalogEntry(
        name=name, space=sp, parameters={"vertex": vertex}, patch=patch,
        expected={"austere": True, "ruled": True, "levi_flat": True, "minimal": True,
                  "strongly_two_hopf": True},
        extras={"action": spec},
    )


def clifford_cone_distances(space: SpaceForm, z):
    """Distance of each point to the whole Clifford cone of every torus-fixed vertex.

    z holds representatives (N, 3) of any scale. Column k of the (N, 3)
    result in CP^2 is the distance to the cone with vertex e_k; CH^2 has
    the one column of vertex e_0. The cone of e_k is the level set
    |z_i| = |z_j| of the other two coordinates, and by the Lagrange identity
    (Goldman, Complex Hyperbolic Geometry, 1999) the distance d to it reads
    sin(d/r) = |m_i - m_j| / (sqrt 2 |z|) in CP^2 and
    sinh(d/r) = |m_i - m_j| / sqrt(2 |<z,z>|) in CH^2, with m = |z|.
    """
    m = np.abs(z)
    pairs = ((1, 2), (0, 2), (0, 1)) if space.c > 0 else ((1, 2),)
    gap = np.stack([np.abs(m[..., i] - m[..., j]) for i, j in pairs], axis=-1)
    if space.c > 0:
        return space.radius * np.arcsin(gap / (np.sqrt(2) * np.linalg.norm(z, axis=-1))[..., None])
    return space.radius * np.arcsinh(gap / np.sqrt(2 * np.abs(space.herm(z, z).real))[..., None])


# name -> (builder, default c, default radius or None for an entry without one)
_ENTRIES = {
    "geodesic-sphere": (geodesic_sphere, 4.0, 0.5),
    "horosphere": (horosphere, -4.0, None),
    "tube-rp2": (tube_rp2, 4.0, 0.3),
    "tube-ch1": (tube_ch1, -4.0, 0.4),
    "lohnherr": (lohnherr, -4.0, None),
    "bisector": (bisector, -4.0, None),
    "clifford-cone-cp2": (clifford_cone, 4.0, None),
    "clifford-cone-ch2": (clifford_cone, -4.0, None),
}
CATALOG_NAMES = tuple(_ENTRIES)


def get_entry(name: str, c: float | None = None, r: float | None = None) -> CatalogEntry:
    """Catalog entries addressable by CLI name; r only for the entries with a radius."""
    if name not in _ENTRIES:
        raise KeyError(f"unknown catalog entry {name!r}; choose from {CATALOG_NAMES}")
    build, default_c, default_r = _ENTRIES[name]
    if default_r is None and r is not None:
        raise GeometryError(f"catalog entry {name!r} takes no radius")
    sp = SpaceForm(default_c if c is None else c)
    if default_r is None:
        return build(sp)
    return build(sp, r=default_r if r is None else r)
