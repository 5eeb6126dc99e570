"""Nonflat complex space forms CP^2(c) and CH^2(c) in the projective model.

Points are homogeneous representatives z in C^3 with Hermitian square
<z,z> = kappa = 4/c (signature (+,+,+) for c>0, (-,+,+) for c<0); tangent
vectors are horizontal representatives (<z,v> = 0) and the Riemannian metric
is g(v,w) = Re<v,w>. With this normalization the holomorphic sectional
curvature is exactly c and totally real planes have curvature c/4.

Everything here is a pure function of immutable values; array-level helpers
on SpaceForm are batched over a leading axis wherever useful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

NORMALIZATION_TOL = 1e-9
HORIZONTALITY_TOL = 1e-9
DEFAULT_FD_STEP = 1e-5


class GeometryError(ValueError):
    """Violated geometric precondition (base-point mismatch, bad frame, ...)."""


@dataclass(frozen=True)
class SpaceForm:
    """CP^2(c) for c > 0 or CH^2(c) for c < 0."""

    c: float

    def __post_init__(self):
        if self.c == 0:
            raise GeometryError("holomorphic curvature c must be nonzero")

    @property
    def kind(self) -> str:
        return "projective" if self.c > 0 else "hyperbolic"

    @property
    def eps(self) -> float:
        """Sign of the 0-th coordinate in the Hermitian form."""
        return 1.0 if self.c > 0 else -1.0

    @property
    def hermitian_signature(self):
        return (self.eps, 1.0, 1.0)

    @property
    def kappa(self) -> float:
        """Hermitian square of point representatives (= 4/c)."""
        return 4.0 / self.c

    @property
    def radius(self) -> float:
        return 2.0 / np.sqrt(abs(self.c))

    # -- array-level primitives (batched over leading axes) ------------------

    @cached_property
    def _sig(self):
        """Read-only signature array, built once per instance."""
        sig = np.array(self.hermitian_signature)
        sig.flags.writeable = False
        return sig

    def herm(self, z, w):
        """Hermitian form <z,w>, conjugate-linear in the first slot."""
        return np.sum(self._sig * np.conj(z) * w, axis=-1)

    def g(self, v, w):
        """Riemannian metric on horizontal vectors."""
        return np.real(self.herm(v, w))

    def norm(self, v):
        return np.sqrt(np.maximum(self.g(v, v), 0.0))

    def project_horizontal(self, z, v):
        """Complex projection of v onto the horizontal space at z."""
        coef = self.herm(z, v) / self.kappa
        return v - coef[..., None] * z

    def normalize_rep(self, z):
        """Rescale a representative so that <z,z> = kappa."""
        sq = np.real(self.herm(z, z))
        if np.any(sq * self.kappa <= 0):
            raise GeometryError("representative on the wrong side of the null cone")
        return z * np.sqrt(self.kappa / sq)[..., None]

    def phase_align(self, z_ref, z):
        """Unit phase u with <z_ref, u*z>/kappa real and positive."""
        w = self.herm(z_ref, z)
        mag = np.abs(w)
        if np.any(mag == 0):
            raise GeometryError("phase alignment of antipodal/orthogonal representatives")
        return np.sign(self.kappa) * np.conj(w) / mag

    def exp(self, z, v, t=1.0):
        """Geodesic exp_z(t v) in representatives (closed form)."""
        z = np.asarray(z, dtype=complex)
        v = np.asarray(v, dtype=complex)
        speed = self.norm(v)
        theta = np.asarray(t * speed / self.radius)
        small = speed < 1e-300
        unit = np.where(small[..., None], 0.0, v / np.where(small, 1.0, speed)[..., None])
        if self.c > 0:
            ca, sa = np.cos(theta), np.sin(theta)
        else:
            ca, sa = np.cosh(theta), np.sinh(theta)
        return ca[..., None] * z + self.radius * sa[..., None] * unit

    def exp_velocity(self, z, v, t=1.0):
        """d/dt of exp_z(t v): the geodesic's velocity representative."""
        speed = self.norm(v)
        theta = np.asarray(t * speed / self.radius)
        small = speed < 1e-300
        unit = np.where(small[..., None], 0.0, v / np.where(small, 1.0, speed)[..., None])
        if self.c > 0:
            radial = -(speed * np.sin(theta))[..., None] * z / self.radius
            along = (speed * np.cos(theta))[..., None] * unit
        else:
            radial = (speed * np.sinh(theta))[..., None] * z / self.radius
            along = (speed * np.cosh(theta))[..., None] * unit
        return radial + along

    def dist(self, z, w):
        """Geodesic distance between points given by representatives."""
        ratio = np.abs(self.herm(z, w)) / abs(self.kappa)
        if self.c > 0:
            return 2.0 / np.sqrt(self.c) * np.arccos(np.clip(ratio, 0.0, 1.0))
        return 2.0 / np.sqrt(-self.c) * np.arccosh(np.maximum(ratio, 1.0))

    def curvature(self, x, y, z):
        """Curvature tensor R(x,y)z of constant holomorphic curvature c.

        All inputs horizontal at a common point; returns a horizontal vector.
        """
        jx, jy, jz = 1j * x, 1j * y, 1j * z

        def ip(a, b):
            return self.g(a, b)[..., None]

        return (self.c / 4.0) * (
            ip(y, z) * x
            - ip(x, z) * y
            + ip(jy, z) * jx
            - ip(jx, z) * jy
            - 2.0 * ip(jx, y) * jz
        )

    def random_point(self, rng):
        """Uniform-ish random point representative (for tests and suites)."""
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        if self.c < 0:
            # force a timelike representative: |z0|^2 = |z1|^2 + |z2|^2 + u^2
            s = abs(z[1]) ** 2 + abs(z[2]) ** 2
            u = 0.3 + abs(rng.standard_normal())
            z[0] = np.sqrt(s + u * u) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        return self.normalize_rep(z)

    def random_tangent(self, rng, z, unit=True):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = self.project_horizontal(z, v)
        if unit:
            v = v / self.norm(v)
        return v


@dataclass(frozen=True, eq=False)
class AmbientPoint:
    """Point of the space form, stored as a normalized representative."""

    space: SpaceForm
    rep: np.ndarray

    def __post_init__(self):
        sq = float(np.real(self.space.herm(self.rep, self.rep)))
        if abs(sq - self.space.kappa) > NORMALIZATION_TOL * abs(self.space.kappa):
            raise GeometryError("representative not normalized to kappa")

    @classmethod
    def of(cls, space: SpaceForm, rep) -> "AmbientPoint":
        return cls(space, space.normalize_rep(np.asarray(rep, dtype=complex)))

    def same_point(self, other: "AmbientPoint", tol: float = 1e-8) -> bool:
        if self.space != other.space:
            return False
        ratio = abs(self.space.herm(self.rep, other.rep)) / abs(self.space.kappa)
        return bool(abs(ratio - 1.0) < tol)


@dataclass(frozen=True, eq=False)
class AmbientTangent:
    """Horizontal tangent representative at a point."""

    point: AmbientPoint
    vec: np.ndarray

    def __post_init__(self):
        sp = self.point.space
        res = abs(sp.herm(self.point.rep, self.vec))
        scale = max(1.0, float(sp.norm(self.vec)))
        if res > HORIZONTALITY_TOL * scale * max(1.0, abs(sp.kappa)):
            raise GeometryError("tangent representative is not horizontal")

    @classmethod
    def of(cls, point: AmbientPoint, vec) -> "AmbientTangent":
        sp = point.space
        return cls(point, sp.project_horizontal(point.rep, np.asarray(vec, dtype=complex)))

    @property
    def space(self) -> SpaceForm:
        return self.point.space


def _require_same_base(v: AmbientTangent, w: AmbientTangent):
    if not v.point.same_point(w.point):
        raise GeometryError("tangent vectors based at different points")


def metric(v: AmbientTangent, w: AmbientTangent) -> float:
    """Riemannian inner product of two tangents at the same point."""
    _require_same_base(v, w)
    u = v.space.phase_align(v.point.rep, w.point.rep)
    return float(v.space.g(v.vec, u * w.vec))


def complex_structure(v: AmbientTangent) -> AmbientTangent:
    """J v = i v on horizontal representatives."""
    return AmbientTangent(v.point, 1j * v.vec)


def curvature_tensor(x: AmbientTangent, y: AmbientTangent, z: AmbientTangent) -> AmbientTangent:
    """R(x,y)z of the space form at the common base point."""
    _require_same_base(x, y)
    _require_same_base(x, z)
    sp = x.space
    uy = sp.phase_align(x.point.rep, y.point.rep)
    uz = sp.phase_align(x.point.rep, z.point.rep)
    vec = sp.curvature(x.vec, uy * y.vec, uz * z.vec)
    return AmbientTangent(x.point, vec)


def exp_map(p: AmbientPoint, v: AmbientTangent, t: float) -> AmbientPoint:
    """Riemannian exponential exp_p(t v)."""
    if not v.point.same_point(p):
        raise GeometryError("tangent vector not based at p")
    return AmbientPoint(p.space, p.space.exp(p.rep, v.vec, t))


def distance(p: AmbientPoint, q: AmbientPoint) -> float:
    return float(p.space.dist(p.rep, q.rep))


def covariant_derivative(curve, fld, t0: float, step: float = DEFAULT_FD_STEP) -> AmbientTangent:
    """Covariant derivative of a tangent field along a curve at t0.

    ``curve(t) -> AmbientPoint`` and ``fld(t) -> AmbientTangent`` based at
    curve(t). Central differences of the representatives, phase-aligned to
    curve(t0), projected to the horizontal space there, with the model phase
    correction; second-order accurate in ``step``.
    """
    if step <= 0:
        raise GeometryError("step must be positive")
    p0 = curve(t0)
    sp = p0.space
    zs, ws = [], []
    for s in (-step, step):
        pt = curve(t0 + s)
        w = fld(t0 + s)
        u = sp.phase_align(p0.rep, pt.rep)
        zs.append(u * pt.rep)
        ws.append(u * w.vec)
    zdot = (zs[1] - zs[0]) / (2.0 * step)
    wdot = (ws[1] - ws[0]) / (2.0 * step)
    w0 = fld(t0)
    u0 = sp.phase_align(p0.rep, w0.point.rep)
    vec = sp.project_horizontal(p0.rep, wdot) - (sp.herm(p0.rep, zdot) / sp.kappa) * (u0 * w0.vec)
    return AmbientTangent(p0, sp.project_horizontal(p0.rep, vec))


def parallel_transport_along_geodesic(p: AmbientPoint, direction: AmbientTangent,
                                      t1: float, w0: AmbientTangent, n_steps: int = 200):
    """Parallel transport of w0 along t -> exp_p(t*direction) up to t1 (RK4)."""
    sp = p.space
    h = t1 / n_steps

    def zdot_at(t):
        return sp.exp_velocity(p.rep, direction.vec, t)

    def rhs(t, w):
        # horizontal-lift transport: wdot = -(<zdot, w>/kappa) z
        return -(sp.herm(zdot_at(t), w) / sp.kappa) * sp.exp(p.rep, direction.vec, t)

    w = w0.vec.copy()
    t = 0.0
    for _ in range(n_steps):
        k1 = rhs(t, w)
        k2 = rhs(t + h / 2, w + h / 2 * k1)
        k3 = rhs(t + h / 2, w + h / 2 * k2)
        k4 = rhs(t + h, w + h * k3)
        w = w + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
        z = sp.exp(p.rep, direction.vec, t)
        w = sp.project_horizontal(z, w)
    end = AmbientPoint(sp, sp.exp(p.rep, direction.vec, t1))
    return AmbientTangent(end, sp.project_horizontal(end.rep, w))


@dataclass(frozen=True, eq=False)
class SectionChart:
    """Chart of a totally geodesic, totally real surface exp_p(span{e1,e2}).

    The surface is the projectivization of the real 3-space
    V = span_R{origin, e1, e2}; tangent frames at chart points are computed
    exactly inside V.
    """

    origin: AmbientPoint
    e1: np.ndarray
    e2: np.ndarray
    _basis: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        sp = self.space
        g11 = sp.g(self.e1, self.e1)
        g22 = sp.g(self.e2, self.e2)
        g12 = sp.g(self.e1, self.e2)
        if abs(g11 - 1) > 1e-8 or abs(g22 - 1) > 1e-8 or abs(g12) > 1e-8:
            raise GeometryError("section frame is not orthonormal")
        if abs(sp.g(1j * self.e1, self.e2)) > 1e-8:
            raise GeometryError("section frame spans a non-totally-real plane")
        object.__setattr__(self, "_basis", np.stack([self.origin.rep, self.e1, self.e2]))

    @property
    def space(self) -> SpaceForm:
        return self.origin.space

    @property
    def curvature(self) -> float:
        return self.space.c / 4.0

    def point(self, u):
        """Chart map: (..., 2) coordinates -> representatives."""
        u = np.asarray(u, dtype=float)
        v = u[..., 0, None] * self.e1 + u[..., 1, None] * self.e2
        return self.space.exp(self.origin.rep, v, 1.0)

    def ambient_point(self, u) -> AmbientPoint:
        return AmbientPoint(self.space, self.point(np.asarray(u, dtype=float)))

    def tangent_frame(self, z):
        """Orthonormal tangent frame (f1, f2) of the section at z (in V).

        z : (..., 3) representatives of points on the section.
        """
        sp = self.space
        z = np.asarray(z, dtype=complex)
        f1 = self.e1 - (sp.herm(z, self.e1) / sp.kappa)[..., None] * z
        f2 = self.e2 - (sp.herm(z, self.e2) / sp.kappa)[..., None] * z
        f1 = f1 / sp.norm(f1)[..., None]
        f2 = f2 - sp.g(f1, f2)[..., None] * f1
        f2 = f2 / sp.norm(f2)[..., None]
        return f1, f2

    def coordinates(self, z):
        """Inverse chart for a point known to lie on the section."""
        sp = self.space
        z = np.asarray(z, dtype=complex)
        u = sp.phase_align(self.origin.rep, z)
        zal = u * z if np.ndim(u) == 0 else u[..., None] * z
        c0 = np.real(sp.herm(self.origin.rep, zal)) / sp.kappa
        c1 = np.real(sp.herm(self.e1, zal))
        c2 = np.real(sp.herm(self.e2, zal))
        r = sp.radius
        if sp.c > 0:
            theta = np.arccos(np.clip(c0, -1.0, 1.0))
        else:
            theta = np.arccosh(np.maximum(c0, 1.0))
        rad = np.hypot(c1, c2)
        scale = np.where(rad < 1e-14, 0.0, r * theta / np.where(rad < 1e-14, 1.0, rad))
        return np.stack([c1 * scale, c2 * scale], axis=-1) / r

    def second_fundamental_form_residual(self, u, step: float = 1e-4) -> float:
        """Max norm of the chart surface's II at coordinates u (should be ~0)."""
        sp = self.space
        u = np.asarray(u, dtype=float)
        z0 = self.point(u)
        f10, f20 = self.tangent_frame(z0)
        tangents = (f10, f20)
        worst = 0.0
        for i, di in enumerate(np.eye(2)):
            zp = self.point(u + step * di)
            zm = self.point(u - step * di)
            up = sp.phase_align(z0, zp)
            um = sp.phase_align(z0, zm)
            for which in range(2):
                fp = self.tangent_frame(zp)[which] * up
                fm = self.tangent_frame(zm)[which] * um
                nab = sp.project_horizontal(z0, (fp - fm) / (2 * step))
                nor = nab - sp.g(nab, f10) * f10 - sp.g(nab, f20) * f20
                # velocity of the coordinate line is not unit; normalize by it
                vel = sp.project_horizontal(z0, (up * zp - um * zm) / (2 * step))
                speed = max(float(sp.norm(vel)), 1e-12)
                worst = max(worst, float(sp.norm(nor)) / speed)
        return worst


def section_chart(p: AmbientPoint, e1: AmbientTangent, e2: AmbientTangent) -> SectionChart:
    """Chart of the totally geodesic totally real surface spanned by (e1, e2)."""
    if not e1.point.same_point(p) or not e2.point.same_point(p):
        raise GeometryError("frame vectors not based at p")
    return SectionChart(p, e1.vec, e2.vec)
