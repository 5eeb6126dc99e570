"""Nonflat complex space forms CP^2(c) and CH^2(c) in the projective model.

Points are homogeneous representatives z in C^3 with Hermitian square
<z,z> = kappa = 4/c (signature (+,+,+) for c>0, (-,+,+) for c<0); tangent
vectors are horizontal representatives (<z,v> = 0) and the Riemannian metric
is g(v,w) = Re<v,w>. With this normalization the holomorphic sectional
curvature is exactly c and totally real planes have curvature c/4.

Points and tangent vectors are passed as these representative arrays (3,),
with leading batch axes wherever useful; SpaceForm's methods are pure
functions of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

NORMALIZATION_TOL = 1e-9
# coordinate pairs (i, j), i < j, of the wedge z ^ w in SpaceForm.dist
_WEDGE_PAIRS = (np.array([1, 0, 0]), np.array([2, 2, 1]))


class GeometryError(ValueError):
    """Violated geometric precondition (unnormalized point, bad frame, ...)."""


def cross3(a, b):
    """a x b over the last axis, rounded exactly as ``np.cross`` rounds it.

    Each component is the same two products and one difference that
    ``np.cross`` forms, without its axis moves and output set-up, which
    dominate its cost on a few thousand rows.
    """
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def rk4_step(rhs, t, y, h):
    """One classical Runge-Kutta step of y' = rhs(t, y) from t to t + h."""
    k1 = rhs(t, y)
    k2 = rhs(t + h / 2, y + h / 2 * k1)
    k3 = rhs(t + h / 2, y + h / 2 * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


@dataclass(frozen=True)
class SpaceForm:
    """CP^2(c) for c > 0 or CH^2(c) for c < 0."""

    c: float

    def __post_init__(self):
        if self.c == 0:
            raise GeometryError("holomorphic curvature c must be nonzero")

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
        return np.add.reduce(self._sig * np.conj(z) * w, axis=-1)

    def g(self, v, w):
        """Riemannian metric on horizontal vectors."""
        return self.herm(v, w).real

    def norm(self, v):
        return np.sqrt(np.maximum(self.g(v, v), 0.0))

    def project_horizontal(self, z, v):
        """Complex projection of v onto the horizontal space at z.

        Real z and v (coordinates in a section's real frame) give the same
        bits as the complex vectors they stand for: the division is written
        as the product with 1/kappa that NumPy uses for a complex array.
        """
        coef = self.herm(z, v) * (1.0 / self.kappa)
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

    def central_difference(self, z0, zp, zm, step, *fields):
        """Phase-aligned central differences of fields sampled at zp and zm.

        zp and zm are the representatives reached at +step / -step from z0;
        each field is a pair (fp, fm) of its values computed at zp and zm,
        and the pair (zp, zm) itself gives the velocity representative. Both
        displaced samples are phase-aligned to z0 (the two phases computed
        once for all fields) and differenced: (u+ fp - u- fm) / (2 step),
        one array per field, not yet projected horizontally at z0. All
        arguments are batched over matching (broadcastable) leading axes.
        """
        up = self.phase_align(z0, zp)[..., None]
        um = self.phase_align(z0, zm)[..., None]
        return [(up * fp - um * fm) / (2.0 * step) for fp, fm in fields]

    def covariant_difference(self, z0, w0, zp, wp, zm, wm, step):
        """Central covariant difference of a tangent field along a curve.

        The curve passes through z0 and reaches zp / zm at +step / -step,
        where the field takes the values w0, wp, wm (wp and wm as computed at
        the representatives zp and zm). The central_difference of the field
        is projected horizontally at z0 and corrected by the model term
        <z0, zdot>/kappa * w0; the result is second-order accurate in
        ``step``. All arguments are batched over matching (broadcastable)
        leading axes.
        """
        zdot, wdot = self.central_difference(z0, zp, zm, step, (zp, zm), (wp, wm))
        vec = self.project_horizontal(z0, wdot) - (self.herm(z0, zdot) / self.kappa)[..., None] * w0
        return self.project_horizontal(z0, vec)

    def geodesic_coefficients(self, theta):
        """(C, S) = (cos, sin) theta in CP^2, (cosh, sinh) theta in CH^2.

        The geodesic of unit speed from z along a unit u is
        C z + r S u at theta = t/r, with velocity -eps S z/r + C u.
        """
        if self.c > 0:
            return np.cos(theta), np.sin(theta)
        return np.cosh(theta), np.sinh(theta)

    def exp(self, z, v, t=1.0):
        """Geodesic exp_z(t v) in representatives (closed form)."""
        z = np.asarray(z, dtype=complex)
        v = np.asarray(v, dtype=complex)
        speed = self.norm(v)
        theta = np.asarray(t * speed / self.radius)
        small = speed < 1e-300
        unit = np.where(small[..., None], 0.0, v / np.where(small, 1.0, speed)[..., None])
        ca, sa = self.geodesic_coefficients(theta)
        return ca[..., None] * z + self.radius * sa[..., None] * unit

    def exp_velocity(self, z, v, t=1.0):
        """d/dt of exp_z(t v): the geodesic's velocity representative."""
        speed = self.norm(v)
        theta = np.asarray(t * speed / self.radius)
        small = speed < 1e-300
        unit = np.where(small[..., None], 0.0, v / np.where(small, 1.0, speed)[..., None])
        ca, sa = self.geodesic_coefficients(theta)
        radial = (-self.eps * speed * sa)[..., None] * z / self.radius
        along = (speed * ca)[..., None] * unit
        return radial + along

    def parallel_transport_along_geodesic(self, z, direction, t1, w0, n_steps=200):
        """Parallel transport of w0 along t -> exp_z(t*direction) up to t1 (RK4).

        z, direction and w0 are batched over matching (broadcastable)
        leading axes, which run as lanes of one step loop; t1 and n_steps
        are shared. Returns the transported vectors, horizontal at
        exp_z(t1*direction).
        """
        h = t1 / n_steps

        def rhs(t, w):
            # horizontal-lift transport: wdot = -(<zdot, w>/kappa) z
            coef = -(self.herm(self.exp_velocity(z, direction, t), w) / self.kappa)
            return coef[..., None] * self.exp(z, direction, t)

        w = np.asarray(w0, dtype=complex)
        t = 0.0
        for _ in range(n_steps):
            w = rk4_step(rhs, t, w, h)
            t += h
            w = self.project_horizontal(self.exp(z, direction, t), w)
        return self.project_horizontal(self.exp(z, direction, t1), w)

    def dist(self, z, w):
        """Geodesic distance between points given by representatives of any scale.

        The Lagrange identity <z,z><w,w> - |<z,w>|^2 = sum over i < j of
        sig_i sig_j |z_i w_j - z_j w_i|^2 gives the sine-like part from the
        wedge z ^ w directly, so nearby points keep full accuracy (the
        arccos of |<z,w>|/kappa turns a normalization error eps into
        sqrt(eps)). CP^2 takes atan2 of it against |<z,w>|, CH^2 the asinh of
        it over sqrt(<z,z><w,w>); either way the Hermitian squares cancel.
        The wedge is built from real products, so it vanishes exactly at w = z.
        """
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        i, j = _WEDGE_PAIRS
        zr, zi, wr, wi = z.real, z.imag, w.real, w.imag
        re = ((zr[..., i] * wr[..., j] - zi[..., i] * wi[..., j])
              - (zr[..., j] * wr[..., i] - zi[..., j] * wi[..., i]))
        im = ((zr[..., i] * wi[..., j] + zi[..., i] * wr[..., j])
              - (zr[..., j] * wi[..., i] + zi[..., j] * wr[..., i]))
        pair_sig = self._sig[i] * self._sig[j]
        wedge = np.sqrt(np.maximum(self.eps * np.add.reduce(pair_sig * (re * re + im * im),
                                                            axis=-1), 0.0))
        if self.c > 0:
            return self.radius * np.arctan2(wedge, np.abs(self.herm(z, w)))
        squares = np.real(self.herm(z, z)) * np.real(self.herm(w, w))
        return self.radius * np.arcsinh(wedge / np.sqrt(squares))

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

    def random_tangent(self, rng, z):
        """Random unit horizontal vector at z (for tests and suites)."""
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = self.project_horizontal(z, v)
        return v / self.norm(v)


@dataclass(frozen=True, eq=False)
class SectionChart:
    """Chart of a totally geodesic, totally real surface exp_p(span{e1,e2}).

    ``origin`` is the representative of p, normalized to kappa, and e1, e2
    are an orthonormal, totally real pair of tangent vectors at p. The
    surface is the projectivization of the real 3-space
    V = span_R{origin, e1, e2}; tangent frames at chart points are computed
    exactly inside V.
    """

    space: SpaceForm
    origin: np.ndarray
    e1: np.ndarray
    e2: np.ndarray

    def __post_init__(self):
        sp = self.space
        sq = float(np.real(sp.herm(self.origin, self.origin)))
        if abs(sq - sp.kappa) > NORMALIZATION_TOL * abs(sp.kappa):
            raise GeometryError("section origin is not normalized to kappa")
        g11 = sp.g(self.e1, self.e1)
        g22 = sp.g(self.e2, self.e2)
        g12 = sp.g(self.e1, self.e2)
        if abs(g11 - 1) > 1e-8 or abs(g22 - 1) > 1e-8 or abs(g12) > 1e-8:
            raise GeometryError("section frame is not orthonormal")
        if abs(sp.g(1j * self.e1, self.e2)) > 1e-8:
            raise GeometryError("section frame spans a non-totally-real plane")

    @property
    def curvature(self) -> float:
        return self.space.c / 4.0

    def point(self, u):
        """Chart map: (..., 2) coordinates -> representatives."""
        u = np.asarray(u, dtype=float)
        v = u[..., 0, None] * self.e1 + u[..., 1, None] * self.e2
        return self.space.exp(self.origin, v, 1.0)

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

    def second_fundamental_form_residual(self, u):
        """Max norm of the chart surface's II at coordinates u (..., 2), as
        an array (...) that should be ~0.

        Each coordinate line's II is the normal part of the central
        difference of the tangent frame along it, divided by the line's
        speed (the coordinate velocity is not unit).
        """
        sp = self.space
        step = 1e-4
        u = np.asarray(u, dtype=float)[..., None, :]
        z0 = self.point(u)                       # (..., 1, 3)
        f10, f20 = self.tangent_frame(z0)
        offsets = step * np.eye(2)
        zp, zm = self.point(u + offsets), self.point(u - offsets)   # (..., i, 3)
        (fp1, fp2), (fm1, fm2) = self.tangent_frame(zp), self.tangent_frame(zm)
        vel, d1, d2 = sp.central_difference(z0, zp, zm, step, (zp, zm), (fp1, fm1), (fp2, fm2))
        nab = sp.project_horizontal(z0[..., None, :], np.stack([d1, d2], axis=-2))
        f10, f20 = f10[..., None, :], f20[..., None, :]
        nor = nab - sp.g(nab, f10)[..., None] * f10 - sp.g(nab, f20)[..., None] * f20
        speed = np.maximum(sp.norm(sp.project_horizontal(z0, vel)), 1e-12)   # (..., i)
        return np.max(sp.norm(nor) / speed[..., None], axis=(-2, -1))
