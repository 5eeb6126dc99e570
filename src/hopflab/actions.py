"""The five cohomogeneity-two polar actions on CP^2 and CH^2.

Each action is given by two commuting infinitesimal isometries (3x3 matrices,
anti-self-adjoint for the ambient Hermitian form) plus a seed point whose
orbit-normal plane spans one totally real section. Orbit shape operators,
the mean-curvature field on the section, and the Hopf-obstruction map Phi,
a cubic form in (cos, sin) of the angle, with its zero set w_p (the real
roots of the cubic, with multiplicities) all live here. An orbit shape
operator S_xi comes from ``orbit_geometry(...).shape_matrix(xi)`` at any
point, and its principal curvatures alpha >= beta with the Hopf components
a, b of J xi from ``_orbit_invariants`` at a batch of section points.

The section is totally geodesic and totally real, so its representatives
span a real form D.R^3 of C^3, where D is diagonal with unit entries 1 or i
(``PolarActionSpec.phases``), and each generator is G_j = i D Q_j conj(D)
with Q_j real (``frame_generators``). The orbit algebra has one body,
``_orbit_body``: on the real frame coordinates x of section points z = D x
it runs in real arithmetic with the Q_j, elsewhere in complex arithmetic
with the G_j, through the same formulas. The section curve integrator
(through ``_orbit_invariants``), Phi, the mean-curvature field and the
austere search's start directions take the real route; ``orbit_geometry``
serves any point. The body's prefix, ``_killing_gram``, builds the Killing
fields and their gram determinant and stops there:
``PolarActionSpec.gram_det`` (so ``is_regular``) calls it alone. The rows
of a section curve, collocated or pregeodesic, read their gram determinant
from the ``_orbit_invariants`` call that gives their orbit columns. Every
regularity test compares the gram determinant with
``PolarActionSpec.gram_floor``, which scales with the curvature.

The generator table ships in ``data/actions.json``; its correctness is
enforced by the invariant suites (isometry, polarity, orbit dimension), not
assumed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import _kernels as kernels
from .ambient import GeometryError, SectionChart, SpaceForm, cross3

LABELS = ("cp2-torus", "ch2-torus", "ch2-g0", "ch2-k0-g2a", "ch2-line-g2a")

REGULARITY_TOL = 1e-10
# eigenvalue half-gap below which a 2x2 orbit shape matrix counts as umbilic
EIG_DEGENERATE_TOL = 1e-14
# max |coefficient| of the Phi cubic, per unit sqrt|c|/2, below which Phi is zero
PHI_DEGENERACY_FLOOR = 1e-6
# chordal distance below which roots of the Phi cubic are one repeated root:
# round-off splits a double root by ~2e-7 and a triple one by ~2e-5, while
# distinct roots lie >= 1e-3 apart wherever the Killing gram det exceeds 1e-6
ROOT_SEPARATION_TOL = 2e-4
# round-off bound, relative to the entries, on the parts that the section's
# real frame D.R^3 leaves out
FRAME_TOL = 1e-12


class SingularOrbitError(GeometryError):
    """Operation requested at a point whose orbit is not principal."""


class InconclusiveDegeneracyError(GeometryError):
    """Phi numerically vanishes everywhere; contradicts the theory, so the
    model data must be wrong."""


def _decode(obj):
    return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)


_TABLE = json.loads(resources.files("hopflab.data").joinpath("actions.json").read_text())


@dataclass(frozen=True, eq=False)
class PolarActionSpec:
    """One cohomogeneity-two polar action with a fixed section chart.

    Building it finds the section's real frame: ``phases`` (3,) holds the
    diagonal of D, and ``frame_generators`` (2, 3, 3) the real Q_j with
    G_j = i D Q_j conj(D). A section outside every D.R^3, or generators that
    do not map it into i D.R^3, raise GeometryError.
    """

    label: str
    space: SpaceForm
    generators: np.ndarray  # (2, 3, 3) complex
    section: SectionChart
    phases: np.ndarray = field(init=False, repr=False)
    frame_generators: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        sec = self.section
        basis = np.stack([sec.origin, sec.e1, sec.e2])
        phases = np.where(np.abs(basis.imag).sum(axis=0) > np.abs(basis.real).sum(axis=0),
                          1j, 1.0 + 0j)
        if np.abs((np.conj(phases) * basis).imag).max() > FRAME_TOL * np.abs(basis).max():
            raise GeometryError(f"the section of {self.label} lies in no real frame D.R^3 "
                                "with D diagonal of entries 1 or i")
        q = -1j * np.conj(phases)[:, None] * self.generators * phases
        if np.abs(q.imag).max() > FRAME_TOL * max(1.0, np.abs(self.generators).max()):
            raise GeometryError(f"the generators of {self.label} do not map the section's "
                                "real frame D.R^3 into i D.R^3")
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "frame_generators", np.ascontiguousarray(q.real))

    def frame_coords(self, v):
        """Real coordinates x of vectors v = D x (..., 3) in the section's real frame.

        Each is read off its real or imaginary part, so this inverts
        ``from_frame`` bit for bit. Section representatives and their
        tangent vectors lie in the frame; anything else raises GeometryError.
        """
        v = np.asarray(v, dtype=complex)
        x, off = np.where(self.phases.imag != 0, (v.imag, v.real), (v.real, v.imag))
        if np.abs(off).max(initial=0.0) > FRAME_TOL * max(1.0, np.abs(x).max(initial=0.0)):
            raise GeometryError("vector is off the section's real frame D.R^3")
        return np.where(np.isnan(off), np.nan, x)   # a NaN off the frame makes x NaN

    def from_frame(self, x):
        """D x for real frame coordinates x (..., 3), placed exactly; the other parts are +0.0."""
        on_i = self.phases.imag != 0
        z = np.zeros(np.shape(x), dtype=complex)
        z.real, z.imag = np.where(on_i, 0.0, x), np.where(on_i, x, 0.0)
        return z

    # -- group and Killing fields --------------------------------------------

    def group_element(self, s):
        """exp(s1*G1 + s2*G2) for coordinates s = (..., 2)."""
        s = np.asarray(s, dtype=float)
        m = s[..., 0, None, None] * self.generators[0] + s[..., 1, None, None] * self.generators[1]
        return kernels.expm3_batch(m)

    def translate(self, s, z):
        """Apply the group element with coordinates s to representatives z."""
        single = np.ndim(z) == 1 and np.ndim(s) <= 1
        s = np.atleast_2d(np.asarray(s, dtype=float))
        z2 = np.atleast_2d(np.asarray(z, dtype=complex))
        n = max(len(s), len(z2))
        s = np.broadcast_to(s, (n, 2))
        z2 = np.broadcast_to(z2, (n, 3))
        out = kernels.group_orbit_apply(self.generators[0], self.generators[1],
                                        s[:, 0], s[:, 1], z2)
        return out[0] if single else out

    def killing_vec(self, index, z):
        """Killing field of generator ``index`` at representatives z."""
        if not 0 <= index < len(self.generators):
            raise IndexError("generator index out of range")
        z = np.asarray(z, dtype=complex)
        gz = z @ self.generators[index].T
        return self.space.project_horizontal(z, gz)

    def killing_basis(self, z):
        return np.stack([self.killing_vec(0, z), self.killing_vec(1, z)], axis=-2)

    def gram_det(self, z):
        """Gram determinant of the two Killing fields at representatives z (..., 3).

        Real z are frame coordinates of section points. Only the gram prefix
        of the orbit body runs, so the value has the bits of
        ``orbit_geometry``'s ``gram_det``; a NaN in z gives NaN.
        """
        z = np.asarray(z)
        with np.errstate(all="ignore"):   # a non-finite z warns on its way to NaN
            det = _killing_gram(self, z.reshape(-1, 3).T)[-1]
        return det.reshape(z.shape[:-1])[()]

    def gram_floor(self, tol=REGULARITY_TOL):
        """The gram determinant at or below which a point counts as singular.

        The Killing gram determinant scales like r^4 = 16/c^2 = kappa^2, so
        the floor is tol times that scale; at c = +-4 it is tol itself. The
        products of Python floats overflow to inf and underflow to 0 without
        raising. Every regularity test of a gram determinant compares it
        with this floor.
        """
        kappa = self.space.kappa
        return tol * kappa * kappa

    def is_regular(self, z, tol=REGULARITY_TOL):
        return self.gram_det(z) > self.gram_floor(tol)


def load_action(label: str, c: float | None = None) -> PolarActionSpec:
    """Build the named action spec at holomorphic curvature c (default +-4)."""
    if label not in LABELS:
        raise KeyError(f"unknown action label {label!r}; choose from {LABELS}")
    entry = _TABLE["actions"][label]
    c_sign = entry["c_sign"]
    if c is None:
        c = 4.0 * c_sign
    if np.sign(c) != c_sign:
        raise GeometryError(f"action {label} requires sign(c) = {c_sign}")
    space = SpaceForm(float(c))
    gens = np.stack([_decode(g) for g in entry["generators"]])
    seed = space.normalize_rep(_decode(entry["seed"]) * space.radius)
    spec = PolarActionSpec(label, space, gens, _make_section(space, gens, seed))
    return spec


def _make_section(space: SpaceForm, gens, seed) -> SectionChart:
    """Section chart through the seed: exp of the orbit-normal plane."""
    k1 = space.project_horizontal(seed, gens[0] @ seed)
    k2 = space.project_horizontal(seed, gens[1] @ seed)
    x1 = k1 / space.norm(k1)
    x2 = k2 - space.g(k2, x1) * x1
    x2 = x2 / space.norm(x2)
    frame = []
    candidates = [np.eye(3, dtype=complex)[i] * sc for i in range(3) for sc in (1.0, 1j)]
    for cand in candidates:
        v = space.project_horizontal(seed, cand)
        v = v - space.g(v, x1) * x1 - space.g(v, x2) * x2
        for f in frame:
            v = v - space.g(v, f) * f
        n = space.norm(v)
        if n > 1e-6:
            frame.append(v / n)
        if len(frame) == 2:
            break
    if len(frame) < 2:
        raise GeometryError("could not build a section frame at the seed point")
    f1, f2 = frame
    if abs(space.g(1j * f1, f2)) > 1e-8:
        raise GeometryError("orbit-normal plane at the seed is not totally real")
    return SectionChart(space, seed, f1, f2)


# -- orbit geometry ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class OrbitGeometry:
    """Second-order data of the orbit H.p at p (independent of any normal).

    For a batch of points every field carries a leading point axis (N, ...)
    and ``gram_det`` is an (N,) array.
    """

    spec: PolarActionSpec
    z: np.ndarray
    killing: np.ndarray       # (2, 3) Killing vectors
    basis: np.ndarray         # (2, 3) orthonormal tangent basis X1, X2
    second_fundamental: np.ndarray  # (2, 2, 3) normal-valued II in the X basis
    mean_curvature: np.ndarray      # (3,) mean curvature vector
    gram_det: float

    def shape_matrix(self, xi):
        """2x2 matrix of S_xi in the orthonormal orbit basis.

        xi is (3,), or (N, 3) against a batch; the result is (2, 2) or (N, 2, 2).
        """
        sp = self.spec.space
        sxi = sp._sig * np.asarray(xi)
        return np.real(np.sum(np.conj(self.second_fundamental) * sxi[..., None, None, :],
                              axis=-1))


def _route(spec: PolarActionSpec, z):
    """(sig, conj, gens) of the orbit algebra at z (3, N).

    Real z are section frame coordinates, acted on by ``frame_generators``
    with np.real, the identity, for conjugation; complex z by ``generators``
    with np.conj. gens holds G[j, k, l] as (l, k, j, 1): a product with a vector
    over l, reduced over l.
    """
    on_section = not np.iscomplexobj(z)
    gens = spec.frame_generators if on_section else spec.generators
    return spec.space._sig[:, None], np.real if on_section else np.conj, gens.T[..., None]


def _killing_gram(spec: PolarActionSpec, z):
    """The Killing fields at z (3, N) and their gram matrix: the orbit body's prefix.

    Returns (sz, rot, k, sk, (g11, g12, g22), det): the signed conjugate
    sig * conj(z), the rotation terms <z, G_j z>/kappa (j, N), the Killing
    vectors K_j = P(G_j z) as (3, j, N) with their signed conjugates, the
    gram entries and the gram determinant (N,). Nothing here divides, so a
    singular point gets a det near zero and a point with a NaN coordinate a
    NaN det, and neither touches the other points.
    """
    sig, conj, gens = _route(spec, z)
    kinv = 1.0 / spec.space.kappa
    sz = sig * conj(z)
    gz = np.add.reduce(gens * z[:, None, None], axis=0)                 # (k, j, N): G_j z
    rot = np.add.reduce(sz[:, None] * gz, axis=0) * kinv                # <z, G_j z>/kappa
    k = gz - rot * z[:, None]                                           # P(G_j z)
    sk = sig[:, None] * conj(k)
    gram = np.add.reduce(sk[:, :, None] * k[:, None], axis=0).real      # (i, j, N)
    g11, g12, g22 = gram[0, 0], gram[0, 1], gram[1, 1]
    return sz, rot, k, sk, (g11, g12, g22), g11 * g22 - g12 ** 2


def _orbit_body(spec: PolarActionSpec, z, require_regular=True):
    """Orbit data at a batch of points: the one body of the orbit algebra.

    z is (3, N), coordinates first, like every vector here, so that each
    sum over coordinates reduces the leading axis. Complex z are
    representatives anywhere, acted on by ``generators``. Real z are frame
    coordinates x of section points D x, acted on by the real
    ``frame_generators`` through the same formulas; there the Killing
    vectors and the orbit basis stand for i D times the returned vectors,
    and II and the mean curvature for D times them.

    Returns (killing (3, j, N), basis (3, a, N), ii (3, a, b, N), mean (3, N),
    det (N,)): the Killing vectors K_j, the orthonormal orbit basis X_a, the
    second fundamental form II(X_a, X_b) (normal to the orbit), the mean
    curvature vector and the Killing gram determinant, computed by the
    prefix ``_killing_gram``. Every product and sum runs in the order of the
    complex formulas, with a division by a real written as the product with
    its reciprocal, as NumPy divides a complex array by a real one. On the
    section the products of pure real or imaginary numbers are exact, so a
    section point gets the same bits on both routes.

    With ``require_regular`` a point whose gram determinant is at most
    ``spec.gram_floor()`` raises SingularOrbitError. Without it such points
    return meaningless (possibly non-finite) data that the caller must mask
    by det.
    """
    sig, conj, gens = _route(spec, z)
    kinv = 1.0 / spec.space.kappa
    sz, rot, k, sk, (g11, g12, g22), det = _killing_gram(spec, z)
    if require_regular and np.any(det <= spec.gram_floor()):
        raise SingularOrbitError(
            f"orbit through the given point has rank < 2 (gram det {np.min(det):.3e})")
    ir11 = 1.0 / np.sqrt(g11)
    basis = np.empty_like(k)
    x1 = np.multiply(k[:, 0], ir11, out=basis[:, 0])
    x2p = k[:, 1] - np.add.reduce(sk[:, 1] * x1, axis=0).real * x1
    in2 = 1.0 / np.sqrt(np.maximum(np.add.reduce(sig * conj(x2p) * x2p, axis=0).real, 0.0))
    np.multiply(x2p, in2, out=basis[:, 1])
    # nabla_{X_a} K_j = P(G_j X_a) - rot_j X_a, as (3, j, a, N)
    gx = np.add.reduce(gens[..., None] * basis[:, None, None], axis=0)
    hz = np.add.reduce(sz[:, None, None] * gx, axis=0) * kinv
    nabla = gx - hz * z[:, None, None] - rot[:, None] * basis[:, None]
    # X_0 = K_0 / sqrt(g11), X_1 = (K_1 - g12/g11 K_0) / n2, so
    # nabla_{X_a} X_b = sum_j coeff[b, j] nabla_{X_a} K_j
    t = np.empty_like(nabla)
    np.multiply(nabla[:, 0], ir11, out=t[:, :, 0])
    np.multiply(nabla[:, 1] - (g12 / g11) * nabla[:, 0], in2, out=t[:, :, 1])
    if conj is np.real:
        # G_j X_a = -D Q_j b_a, so t stands for -D t; its part along the
        # orbit, which lies in i D.R^3, is exactly zero
        ii = np.negative(t, out=t)
    else:
        # II(X_a, X_b): the part normal to the orbit
        tang = np.add.reduce(sig[:, None, None, None] * np.conj(t)[:, :, :, None]
                             * basis[:, None, None], axis=0).real       # (a, b, i, N)
        ii = t - np.einsum("abin,kin->kabn", tang, basis)
    return k, basis, ii, ii[:, 0, 0] + ii[:, 1, 1], det


def _orbit_invariants(spec: PolarActionSpec, x, xi, eigenframe=False):
    """(alpha, beta, a, b, mean_curvature, gram_det) at a batch of section points.

    x and xi (3, N) are real frame coordinates of the points and of the
    section normals, coordinates first; the mean curvature vector comes back
    the same way. Regularity is not enforced: the caller masks points by
    gram_det. With ``eigenframe`` a seventh entry (3, 2, N) holds the unit
    eigenvectors of S_xi for alpha and beta, which, like the orbit basis,
    stand for i D times them.
    """
    _, basis, ii, mean, det = _orbit_body(spec, x, require_regular=False)
    sxi = spec.space._sig[:, None] * xi
    s = np.add.reduce(ii * sxi[:, None, None], axis=0)          # (a, b, N): S_xi
    (alpha, beta), vecs = _eig2(s.transpose(2, 0, 1))
    jxi = np.add.reduce(sxi[:, None] * basis, axis=0)           # (i, N): <J xi, X_i>
    ab = np.abs(np.einsum("nij,in->jn", vecs, jxi))
    out = (alpha, beta, ab[0], ab[1], mean, det)
    if eigenframe:
        out += (np.einsum("nij,kin->kjn", vecs, basis),)
    return out


def orbit_geometry(spec: PolarActionSpec, z, require_regular=True) -> OrbitGeometry:
    """Orbit data at a representative z (3,) or at a batch of them (N, 3).

    With ``require_regular`` a point whose Killing gram determinant is at most
    ``spec.gram_floor()`` raises SingularOrbitError. Without it such points
    return meaningless (possibly non-finite) data that the caller must mask
    by ``gram_det``.
    """
    z = np.asarray(z, dtype=complex)
    single = z.ndim == 1
    k, basis, ii, mean, det = _orbit_body(spec, z.reshape(-1, 3).T, require_regular)
    # points first, coordinates last
    k, basis = k.transpose(2, 1, 0), basis.transpose(2, 1, 0)
    ii, mean = ii.transpose(3, 1, 2, 0), mean.T
    if single:
        return OrbitGeometry(spec, z, k[0], basis[0], ii[0], mean[0], float(det[0]))
    return OrbitGeometry(spec, z, k, basis, ii, mean, det)


def _eig2(s):
    """Eigen-decomposition of symmetric 2x2 matrices s, (2, 2) or (..., 2, 2).

    Reads the upper triangle. Returns ((lam1, lam2), vecs) with lam1 >= lam2;
    the columns of vecs (..., 2, 2) are unit eigenvectors, the second the +90
    degree rotation of the first. Below an eigenvalue half-gap of
    EIG_DEGENERATE_TOL the spectrum counts as degenerate and vecs is the
    identity.
    """
    s = np.asarray(s, dtype=float)
    s00, s01, s11 = s[..., 0, 0], s[..., 0, 1], s[..., 1, 1]
    m = 0.5 * (s00 + s11)
    d = 0.5 * (s00 - s11)
    r = np.hypot(d, s01)
    # eigenvector of m + r from the row of s - (m + r) I that avoids
    # cancellation: both candidates have norm >= r
    neg = d < 0
    degenerate = r < EIG_DEGENERATE_TOL
    v0 = np.where(degenerate, 1.0, np.where(neg, s01, r + d))
    v1 = np.where(degenerate, 0.0, np.where(neg, r - d, s01))
    nv = np.hypot(v0, v1)
    c, sn = v0 / nv, v1 / nv
    vecs = np.empty(s.shape)
    vecs[..., 0, 0] = vecs[..., 1, 1] = c
    vecs[..., 1, 0] = sn
    vecs[..., 0, 1] = -sn
    return (m + r, m - r), vecs


def mean_curvature_field(spec: PolarActionSpec, q):
    """Mean curvature vector (3,) of the orbit through section coordinates q."""
    z = spec.section.point(np.asarray(q, dtype=float))
    mean = _orbit_body(spec, spec.frame_coords(z)[:, None])[3]
    return spec.from_frame(mean[:, 0])


# -- the Hopf obstruction Phi -------------------------------------------------


def rotate90(spec: PolarActionSpec, x, u):
    """The Frenet normal sigma o (x X u) / |.| of a section curve at x with velocity u.

    x and u (..., 3) are real frame coordinates; the normal is the +90 degree
    rotation of u's horizontal part in the chart orientation. Complex D x and
    D u are read through ``frame_coords`` and give D xi.
    """
    if np.iscomplexobj(x) or np.iscomplexobj(u):
        return spec.from_frame(rotate90(spec, spec.frame_coords(x), spec.frame_coords(u)))
    sp = spec.space
    normal = sp._sig * cross3(x, u)
    return normal * (1.0 / sp.norm(normal))[..., None]


def phi_profile(spec: PolarActionSpec, z, thetas):
    """Phi(w(theta)) for w = cos(theta) f1 + sin(theta) f2 at a section point.

    z: representative (3,) of the section point, in the section's real frame.
    """
    _, basis, ii, _, _ = _orbit_body(spec, spec.frame_coords(z)[:, None])
    # the section frame (f1, f2) in frame coordinates, as (3, c)
    sf = spec.space._sig[:, None] * spec.frame_coords(np.stack(spec.section.tangent_frame(z))).T
    thetas = np.asarray(thetas, dtype=float)
    ct, st = np.cos(thetas), np.sin(thetas)
    # S_xi is linear in xi; precontract II against the frame normals
    p1, p2 = np.add.reduce(ii[:, None, :, :, 0] * sf[:, :, None, None], axis=0)
    # <J f_c, X_a>
    jf1, jf2 = np.add.reduce(sf[:, :, None] * basis[:, None, :, 0], axis=0)
    # xi_w = -sin f1 + cos f2, w = cos f1 + sin f2
    s_mat = -st[:, None, None] * p1 + ct[:, None, None] * p2      # (n, 2, 2)
    jxi = -st[:, None] * jf1 + ct[:, None] * jf2                  # (n, 2)
    jw = ct[:, None] * jf1 + st[:, None] * jf2
    return np.einsum("nab,nb,na->n", s_mat, jxi, jw)


def phi_coefficients(spec: PolarActionSpec, z):
    """(A, B, C, D) with Phi = A c^3 + B c^2 s + C c s^2 + D s^3, (c, s) = (cos, sin)
    theta, at z: Phi(0) = A, Phi(pi/2) = D and Phi(+-pi/4) = (A +- B + C +- D)/sqrt 8."""
    a, d, plus, minus = phi_profile(spec, z, [0.0, 0.5 * np.pi, 0.25 * np.pi, -0.25 * np.pi])
    r2 = np.sqrt(2.0)
    return np.array([a, r2 * (plus - minus) - d, r2 * (plus + minus) - a, d])


def _cubic_real_roots(a):
    """(root, multiplicity) of each real root of a[0] y^3 + ... + a[3], a[0] != 0.

    Roots closer than ROOT_SEPARATION_TOL are one repeated root, from the exact
    formula: -a1/(3 a0) if triple; if double, the root -3q/(2p) that the
    depressed cubic u^3 + p u + q shares with its derivative.
    """
    r = np.roots(a)
    i, j = np.array([0, 0, 1]), np.array([1, 2, 2])
    close = np.abs(r[i] - r[j]) < ROOT_SEPARATION_TOL * np.sqrt(
        (1.0 + np.abs(r[i]) ** 2) * (1.0 + np.abs(r[j]) ** 2))
    if close.sum() >= 2:
        return [(-a[1] / (3.0 * a[0]), 3)]
    if close.any():
        b2, b1, b0 = a[1:] / a[0]
        p, q = b1 - b2 * b2 / 3.0, 2.0 * b2 ** 3 / 27.0 - b2 * b1 / 3.0 + b0
        return [(-1.5 * q / p - b2 / 3.0, 2), (r[3 - i[close][0] - j[close][0]].real, 1)]
    return [(x.real, 1) for x in r if x.imag == 0.0]


def hopf_directions(spec: PolarActionSpec, z):
    """Zero set w_p of Phi on the unit circle of the section tangent space at z.

    The real roots of the ``phi_coefficients`` cubic, in cot(theta) when
    |A| >= |D| and in tan(theta) otherwise; each gives theta and theta + pi.
    Returns dicts sorted by theta in [0, 2 pi): the angle, the unit tangent,
    the residual |Phi| and the multiplicity of the root.
    """
    coef = phi_coefficients(spec, z)
    if np.max(np.abs(coef)) < PHI_DEGENERACY_FLOOR * 0.5 * np.sqrt(abs(spec.space.c)):
        raise InconclusiveDegeneracyError(
            "Phi is numerically zero on the whole circle; the action data is degenerate")
    cot = abs(coef[0]) >= abs(coef[3])
    lines = [(np.arctan2(1.0, y) if cot else np.arctan(y), m)
             for y, m in _cubic_real_roots(coef if cot else coef[::-1])]
    zeros = sorted(((t + shift) % (2.0 * np.pi), m) for t, m in lines for shift in (0.0, np.pi))
    res = np.abs(phi_profile(spec, z, [t for t, _ in zeros]))
    f1, f2 = spec.section.tangent_frame(z)
    return [{"theta": float(t), "direction": np.cos(t) * f1 + np.sin(t) * f2, "phi": float(r),
             "multiplicity": m} for (t, m), r in zip(zeros, res)]
