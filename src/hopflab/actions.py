"""The five cohomogeneity-two polar actions on CP^2 and CH^2.

Each action is given by two commuting infinitesimal isometries (3x3 matrices,
anti-self-adjoint for the ambient Hermitian form) plus a seed point whose
orbit-normal plane spans one totally real section. Orbit shape operators,
the mean-curvature field on the section, and the Hopf-obstruction map Phi
with its zero set w_p all live here.

The generator table ships in ``data/actions.json``; its correctness is
enforced by the invariant suites (isometry, polarity, orbit dimension), not
assumed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import _kernels as kernels
from .ambient import AmbientPoint, AmbientTangent, GeometryError, SectionChart, SpaceForm

LABELS = ("cp2-torus", "ch2-torus", "ch2-g0", "ch2-k0-g2a", "ch2-line-g2a")

REGULARITY_TOL = 1e-10
# eigenvalue half-gap below which a 2x2 orbit shape matrix counts as umbilic
EIG_DEGENERATE_TOL = 1e-14


class SingularOrbitError(GeometryError):
    """Operation requested at a point whose orbit is not principal."""


class InconclusiveDegeneracyError(GeometryError):
    """Phi numerically vanishes everywhere; contradicts the theory, so the
    model data must be wrong."""


def _decode(obj):
    return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)


def _load_table():
    with resources.files("hopflab.data").joinpath("actions.json").open() as f:
        return json.load(f)


_TABLE = _load_table()


@dataclass(frozen=True, eq=False)
class PolarActionSpec:
    """One cohomogeneity-two polar action with a fixed section chart."""

    label: str
    space: SpaceForm
    generators: np.ndarray  # (2, 3, 3) complex
    section: SectionChart

    @property
    def hermitian_matrix(self):
        return np.diag(self.space.hermitian_signature).astype(complex)

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
        k = self.killing_basis(z)
        g11 = self.space.g(k[..., 0, :], k[..., 0, :])
        g22 = self.space.g(k[..., 1, :], k[..., 1, :])
        g12 = self.space.g(k[..., 0, :], k[..., 1, :])
        return g11 * g22 - g12 ** 2

    def is_regular(self, z, tol=REGULARITY_TOL):
        return self.gram_det(z) > tol


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
    origin = AmbientPoint(space, seed)
    return SectionChart(origin, f1, f2)


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


def orbit_geometry(spec: PolarActionSpec, z, require_regular=True) -> OrbitGeometry:
    """Orbit data at a representative z (3,) or at a batch of them (N, 3).

    With ``require_regular`` a point whose Killing gram determinant is at most
    REGULARITY_TOL raises SingularOrbitError. Without it such points return
    meaningless (possibly non-finite) data that the caller must mask by
    ``gram_det``.
    """
    sp = spec.space
    z = np.asarray(z, dtype=complex)
    single = z.ndim == 1
    zb = z.reshape(-1, 3)
    gens = spec.generators
    kap = sp.kappa
    gz = np.einsum("jkl,nl->njk", gens, zb)           # (N, j, 3): G_j z
    rot = sp.herm(zb[:, None, :], gz) / kap            # (N, j)
    k = gz - rot[..., None] * zb[:, None, :]           # Killing vectors P(G_j z)
    k0, k1 = k[:, 0], k[:, 1]
    gram = sp.g(k[:, :, None, :], k[:, None, :, :])
    g11, g12, g22 = gram[:, 0, 0], gram[:, 0, 1], gram[:, 1, 1]
    det = g11 * g22 - g12 ** 2
    if require_regular and np.any(det <= REGULARITY_TOL):
        raise SingularOrbitError(
            f"orbit through the given point has rank < 2 (gram det {np.min(det):.3e})")
    r11 = np.sqrt(g11)
    x1 = k0 / r11[:, None]
    x2p = k1 - sp.g(k1, x1)[:, None] * x1
    n2 = sp.norm(x2p)
    x2 = x2p / n2[:, None]
    basis = np.stack([x1, x2], axis=1)                 # (N, a, 3)
    # nabla_{X_a} K_j = P(G_j X_a) - rot_j X_a
    gx = np.einsum("jkl,nal->najk", gens, basis)       # (N, a, j, 3)
    nabla = (gx - (sp.herm(zb[:, None, None, :], gx) / kap)[..., None] * zb[:, None, None, :]
             - rot[:, None, :, None] * basis[:, :, None, :])
    # X_0 = K_0 / sqrt(g11), X_1 = (K_1 - g12/g11 K_0) / n2, so
    # nabla_{X_a} X_b = sum_j coeff[b, j] nabla_{X_a} K_j
    t = np.stack([nabla[:, :, 0] / r11[:, None, None],
                  (nabla[:, :, 1] - (g12 / g11)[:, None, None] * nabla[:, :, 0])
                  / n2[:, None, None]], axis=2)        # (N, a, b, 3)
    # II(X_a, X_b): the part normal to the orbit
    ii = t - np.einsum("nabi,nik->nabk", sp.g(t[:, :, :, None, :], basis[:, None, None]), basis)
    mean = ii[:, 0, 0] + ii[:, 1, 1]
    if single:
        return OrbitGeometry(spec, z, k[0], basis[0], ii[0], mean[0], float(det[0]))
    return OrbitGeometry(spec, z, k, basis, ii, mean, det)


@dataclass(frozen=True, eq=False)
class OrbitData:
    """Shape data of an orbit with respect to a section-tangent normal xi."""

    point: AmbientPoint
    tangent_basis: np.ndarray
    xi: np.ndarray
    shape: np.ndarray                      # 2x2 symmetric
    mean_curvature_vector: AmbientTangent
    orbit_principal_curvatures: tuple      # (alpha, beta), alpha >= beta
    principal_directions: np.ndarray       # (2, 3) ambient eigenvectors
    hopf_components: tuple                 # (a, b) projections of J xi
    residuals: dict


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
    vecs = np.stack([c, -sn, sn, c], axis=-1).reshape(s.shape)
    return (m + r, m - r), vecs


def orbit_shape_operator(spec: PolarActionSpec, p, xi) -> OrbitData:
    """Orbit shape data S_xi at p; xi must be unit and normal to the orbit."""
    sp = spec.space
    z = p.rep if isinstance(p, AmbientPoint) else np.asarray(p, dtype=complex)
    xi = np.asarray(xi.vec if isinstance(xi, AmbientTangent) else xi, dtype=complex)
    geo = orbit_geometry(spec, z)
    if abs(sp.norm(xi) - 1.0) > 1e-6:
        raise GeometryError("xi must be a unit vector")
    tang = max(abs(sp.g(xi, geo.basis[0])), abs(sp.g(xi, geo.basis[1])))
    if tang > 1e-6:
        raise GeometryError("xi is not normal to the orbit")
    s = geo.shape_matrix(xi)
    s = 0.5 * (s + s.T)
    (alpha, beta), vecs = _eig2(s)
    dirs = np.stack([vecs[0, 0] * geo.basis[0] + vecs[1, 0] * geo.basis[1],
                     vecs[0, 1] * geo.basis[0] + vecs[1, 1] * geo.basis[1]])
    jxi = 1j * xi
    a = abs(sp.g(jxi, dirs[0]))
    b = abs(sp.g(jxi, dirs[1]))
    jxi_tangency = float(sp.norm(jxi - sp.g(jxi, geo.basis[0]) * geo.basis[0]
                                 - sp.g(jxi, geo.basis[1]) * geo.basis[1]))
    h_normality = float(max(abs(sp.g(geo.mean_curvature, geo.basis[0])),
                            abs(sp.g(geo.mean_curvature, geo.basis[1]))))
    point = p if isinstance(p, AmbientPoint) else AmbientPoint(sp, z)
    return OrbitData(
        point=point,
        tangent_basis=geo.basis,
        xi=xi,
        shape=s,
        mean_curvature_vector=AmbientTangent(point, geo.mean_curvature),
        orbit_principal_curvatures=(float(alpha), float(beta)),
        principal_directions=dirs,
        hopf_components=(float(a), float(b)),
        residuals={
            "hopf_norm": float(a * a + b * b - 1.0),
            "jxi_tangency": jxi_tangency,
            "mean_curvature_normality": h_normality,
        },
    )


def mean_curvature_field(spec: PolarActionSpec, q) -> AmbientTangent:
    """Mean curvature vector of the orbit through section coordinates q."""
    z = spec.section.point(np.asarray(q, dtype=float))
    geo = orbit_geometry(spec, z)
    return AmbientTangent(AmbientPoint(spec.space, z), geo.mean_curvature)


# -- the Hopf obstruction Phi -------------------------------------------------


def rotate90(spec: PolarActionSpec, z, w):
    """+90 degree rotation of a section-tangent vector in the chart orientation."""
    f1, f2 = spec.section.tangent_frame(z)
    sp = spec.space
    return -sp.g(w, f2)[..., None] * f1 + sp.g(w, f1)[..., None] * f2


def phi_profile(spec: PolarActionSpec, p, thetas):
    """Phi(w(theta)) for w = cos(theta) f1 + sin(theta) f2 at a section point."""
    sp = spec.space
    z = p.rep if isinstance(p, AmbientPoint) else np.asarray(p, dtype=complex)
    geo = orbit_geometry(spec, z)
    f1, f2 = spec.section.tangent_frame(z)
    thetas = np.asarray(thetas, dtype=float)
    ct, st = np.cos(thetas), np.sin(thetas)
    # S_xi is linear in xi; precontract II against the frame normals
    p1, p2 = geo.shape_matrix(f1), geo.shape_matrix(f2)
    jf1 = np.array([sp.g(1j * f1, geo.basis[0]), sp.g(1j * f1, geo.basis[1])])
    jf2 = np.array([sp.g(1j * f2, geo.basis[0]), sp.g(1j * f2, geo.basis[1])])
    # xi_w = -sin f1 + cos f2, w = cos f1 + sin f2
    s_mat = -st[:, None, None] * p1 + ct[:, None, None] * p2      # (n, 2, 2)
    jxi = -st[:, None] * jf1 + ct[:, None] * jf2                  # (n, 2)
    jw = ct[:, None] * jf1 + st[:, None] * jf2
    return np.einsum("nab,nb,na->n", s_mat, jxi, jw)


def phi_map(spec: PolarActionSpec, p, w) -> float:
    """Phi(w) = <S_{xi_w} J xi_w, J w> for a unit section-tangent w at p."""
    sp = spec.space
    z = p.rep if isinstance(p, AmbientPoint) else np.asarray(p, dtype=complex)
    wv = w.vec if isinstance(w, AmbientTangent) else np.asarray(w, dtype=complex)
    f1, f2 = spec.section.tangent_frame(z)
    theta = np.arctan2(sp.g(wv, f2), sp.g(wv, f1))
    return float(phi_profile(spec, z, [theta])[0])


def hopf_directions(spec: PolarActionSpec, p, n_samples: int = 720, tol: float = 1e-10,
                    degeneracy_floor: float = 1e-6):
    """Zero set w_p of Phi on the unit circle of the section tangent space.

    Sign-change brackets on a uniform sample refined by bisection. Returns a
    list of dicts with the angle, the unit tangent and the residual |Phi|.
    """
    if n_samples < 90:
        raise GeometryError("n_samples must be at least 90")
    sp = spec.space
    z = p.rep if isinstance(p, AmbientPoint) else np.asarray(p, dtype=complex)
    thetas = np.linspace(0.0, 2.0 * np.pi, n_samples, endpoint=False)
    vals = phi_profile(spec, z, thetas)
    if np.max(np.abs(vals)) < max(tol, degeneracy_floor):
        raise InconclusiveDegeneracyError(
            "Phi is numerically zero on the whole circle; the action data is degenerate")

    f1, f2 = spec.section.tangent_frame(z)

    def phi(theta):
        return float(phi_profile(spec, z, [theta])[0])

    zeros = []
    two_pi = 2.0 * np.pi
    for i in range(n_samples):
        a, b = thetas[i], thetas[(i + 1) % n_samples] + (two_pi if i + 1 == n_samples else 0.0)
        fa, fb = vals[i], vals[(i + 1) % n_samples]
        if fa == 0.0:
            zeros.append((a, 0.0))
            continue
        if fa * fb >= 0.0:
            continue
        lo, hi, flo = a, b, fa
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fm = phi(mid)
            if abs(fm) < tol:
                lo = hi = mid
                break
            if flo * fm < 0:
                hi = mid
            else:
                lo, flo = mid, fm
        root = 0.5 * (lo + hi)
        zeros.append((root % two_pi, abs(phi(root))))
    zeros.sort()
    out = []
    for theta, res in zeros:
        if out and min(abs(theta - out[-1]["theta"]),
                       two_pi - abs(theta - out[-1]["theta"])) < 1e-9:
            continue
        w = np.cos(theta) * f1 + np.sin(theta) * f2
        out.append({"theta": float(theta), "direction": w, "phi": float(res)})
    return out


def killing_field(spec: PolarActionSpec, index: int, p: AmbientPoint) -> AmbientTangent:
    """Killing field of the indexed generator at p."""
    return AmbientTangent(p, spec.killing_vec(index, p.rep))
