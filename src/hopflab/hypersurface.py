"""Extrinsic analysis of parametrized real hypersurfaces.

A patch is a batched chart ``params (N,3) -> representatives (N,3)`` over a
rectangular box. The unit normal xi at a point comes from one Hermitian
cross product: e1 = v1/|v1| and e2, the normalized sig * conj(z x v1),
span the horizontal space over C, and xi is the ordinary cross product of
the coordinates of v2, v3 orthogonal to v1 in that basis. The same call
gives the gram determinant of (v1, v2, v3), and the immersion test
(gram det > IMMERSION_TOL) is the patch's one degeneracy test. Shape
operators come from central differences of that normal (phase-aligned
representatives, horizontally projected), and the classification
predicates (Hopf, austere, Levi-flat, ruled, CMC) are decided at explicit,
reported tolerances.

Everything pointwise about the h = 2 structure comes from one batched
primitive, ``adapted_frames``, over the point axis of a ShapeData. It builds h
and the eigenvalue clusters at once, and each other part on the first read of
one of its fields: the adapted frame {U, V, A} with a, b (positive-projection
conventions), alpha, beta, gamma and the frame-identity residuals; the Levi
scalar and ruled residual. Callers index its arrays at the points they need,
and ``_require_h2`` is the one gate that rejects points where h != 2.

The frame's derivatives come from ``frame_derivative_data`` at an index
array of points (one shape_data call over all displaced points), and
``d_invariants`` reduces them to the strongly 2-Hopf D-invariants shared by
classify, the certifier and the connection suite. The checks of the h = 2
theory are batched over points too: ``verify_connection_formulas`` reads one
frame_derivative_data output, ``levi_form`` and ``hopf_cmc_relation_check``
read a ShapeData, and ``bracket_by_flows`` runs its two commutator loops as
lanes of one flow.

Every difference of representatives goes through the batched
SpaceForm.central_difference: the coordinate velocities and the normal's
derivative directly, the covariant derivatives of tangent fields (the frame
connection nabla_X Y, the nested Gauss-Codazzi stencils) through
SpaceForm.covariant_difference, with each stencil gathered into one chart
call. The nested stencils (p + o_a) + o_b of shape_data and
verify_gauss_codazzi evaluate only their 31 distinct points per centre (of
49) and gather the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .ambient import GeometryError, SpaceForm, cross3, rk4_step

TAU_MULT = 1e-4       # eigenvalue clustering, relative to spectrum spread
TAU_PROJ = 1e-4       # Hopf projection threshold
IMMERSION_TOL = 1e-10
BRACKET_STEP = 1e-3    # flow time of bracket_by_flows' commutator loop
BRACKET_RK_STEPS = 2   # RK4 steps per flow leg of that loop

DEFAULT_TOLERANCES = {
    "tau_mult": TAU_MULT,
    "tau_proj": TAU_PROJ,
    "integrable": 1e-5,
    "spectrum_constancy": 1e-4,
    "austere": 1e-3,
    "levi_flat": 1e-3,
    "ruled": 1e-4,
}


class ImmersionError(GeometryError):
    """Coordinate velocities degenerate at the requested parameters."""


class FrameError(GeometryError):
    """Adapted frame unavailable (h != 2 or unresolved clusters)."""


@dataclass(eq=False)
class HypersurfacePatch:
    """Parametrized hypersurface patch with a finite-difference scheme.

    ``chart`` works row by row: row i of chart(P) depends only on row i of P,
    bit for bit. The stencils rely on this when they evaluate each distinct
    point of a nested stencil once, in one batch, and gather the rest.
    """

    space: SpaceForm
    chart: Callable[[np.ndarray], np.ndarray]   # (N, 3) params -> (N, 3) reps
    box: tuple                                   # ((t0,t1), (a0,a1), (b0,b1))
    # 1e-4 balances O(h^2) truncation against the eps/h^2 noise of the
    # nested normal-field differences
    diff_step: float = 1e-4
    orientation: float = 1.0

    def eval(self, params):
        params = np.asarray(params, dtype=float)
        flat = params.reshape(-1, 3)
        out = self.chart(flat)
        return out.reshape(params.shape[:-1] + (3,))

    def grid(self, shape, margin=0.0):
        """Uniform parameter grid of the given shape inside the box."""
        axes = []
        for (lo, hi), n in zip(self.box, shape):
            pad = margin * (hi - lo)
            axes.append(np.linspace(lo + pad, hi - pad, n))
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def contains(self, params):
        params = np.atleast_2d(np.asarray(params, dtype=float))
        # written as "inside" so that NaN and +-inf read as outside
        return all(np.all((params[:, k] >= lo - 1e-9) & (params[:, k] <= hi + 1e-9))
                   for k, (lo, hi) in enumerate(self.box))


# -- frames: coordinate tangents and the oriented unit normal ----------------


@dataclass(eq=False)
class PointFrames:
    params: np.ndarray   # (N, 3)
    z: np.ndarray        # (N, 3) representatives
    v: np.ndarray        # (N, 3, 3) coordinate velocities v[n, k]
    xi: np.ndarray       # (N, 3) oriented unit normal


def _unit_normal(sp: SpaceForm, z, v, orientation):
    """Oriented unit normal to span{v1, v2, v3} in the horizontal space at z,
    and the gram determinant of (v1, v2, v3).

    The Hermitian cross product (Goldman, Complex Hyperbolic Geometry, 1999)
    gives a unitary basis of the horizontal space: e1 = v1/|v1| and e2 =
    sig * conj(z x v1), normalized, which is Hermitian-orthogonal to z and
    v1. In the real basis (e1, i e1, e2, i e2), v1 = (|v1|, 0, 0, 0), so the
    normal is the cross product (s, p, q) = r2 x r3 of the coordinates
    r_k = (Im<e1,v_k>, Re<e2,v_k>, Im<e2,v_k>) of v2 and v3, read as
    i s e1 + (p + i q) e2, and the volume of (v1, v2, v3) is |v1| |r2 x r3|.
    The sign makes (v1, v2, v3, xi) positively oriented for the complex
    orientation of the horizontal plane; ``orientation`` flips it. Where
    v1 = 0 or the v_k are dependent, xi is NaN and the gram determinant NaN
    or 0, with no floating-point warning.
    """
    v1 = v[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        n1 = sp.norm(v1)
        e1 = v1 / n1[:, None]
        e2 = sp._sig * np.conj(cross3(z, v1))
        e2 = e2 / sp.norm(e2)[:, None]
        a = sp.herm(e1[:, None], v[:, 1:])
        b = sp.herm(e2[:, None], v[:, 1:])
        r = np.stack([a.imag, b.real, b.imag], axis=-1)   # (N, 2, 3): r2, r3
        spq = cross3(r[:, 0], r[:, 1])
        vol = np.linalg.norm(spq, axis=-1)
        xi = 1j * spq[:, :1] * e1 + (spq[:, 1:2] + 1j * spq[:, 2:]) * e2
        xi *= (orientation / vol)[:, None]
    return xi, (n1 * vol) ** 2


def _central_offsets(h):
    """(7, 3) stencil offsets: 0, then +h e_k, -h e_k for k = 0, 1, 2."""
    offsets = np.zeros((7, 3))
    for k in range(3):
        offsets[1 + 2 * k, k] = h
        offsets[2 + 2 * k, k] = -h
    return offsets


def _nested_stencil_layout():
    """Distinct cells of the 7x7 nested stencil (p + o_a) + o_b.

    Adding 0.0 changes no coordinate except -0.0 -> +0.0, and both orders of
    addition do that, so (p + o_a) + 0 equals (p + 0) + o_a and offsets on
    different axes commute bit for bit; same-axis cells (p +- h) +- h do not.
    Returns the (a, b) pairs of the 31 distinct cells, (31, 2), in row-major
    order of first appearance, and the (7, 7) index of each cell into them.
    """
    cells, index = {}, np.empty((7, 7), dtype=int)
    for a in range(7):
        for b in range(7):
            same_axis = a and b and (a - 1) // 2 == (b - 1) // 2
            key = (a, b) if same_axis else (min(a, b), max(a, b))
            index[a, b] = cells.setdefault(key, len(cells))
    return np.array(list(cells)), index


_NESTED_CELLS, _NESTED_INDEX = _nested_stencil_layout()


def _nested_stencil(params, h):
    """(N, 31, 3) distinct points (p + o_a) + o_b of the nested stencil with
    step h; indexing the point axis with _NESTED_INDEX gives the (7, 7) layout."""
    offsets = _central_offsets(h)
    return params[:, None, :] + offsets[_NESTED_CELLS[:, 0]] + offsets[_NESTED_CELLS[:, 1]]


def _finite_params(params):
    """params as an (N, 3) float array; GeometryError unless every entry is finite."""
    params = np.atleast_2d(np.asarray(params, dtype=float))
    if not np.all(np.isfinite(params)):
        raise GeometryError("parameters must be finite numbers")
    return params


def frames_at(patch: HypersurfacePatch, params, zs=None) -> PointFrames:
    """Coordinate velocities and oriented unit normal at each parameter.

    Raises GeometryError on non-finite parameters and ImmersionError where
    the gram determinant of the velocities is at most IMMERSION_TOL. ``zs``
    holds the chart values on each point's central stencil, (N, 7, 3) in
    _central_offsets order, when the caller has already evaluated them.
    """
    sp = patch.space
    params = _finite_params(params)
    h = patch.diff_step
    if zs is None:
        zs = patch.eval(params[:, None, :] + _central_offsets(h)[None, :, :])
    z0 = zs[:, 0]
    zp, zm = zs[:, 1::2], zs[:, 2::2]
    (dz,) = sp.central_difference(z0[:, None], zp, zm, h, (zp, zm))
    v = sp.project_horizontal(z0[:, None], dz)   # v[n, k]
    xi, gram = _unit_normal(sp, z0, v, patch.orientation)
    bad = ~(gram > IMMERSION_TOL)   # NaN where v1 = 0
    if np.any(bad):
        raise ImmersionError(f"immersion fails at params {params[bad][0]} (gram det <= {IMMERSION_TOL})")
    return PointFrames(params=params, z=z0, v=v, xi=xi)


# -- shape operator -----------------------------------------------------------


@dataclass(eq=False)
class ShapeData:
    """Batched second-order data: orthonormal tangents, S, spectrum."""

    space: SpaceForm
    frames: PointFrames
    E: np.ndarray          # (N, 3, 3) orthonormal tangent basis
    S: np.ndarray          # (N, 3, 3) symmetric shape matrix in the E basis
    eigvals: np.ndarray    # (N, 3) descending
    eigvecs: np.ndarray    # (N, 3, 3) ambient eigenvectors, eigvecs[n, i]
    asym: np.ndarray       # (N,) symmetry defect of S before symmetrization

    def take(self, idx) -> "ShapeData":
        """The same data at the points idx."""
        f = self.frames
        frames = PointFrames(params=f.params[idx], z=f.z[idx], v=f.v[idx], xi=f.xi[idx])
        return ShapeData(space=self.space, frames=frames, E=self.E[idx], S=self.S[idx],
                         eigvals=self.eigvals[idx], eigvecs=self.eigvecs[idx],
                         asym=self.asym[idx])


def _gram_schmidt_with_coeffs(sp: SpaceForm, v):
    """Orthonormalize coordinate tangents, tracking E_a = sum_k W[k,a] v_k."""
    n = v.shape[0]
    E = np.empty_like(v)
    W = np.zeros((n, 3, 3))
    for a in range(3):
        vec = v[:, a].copy()
        coef = np.zeros((n, 3))
        coef[:, a] = 1.0
        for b in range(a):
            proj = sp.g(E[:, b], v[:, a])
            vec -= proj[:, None] * E[:, b]
            coef -= proj[:, None] * W[:, :, b]
        nrm = sp.norm(vec)
        E[:, a] = vec / nrm[:, None]
        W[:, :, a] = coef / nrm[:, None]
    return E, W


def shape_data(patch: HypersurfacePatch, params) -> ShapeData:
    """Shape operator, spectrum and eigenvectors at each parameter point.

    The normal field is differenced at the six points p + o_a, so the chart
    is needed on the nested stencil (p + o_a) + o_b: one chart call on its
    31 distinct cells per point, gathered into the stencils of one frames_at
    call at the p and the p + o_a.
    """
    sp = patch.space
    params = _finite_params(params)
    n = params.shape[0]
    h = patch.diff_step
    zs = patch.eval(_nested_stencil(params, h))[:, _NESTED_INDEX]   # (N, a, b, 3)
    # one frames_at call, the base points first, so an ImmersionError names
    # the first failing base point before any displaced one
    displaced = (params[:, None, :] + _central_offsets(h)[None, 1:, :]).reshape(-1, 3)
    fr = frames_at(patch, np.concatenate([params, displaced]),
                   np.concatenate([zs[:, 0], zs[:, 1:].reshape(-1, 7, 3)]))
    base = PointFrames(params=fr.params[:n], z=fr.z[:n], v=fr.v[:n], xi=fr.xi[:n])
    xi_d = fr.xi[n:].reshape(n, 6, 3)
    z_d = fr.z[n:].reshape(n, 6, 3)
    (dxi,) = sp.central_difference(base.z[:, None], z_d[:, 0::2], z_d[:, 1::2], h,
                                   (xi_d[:, 0::2], xi_d[:, 1::2]))
    nabla_xi = sp.project_horizontal(base.z[:, None], dxi)   # nabla_{v_k} xi
    E, W = _gram_schmidt_with_coeffs(sp, base.v)
    # S_tilde[k, b] = -g(nabla_{v_k} xi, E_b)
    st = -np.real(sp.herm(nabla_xi[:, :, None, :], E[:, None, :, :]))
    s = np.einsum("nka,nkb->nab", W, st)
    asym = np.abs(s - np.swapaxes(s, 1, 2)).max(axis=(1, 2))
    s = 0.5 * (s + np.swapaxes(s, 1, 2))
    vals, vecs = np.linalg.eigh(s)
    vals = vals[:, ::-1]
    vecs = vecs[:, :, ::-1]
    ambient = np.einsum("nai,nak->nik", vecs, E)   # (N, i, 3)
    return ShapeData(space=sp, frames=base, E=E, S=s, eigvals=vals, eigvecs=ambient, asym=asym)


# -- spectrum, clusters, adapted frames --------------------------------------


def _require_h2(h):
    """Raise FrameError at the first entry of h that is not 2."""
    bad = h[h != 2]
    if len(bad):
        raise FrameError(f"adapted frame needs h = 2, found h = {bad[0]}")


@dataclass(eq=False)
class AdaptedFrames:
    """The h = 2 structure at every point of a ShapeData (leading point axis).

    The cluster part (h, labels, coords, norms, mask, xi) is built with it;
    the frame part (U, V, A, a, b, alpha, beta, gamma, residuals, NaN where
    h != 2) and the Levi part (levi, ruled) each from ``sd`` on the first
    read of one of its fields, so no caller may write into sd's arrays.
    """

    sd: ShapeData
    h: np.ndarray          # (N,) number of clusters onto which J xi projects
    labels: np.ndarray     # (N, 3) cluster index of each eigenvalue, 0 at the top
    coords: np.ndarray     # (N, 3) J xi coordinates on the eigenvectors
    norms: np.ndarray      # (N, 3) norm of the J xi projection on each cluster
    mask: np.ndarray       # (N,) h == 2
    xi: np.ndarray         # (N, 3)

    @cached_property
    def _frame(self):
        """The frame part by field name: U, V, A (N, 3), a, b, alpha, beta,
        gamma (N,) and residuals (identity name -> (N,))."""
        sd, sp = self.sd, self.sd.space
        k = np.flatnonzero(self.mask)
        lab, vk, xk = self.labels[k], sd.eigvals[k], self.xi[k]
        gk = vk[:, :-1] - vk[:, 1:]
        proj = self.norms[k] > TAU_PROJ

        def cluster(c):
            inside = lab == c[:, None]
            # a contiguous cluster is isolated by the smaller of its boundary gaps
            iso = np.min(np.where(inside[:, :-1] != inside[:, 1:], gk, np.inf), axis=1)
            mean = np.add.reduce(np.where(inside, vk, 0.0), axis=1) / inside.sum(axis=1)
            return inside, iso, mean

        in_a, iso_a, alpha = cluster(np.argmax(proj, axis=1))
        in_b, iso_b, beta = cluster(2 - np.argmax(proj[:, ::-1], axis=1))
        terms = self.coords[k, :, None] * sd.eigvecs[k]             # c_i e_i
        full = terms[:, 0] + terms[:, 1] + terms[:, 2]
        # J xi has no component outside the two projected clusters, so the
        # second vector is the complement of the better-isolated projection:
        # this stays well conditioned when the third eigenvalue nearly crosses
        # one of the projected ones.
        first = iso_a >= iso_b
        part = np.where(np.where(first[:, None], in_a, in_b)[..., None], terms, 0)
        part = part[:, 0] + part[:, 1] + part[:, 2]
        uvec = np.where(first[:, None], part, full - part)
        vvec = np.where(first[:, None], full - part, part)
        a, b = sp.norm(uvec), sp.norm(vvec)
        ac, bc = a[:, None], b[:, None]
        U, V = uvec / ac, vvec / bc
        A = -(1j * U + ac * xk) / bc
        # gamma from the quadratic form; robust when gamma's cluster merged
        acoords = sp.g(A[:, None, :], sd.E[k])
        gamma = np.matmul(np.matmul(acoords[:, None, :], sd.S[k]), acoords[:, :, None])[:, 0, 0]
        residuals = {
            "frame_jxi": sp.norm(1j * xk - ac * U - bc * V),
            "frame_ju": sp.norm(1j * U + bc * A + ac * xk),
            "frame_jv": sp.norm(1j * V - ac * A + bc * xk),
            "frame_ja": sp.norm(1j * A - bc * U + ac * V),
            "a2b2": np.abs(a * a + b * b - 1.0),
            "A_unit": np.abs(sp.norm(A) - 1.0),
        }

        def scatter(x):
            out = np.full((len(self.h),) + x.shape[1:], np.nan, dtype=x.dtype)
            out[k] = x
            return out

        return dict(U=scatter(U), V=scatter(V), A=scatter(A), a=scatter(a), b=scatter(b),
                    alpha=scatter(alpha), beta=scatter(beta), gamma=scatter(gamma),
                    residuals={key: scatter(r) for key, r in residuals.items()})

    @cached_property
    def _levi(self):
        """The Levi part: levi, (N,) L(X, X) for the unit X of the complex
        distribution, and ruled, (N,) the larger part of S X, S JX orthogonal to J xi."""
        sd, sp = self.sd, self.sd.space
        jxi = 1j * self.xi
        # unit X orthogonal to J xi, from the E_a with the largest such part;
        # (X, JX) spans the complex distribution
        cands = sd.E - sp.g(sd.E, jxi[:, None, :])[..., None] * jxi[:, None, :]
        cn = sp.norm(cands)
        best = np.argmax(cn, axis=1)
        rows = np.arange(len(cn))
        x = cands[rows, best] / cn[rows, best, None]
        X = np.stack([x, 1j * x], axis=1)
        SX = _apply_shape(sd, X)
        levi = sp.g(SX, X)
        normal = SX - sp.g(SX, jxi[:, None, :])[..., None] * jxi[:, None, :]
        return {"levi": levi[:, 0] + levi[:, 1], "ruled": np.max(sp.norm(normal), axis=1)}

    U, V, A, a, b, alpha, beta, gamma, residuals = (
        property(lambda self, key=key: self._frame[key])
        for key in ("U", "V", "A", "a", "b", "alpha", "beta", "gamma", "residuals"))
    levi, ruled = (property(lambda self, key=key: self._levi[key]) for key in ("levi", "ruled"))

    @property
    def worst_residual(self):
        """(N,) largest frame-identity residual, NaN where h != 2."""
        return np.max(list(self.residuals.values()), axis=0)


def _apply_shape(sd: ShapeData, u):
    """S u for tangent vectors u of shape (N, k, 3) at the N points of sd."""
    coords = sd.space.g(u[:, :, None, :], sd.E[:, None])
    out = np.matmul(sd.S[:, None], coords[..., None])[..., 0]
    return np.einsum("nka,nal->nkl", out, sd.E)


def adapted_frames(sd: ShapeData) -> AdaptedFrames:
    """h, and on first read the adapted frame and Levi/ruled data, at every point of sd.

    Neighbouring eigenvalues share a cluster when their gap is at most
    TAU_MULT * max(spread, 1e-6), so the two gaps of the descending spectrum
    give four cluster patterns; h counts the clusters onto which J xi
    projects with norm above TAU_PROJ. Where h = 2, J xi = a U + b V with U
    on the upper and V on the lower projected cluster.
    """
    n = len(sd.eigvals)
    vals, xi = sd.eigvals, sd.frames.xi
    gaps = vals[:, :-1] - vals[:, 1:]
    thr = TAU_MULT * np.maximum(vals[:, 0] - vals[:, -1], 1e-6)
    labels = np.zeros((n, 3), dtype=int)
    labels[:, 1:] = np.cumsum(gaps > thr[:, None], axis=1)
    coords = sd.space.g(sd.eigvecs, 1j * xi[:, None, :])
    member = labels[:, None, :] == np.arange(3)[:, None]        # (N, cluster, i)
    norms = np.sqrt(np.add.reduce(np.where(member, coords[:, None, :] ** 2, 0.0), axis=-1))
    h = (norms > TAU_PROJ).sum(axis=1)
    return AdaptedFrames(sd=sd, h=h, labels=labels, coords=coords, norms=norms, mask=h == 2,
                         xi=xi)


# -- Levi form ------------------------------------------------------------------


def levi_form(sd: ShapeData, X, Y):
    """(N,) L(X, Y) = <S X, Y> + <S JX, JY> for X, Y (N, 3) in the complex
    distribution at the N points of sd."""
    sp = sd.space
    jxi = 1j * sd.frames.xi
    for u in (X, Y):
        if np.any(np.abs(sp.g(u, jxi)) > 1e-6 * np.maximum(1.0, sp.norm(u))):
            raise GeometryError("Levi form arguments must be orthogonal to J xi")
    sx = _apply_shape(sd, np.stack([X, 1j * X], axis=1))
    return sp.g(sx[:, 0], Y) + sp.g(sx[:, 1], 1j * Y)


# -- directional machinery -----------------------------------------------------


def tangent_param_coords(sd: ShapeData, u):
    """Coordinates c with u = sum_k c_k v_k (solve the Gram system), for
    tangent vectors u of shape (N, k, 3) at the N points of sd."""
    sp = sd.space
    v = sd.frames.v
    g = np.real(sp.herm(v[:, :, None, :], v[:, None, :, :]))
    rhs = sp.g(v[:, None, :, :], u[:, :, None, :])
    return np.linalg.solve(g[:, None], rhs[..., None])[..., 0]


# -- classification ------------------------------------------------------------


@dataclass
class ClassificationReport:
    """Grid-level classification with every backing residual."""

    h: int
    hopf: bool
    two_hopf: bool
    strongly_two_hopf: bool
    austere: bool
    levi_flat: bool
    ruled: bool
    mean_curvature: float
    residuals: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "h": self.h,
            "hopf": self.hopf,
            "two_hopf": self.two_hopf,
            "strongly_two_hopf": self.strongly_two_hopf,
            "austere": self.austere,
            "levi_flat": self.levi_flat,
            "ruled": self.ruled,
            "mean_curvature": self.mean_curvature,
            "residuals": {k: (v if isinstance(v, (int, float, str, list)) else float(v))
                          for k, v in sorted(self.residuals.items())},
            "tolerances": dict(sorted(self.tolerances.items())),
        }


FD_FRAME_STEP = 4e-4   # diff step of the twin patch used for frame-field FD
FD_FRAME_SHIFT = 1e-3  # displacement along U, V, A differenced by frame_derivative_data


def frame_derivative_data(patch, sd: ShapeData, idx):
    """Directional derivatives of (alpha, beta, gamma, a, b) and the frame
    fields along U, V, A, plus covariant derivatives nabla_X Y for
    X, Y in {U, V, A}, at the k points idx of sd.

    Returns (AdaptedFrames at idx, scalars name -> (k,), nabla (X, Y) -> (k, 3)).
    The 6 k displaced frames (+-FD_FRAME_SHIFT along U, V, A) come from one
    shape_data call on a coarser-step twin patch, so that the differencing
    amplifies ~1e-9 noise instead of ~1e-8: the eps/h^2 noise of the nested
    normal stencils passes through the eigenvector pipeline and dominates
    second-level derivatives.
    """
    sp = sd.space
    step = FD_FRAME_SHIFT
    base = sd.take(idx)
    af = adapted_frames(base)
    _require_h2(af.h)
    names = ("U", "V", "A")
    dirs = np.stack([af.U, af.V, af.A], axis=1)                      # (k, X, 3)
    shift = step * tangent_param_coords(base, dirs)
    displaced = base.frames.params[:, None, None] + np.stack([shift, -shift], axis=2)
    fd_patch = replace(patch, diff_step=max(patch.diff_step, FD_FRAME_STEP))
    sd_pm = shape_data(fd_patch, displaced.reshape(-1, 3))            # k x (X, +-)
    pm = adapted_frames(sd_pm)
    _require_h2(pm.h)
    diffs = {attr: getattr(pm, attr).reshape(-1, 3, 2)
             for attr in ("alpha", "beta", "gamma", "a", "b")}
    scalars = {f"{name}{attr}": (d[:, x, 0] - d[:, x, 1]) / (2.0 * step)
               for x, name in enumerate(names) for attr, d in diffs.items()}
    # fields[:, x, +-, y]: frame vector Y at the displacement along X
    fields = np.stack([pm.U, pm.V, pm.A], axis=1).reshape(-1, 3, 2, 3, 3)
    z_pm = sd_pm.frames.z.reshape(-1, 3, 2, 1, 3)
    vec = sp.covariant_difference(base.frames.z[:, None, None], dirs[:, None], z_pm[:, :, 0],
                                  fields[:, :, 0], z_pm[:, :, 1], fields[:, :, 1], step)
    xi0 = base.frames.xi[:, None, None, :]
    tang = vec - sp.g(vec, xi0)[..., None] * xi0
    nabla = {(xn, yn): tang[:, x, y] for x, xn in enumerate(names) for y, yn in enumerate(names)}
    return af, scalars, nabla


def d_invariants(sp: SpaceForm, af: AdaptedFrames, scalars, nabla):
    """(k,) integrability |<nabla_U V - nabla_V U, A>| of D = span{U, V} and
    D-spectrum constancy max(|U alpha|, |V alpha|, |U beta|, |V beta|) from
    the output of frame_derivative_data."""
    bracket = nabla[("U", "V")] - nabla[("V", "U")]
    integ = np.abs(sp.g(bracket, af.A))
    spec = np.max(np.abs([scalars[k] for k in ("Ualpha", "Valpha", "Ubeta", "Vbeta")]), axis=0)
    return integ, spec


def classify(patch: HypersurfacePatch, params_grid,
             derivative_subsample=8) -> ClassificationReport:
    """Evaluate the classification predicates over a parameter grid."""
    tols = dict(DEFAULT_TOLERANCES)
    params_grid = _finite_params(params_grid)
    if not len(params_grid):
        raise GeometryError("empty classification grid")
    if not patch.contains(params_grid):
        raise GeometryError("classification grid leaves the parameter box")
    sd = shape_data(patch, params_grid)
    af = adapted_frames(sd)
    hs, levi, ruled_res = af.h, af.levi, af.ruled
    traces = sd.eigvals.sum(axis=1)
    vals = sd.eigvals
    austere_res = np.where(af.mask, np.maximum(np.abs(af.alpha + af.beta), np.abs(af.gamma)),
                           np.maximum(np.abs(vals[:, 0] + vals[:, 2]), np.abs(vals[:, 1])))
    frame_res = np.where(af.mask, af.worst_residual, 0.0)
    # directional data on a deterministic subsample of h=2 points
    idx2 = np.flatnonzero(af.mask).tolist()
    take = idx2[:: max(1, len(idx2) // derivative_subsample)] if idx2 else []
    integ = spec_const = 0.0
    if take:
        integ, spec_const = (float(np.max(x)) for x in d_invariants(
            sd.space, *frame_derivative_data(patch, sd, take)))
    h_counts = {int(k): int((hs == k).sum()) for k in sorted(set(hs.tolist()))}
    h_mode = max(h_counts, key=lambda k: (h_counts[k], -k))
    all_h1 = bool(np.all(hs == 1))
    all_h2 = bool(np.all(hs == 2))
    two_hopf = all_h2 and integ < tols["integrable"]
    strongly = two_hopf and spec_const < tols["spectrum_constancy"]
    levi_flat = bool(np.max(np.abs(levi)) < tols["levi_flat"])
    ruled = bool(np.max(ruled_res) < tols["ruled"]) and levi_flat
    austere = bool(np.max(austere_res) < tols["austere"])
    spread = float(traces.max() - traces.min())
    report = ClassificationReport(
        h=int(h_mode),
        hopf=all_h1,
        two_hopf=two_hopf,
        strongly_two_hopf=strongly,
        austere=austere,
        levi_flat=levi_flat,
        ruled=ruled,
        mean_curvature=float(np.mean(traces)),
        residuals={
            "h_counts": [[k, v] for k, v in sorted(h_counts.items())],
            "integrability": integ,
            "spectrum_constancy_D": spec_const,
            "austere": float(np.max(austere_res)),
            "levi_sup": float(np.max(np.abs(levi))),
            "ruled": float(np.max(ruled_res)),
            "mean_curvature_spread": spread,
            "shape_asymmetry": float(np.max(sd.asym)),
            "frame_identities": float(np.max(frame_res)),
            "derivative_points": len(take),
        },
        tolerances=tols,
    )
    return report


# -- CMC / Hopf relation -------------------------------------------------------


def hopf_cmc_relation_check(sd: ShapeData):
    """(N,) |2 alpha (beta+gamma) - 4 beta gamma + c| at the Hopf points of sd.

    alpha is the principal curvature of the J xi direction; beta, gamma the
    remaining ones, where alpha repeats for each further eigenvalue of its
    cluster. Raises unless every point is Hopf (h = 1).
    """
    af = adapted_frames(sd)
    if np.any(af.h != 1):
        raise GeometryError("hopf_cmc_relation_check requires Hopf points "
                            f"(h = {af.h[af.h != 1][0]})")
    hopf = af.labels == np.argmax(af.norms, axis=1)[:, None]
    vals = sd.eigvals
    alpha = np.add.reduce(np.where(hopf, vals, 0.0), axis=1) / hopf.sum(axis=1)
    # the eigenvalues outside the Hopf cluster first, the cluster's read as alpha
    order = np.argsort(hopf, axis=1, kind="stable")
    others = np.where(np.take_along_axis(hopf, order, axis=1), alpha[:, None],
                      np.take_along_axis(vals, order, axis=1))
    beta, gamma = others[:, 0], others[:, 1]
    return np.abs(2.0 * alpha * (beta + gamma) - 4.0 * beta * gamma + sd.space.c)


# -- connection and curvature verifiers ----------------------------------------


def _nabla_table_generic(c, fr, s):
    """Prop-style Levi-Civita table for h = 2 with three distinct curvatures."""
    a, b = fr.a, fr.b
    al, be, ga = fr.alpha, fr.beta, fr.gamma
    Ua, Va, Aa = s["Ua"], s["Va"], s["Aa"]
    Ub, Vb, Ab = s["Ub"], s["Vb"], s["Ab"]
    Ual, Val, Aal = s["Ualpha"], s["Valpha"], s["Aalpha"]
    Ube, Vbe, Abe = s["Ubeta"], s["Vbeta"], s["Abeta"]
    Uga, Vga = s["Ugamma"], s["Vgamma"]
    t = {}
    t[("U", "U")] = (0.0, Val / (al - be), -(3 * a * b * c - 4 * Aal) / (4 * (al - ga)))
    t[("U", "V")] = (-Val / (al - be), 0.0,
                     al + (3 * a * a * b * c - 4 * a * Aal) / (4 * b * (al - ga)))
    t[("V", "V")] = (-Ube / (al - be), 0.0, (3 * a * b * c + 4 * Abe) / (4 * (be - ga)))
    t[("V", "U")] = (0.0, Ube / (al - be),
                     -(be + (3 * a * b * b * c + 4 * b * Abe) / (4 * a * (be - ga))))
    t[("A", "U")] = (0.0, ga - Ab / a, Uga / (al - ga))
    t[("U", "A")] = ((3 * a * b * c - 4 * Aal) / (4 * (al - ga)),
                     -(al + (3 * a * a * b * c - 4 * a * Aal) / (4 * b * (al - ga))), 0.0)
    t[("A", "V")] = (-ga + Ab / a, 0.0, Vga / (be - ga))
    t[("V", "A")] = (be + (3 * a * b * b * c + 4 * b * Abe) / (4 * a * (be - ga)),
                     -(3 * a * b * c + 4 * Abe) / (4 * (be - ga)), 0.0)
    t[("A", "A")] = (-Uga / (al - ga), -Vga / (be - ga), 0.0)
    return t


def _nabla_table_strong(c, fr):
    """Levi-Civita table under the strongly 2-Hopf conditions."""
    a, b = fr.a, fr.b
    al, be, ga = fr.alpha, fr.beta, fr.gamma
    q = c / (4 * (al - be))
    puu = -b * (c - 4 * al * (al - be)) / (4 * a * (al - be))
    pvv = -a * (c + 4 * be * (al - be)) / (4 * b * (al - be))
    w = c * (be - ga) / (4 * (al - be) ** 2) - c * (a * a - 2 * b * b) / (4 * (al - be))
    t = {}
    t[("U", "U")] = (0.0, 0.0, puu)
    t[("V", "U")] = (0.0, 0.0, q)
    t[("U", "V")] = (0.0, 0.0, q)
    t[("V", "V")] = (0.0, 0.0, pvv)
    t[("U", "A")] = (-puu, -q, 0.0)
    t[("V", "A")] = (-q, -pvv, 0.0)
    t[("A", "U")] = (0.0, w, 0.0)
    t[("A", "V")] = (-w, 0.0, 0.0)
    t[("A", "A")] = (0.0, 0.0, 0.0)
    return t


def _derivative_identities_generic(c, fr, s):
    """(lhs, rhs terms) per identity; residuals are scaled by the term sizes
    because several right-hand sides cancel heavily when b is small."""
    a, b = fr.a, fr.b
    al, be, ga = fr.alpha, fr.beta, fr.gamma
    out = {}
    out["Ua"] = (s["Ua"], [b * s["Valpha"] / (al - be)])
    out["Va"] = (s["Va"], [b * s["Ubeta"] / (al - be)])
    out["Aa"] = (s["Aa"], [-b * s["Ab"] / a])
    out["Ub"] = (s["Ub"], [-a * s["Valpha"] / (al - be)])
    out["Vb"] = (s["Vb"], [-a * s["Ubeta"] / (al - be)])
    out["Vgamma"] = (s["Vgamma"], [a * (ga - be) * s["Ugamma"] / (b * (al - ga))])
    aal = s["Aalpha"]
    out["Ab"] = (s["Ab"], [
        a * ga,
        a * c * (a * a - 2 * b * b) / (4 * (al - be)),
        -3 * a ** 3 * c * (be - ga) / (4 * (al - be) * (al - ga)),
        -al * a * (be - ga) / (al - be),
        a * a * (be - ga) / (b * (al - be) * (al - ga)) * aal,
    ])
    out["Abeta"] = (s["Abeta"], [
        -3 * a * b * c / 4,
        -a * be * (be - ga) / b,
        -a * c * (be - ga) / (4 * b * (al - ga)),
        -a * al * (be - ga) ** 2 / (b * (al - ga)),
        -3 * a ** 3 * c * (be - ga) ** 2 / (4 * b * (al - ga) ** 2),
        a * a * (be - ga) ** 2 / (b * b * (al - ga) ** 2) * aal,
    ])
    return out


def _derivative_identities_strong(c, fr, s):
    a, b = fr.a, fr.b
    al, be, ga = fr.alpha, fr.beta, fr.gamma
    out = {}
    out["Aalpha"] = (s["Aalpha"], [al * b * (al - ga) / a,
                                   b * c * (al - ga) / (4 * a * (be - al)),
                                   3 * a * b * c / 4])
    out["Abeta"] = (s["Abeta"], [-be * a * (be - ga) / b,
                                 -a * c * (be - ga) / (4 * b * (al - be)),
                                 -3 * a * b * c / 4])
    out["Ab"] = (s["Ab"], [a * c * (a * a - 2 * b * b) / (4 * (al - be)),
                           -a * c * (be - ga) / (4 * (al - be) ** 2),
                           a * ga])
    for name in ("Ualpha", "Valpha", "Ubeta", "Vbeta", "Ugamma", "Vgamma",
                 "Ua", "Va", "Ub", "Vb"):
        out[name] = (s[name], [0.0])
    return out


def verify_connection_formulas(sd: ShapeData, derivs, mode: str) -> dict:
    """Compare the numeric Levi-Civita connection against the h = 2 tables
    at every point of sd.

    ``derivs`` is the output of frame_derivative_data at all N points of sd,
    in order. mode: "generic" (three distinct curvatures) or "strong"
    (strongly 2-Hopf); any other mode raises GeometryError. Residuals are
    (N,) arrays. The generic table is skipped, with NaN residuals, where two
    principal curvatures lie within 10 TAU_MULT of the spread.
    """
    if mode not in ("generic", "strong"):
        raise GeometryError(f"unknown connection table {mode!r}; choose 'generic' or 'strong'")
    fr, s, nabla = derivs
    if not np.array_equal(fr.xi, sd.frames.xi):
        raise GeometryError("connection data must come from frame_derivative_data "
                            "at every point of the shape data")
    sp, c, vals = sd.space, sd.space.c, sd.eigvals
    spread = np.maximum(vals[:, 0] - vals[:, 2], 1e-6)
    min_gap = np.minimum(vals[:, 0] - vals[:, 1], vals[:, 1] - vals[:, 2])
    skipped = (min_gap < 10 * TAU_MULT * spread) & (mode == "generic")
    with np.errstate(divide="ignore", invalid="ignore"):   # only skipped points divide by ~0
        if mode == "strong":
            table, idents = _nabla_table_strong(c, fr), _derivative_identities_strong(c, fr, s)
        else:
            table, idents = _nabla_table_generic(c, fr, s), _derivative_identities_generic(c, fr, s)
        entries = {}
        for (xn, yn), coeffs in table.items():
            rhs = sum(np.asarray(k)[..., None] * e for k, e in zip(coeffs, (fr.U, fr.V, fr.A)))
            entries[f"nabla_{xn}{yn}"] = (sp.norm(nabla[(xn, yn)] - rhs)
                                          / np.maximum(1.0, sp.norm(rhs)))
        identities = {name: np.abs(lhs - sum(terms))
                      / np.maximum(1.0, sum(np.abs(t) for t in terms))
                      for name, (lhs, terms) in idents.items()}
    entries = {k: np.where(skipped, np.nan, v) for k, v in entries.items()}
    identities = {k: np.where(skipped, np.nan, v) for k, v in identities.items()}
    return {"skipped_degenerate": skipped, "entries": entries, "identities": identities,
            "max_entry_residual": np.max(list(entries.values()), axis=0),
            "max_identity_residual": np.max(list(identities.values()), axis=0)}


def bracket_by_flows(patch: HypersurfacePatch, params, x_field, y_field):
    """[X, Y] at params via the symmetrized commutator of coordinate flows.

    X and Y are the adapted frame fields named x_field and y_field ("U",
    "V" or "A"), read from the shape data of each flow stage. The + and -
    commutator loops run as two lanes of one RK4 flow. Independent of the
    covariant-derivative route; used as its cross-check.
    """
    sd = shape_data(patch, np.atleast_2d(params)[:1])
    p0 = sd.frames.params[0]

    def velocity(name):
        def rhs(_, q):
            sdq = shape_data(patch, q)
            af = adapted_frames(sdq)
            _require_h2(af.h)
            return tangent_param_coords(sdq, getattr(af, name)[:, None])[:, 0]
        return rhs

    # one lane per loop orientation: flow X, Y, -X, -Y by +-BRACKET_STEP
    dt = np.array([[BRACKET_STEP], [-BRACKET_STEP]]) / BRACKET_RK_STEPS
    q = np.stack([p0, p0])
    for name, sign in ((x_field, 1), (y_field, 1), (x_field, -1), (y_field, -1)):
        for _ in range(BRACKET_RK_STEPS):
            q = rk4_step(velocity(name), 0.0, q, sign * dt)
    disp = 0.5 * (q[0] + q[1]) - p0
    coords = disp / (BRACKET_STEP * BRACKET_STEP)
    v = sd.frames.v[0]
    vec = coords[0] * v[0] + coords[1] * v[1] + coords[2] * v[2]
    return sd.space.project_horizontal(sd.frames.z[0], vec)


def verify_gauss_codazzi(patch: HypersurfacePatch, params, rng=None, n_random=20,
                         shape_perturbation=None) -> dict:
    """Residuals of the Gauss and Codazzi equations at one parameter point p.

    With the offsets o = (0, +h e_1, -h e_1, +h e_2, -h e_2, +h e_3, -h e_3),
    the coordinate fields v_k are needed on the 7x7 nested stencil
    (p + o_alpha) + o_beta. Only 31 of its 49 points are distinct (see
    _nested_stencil_layout), so one frames_at call evaluates them there and
    the 7x7 layout is gathered from it. Differencing over beta gives
    nabla_{v_i} v_k at the seven points p + o_alpha; differencing those over
    alpha gives the intrinsic curvature
    R(v_i, v_j) v_k = nabla_{v_i} nabla_{v_j} v_k - nabla_{v_j} nabla_{v_i} v_k
    (coordinate fields commute). One shape_data call at the seven points
    p + o_alpha gives S v_j there, and differencing over alpha gives
    (nabla_{v_i} S) v_j. Every difference is a batched
    SpaceForm.covariant_difference; the ambient curvature uses the closed form.

    The step h is max(10 diff_step, 5e-4), coarser than the patch's
    diff_step: the v_k are themselves diff_step differences of the chart, and
    the two further levels of differencing amplify their rounding noise by
    1/h^2, which a diff_step-sized h would let swamp the O(h^2) truncation.
    ``shape_perturbation`` (a 3x3 symmetric array added to S in the E basis)
    exists for negative controls in tests. A point outside the patch box
    raises GeometryError rather than reading an extrapolated chart.
    """
    sp = patch.space
    rng = np.random.default_rng(0) if rng is None else rng
    params = _finite_params(params)[0]
    if not patch.contains(params):
        raise GeometryError(f"Gauss-Codazzi point {params.tolist()} leaves the parameter box")
    h = max(patch.diff_step * 10, 5e-4)
    fz = frames_at(patch, _nested_stencil(params[None], h)[0])
    z, v, xi = (x[_NESTED_INDEX] for x in (fz.z, fz.v, fz.xi))   # (alpha, beta, ...)
    sd = shape_data(patch, params + _central_offsets(h))   # at p + o_alpha
    z0, xi0 = sd.frames.z[0], sd.frames.xi[0]
    E0 = sd.E[0]
    S = sd.S if shape_perturbation is None else sd.S + np.asarray(shape_perturbation)

    def tangential(vec, normal):
        return vec - sp.g(vec, normal)[..., None] * normal

    def along_axes(w):
        """nabla_{v_i} w at p for a field w[alpha, ...] sampled at p + o_alpha."""
        zs = sd.frames.z.reshape((7,) + (1,) * (w.ndim - 2) + (3,))
        return tangential(sp.covariant_difference(
            z0, w[0], zs[1::2], w[1::2], zs[2::2], w[2::2], h), xi0)

    # nvv[alpha, i, k] = nabla_{v_i} v_k at p + o_alpha
    nvv = tangential(sp.covariant_difference(
        z[:, 0, None, None], v[:, 0, None], z[:, 1::2, None], v[:, 1::2],
        z[:, 2::2, None], v[:, 2::2], h), xi[:, 0, None, None])
    outer = along_axes(nvv)                # nabla_{v_i} nabla_{v_j} v_k
    curv = outer - outer.transpose(1, 0, 2, 3)   # R(v_i, v_j) v_k

    def s_apply(u):
        coords = sp.g(u[..., None, :], E0)
        return np.einsum("...a,ak->...k", coords @ S[0].T, E0)

    # sv[alpha, j] = S v_j at p + o_alpha
    coords = sp.g(sd.frames.v[:, :, None, :], sd.E[:, None, :, :])
    sv = np.einsum("njb,nab,nak->njk", coords, S, sd.E)
    nabla_s = along_axes(sv) - s_apply(nvv[0])   # (nabla_{v_i} S) v_j

    ci, cj, ck, cl = np.moveaxis(rng.standard_normal((n_random, 4, 3)), 1, 0)
    v0 = sd.frames.v[0]
    X, Y, Z, Wv = ci @ v0, cj @ v0, ck @ v0, cl @ E0
    nx, ny, nz, nw = (np.maximum(sp.norm(u), 1e-9) for u in (X, Y, Z, Wv))
    rbar = sp.curvature(X, Y, Z)
    # Codazzi: <Rbar(X,Y)Z, xi> = <(nabla_X S)Y - (nabla_Y S)X, Z>
    nsxy = np.einsum("ri,rj,ijk->rk", ci, cj, nabla_s - nabla_s.transpose(1, 0, 2))
    codazzi = np.abs(sp.g(rbar, xi0) - sp.g(nsxy, Z)) / (nx * ny * nz)
    # Gauss: <Rbar(X,Y)Z, W> = <R(X,Y)Z, W> + <SX,Z><SY,W> - <SX,W><SY,Z>
    rint = np.einsum("ri,rj,rk,ijkl->rl", ci, cj, ck, curv)
    sx, sy = s_apply(X), s_apply(Y)
    grhs = sp.g(rint, Wv) + sp.g(sx, Z) * sp.g(sy, Wv) - sp.g(sx, Wv) * sp.g(sy, Z)
    gauss = np.abs(sp.g(rbar, Wv) - grhs) / (nx * ny * nz * nw)
    return {"gauss": float(np.max(gauss, initial=0.0)),
            "codazzi": float(np.max(codazzi, initial=0.0)),
            "params": params.tolist(), "step": h}
