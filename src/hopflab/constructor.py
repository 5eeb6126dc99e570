"""Equivariant construction of hypersurfaces from curves in a polar section.

A unit-speed curve sigma with prescribed geodesic curvature (CMC, Levi-flat,
geodesic) is integrated inside the section together with its Frenet normal,
then swept by the two-parameter group into a patch H.sigma. Certification
routines check the strongly-2-Hopf structure, CMC / Levi-flat targets and the
austere search of the classification theorems.

The curve state (z, w, xi) obeys the exact model equations

    z' = w,   w' = gamma(t) xi - z/kappa,   xi' = -gamma(t) w,

valid because sections are totally geodesic and totally real; gamma is the
law's target curvature evaluated on the orbit data at the current point.

A curve's launches run as lanes of one batch in the section's real frame,
z = D x (see ``actions``), and its rows stay real: D x is taken, by
``PolarActionSpec.from_frame``, only at the chart and the scene. One lane
loop, ``_lane_loop``, advances the lanes by a row rule: ``_GaussRows``
collocates a law that reads the orbit data (CMC, Levi-flat), and
``_GeodesicRows`` writes a pregeodesic law's (gamma = 0) geodesic in
closed form. Either rule reads its rows' regularity and orbit columns from
one ``_curve_columns`` call and returns the columns with the rows, so a
launched curve is built from its lanes and evaluates nothing again. A lane
stops, while the others go on, at its first point that is non-finite, not
regular or turned too far, or at its first step that does not converge.
Given an alignment tolerance, the loop also rejects a launch at its first
row misaligned with the orbit mean-curvature field. ``_curve_columns`` is
the one place where orbit invariants become a curve's columns; the scene
loader builds its curve from its rows through it (``curve_from_rows``).
``integrate_sigma`` runs the two sides of a curve as two lanes;
``austere_search`` runs all its launches as one batch.

A swept patch has two routes to its shape data. ``equivariant_shape_data``
builds it exactly from the curve and its orbits (the section is totally
geodesic and meets the orbits orthogonally, so S is g_* of gamma (+) S_xi)
at 7 chart points per point; ``hypersurface.shape_data`` differences the
chart's normal at 31. The certificate's h-grid and the mesh CSV read the
exact route; on that grid the certificate still tests the chart itself, at
first order, by the tilt of its velocities off the exact tangent spaces
(``chart_tilt``). The finite-difference route stays wherever the built
chart itself is the thing tested, where exact data would only restate the
law: the certificate's derivative sample, which also reports its gap to
the exact data (fd_exact_gap), the Levi-flat/CMC certificate, ``classify``
and the verify suites.

The chart sweeps the curve's quintic interpolant, not its rows, so the
certificate also measures how far that curve leaves its law between the
rows: ``curve_defect``, the miss of its curvature at each step's Gauss
points and midpoint. The interpolant's second derivative carries the
collocation's order-4 error of the rows' velocities divided by the step,
so the miss is of order 3 in the step. It is what shows a step fine enough
for its law, so a step too coarse fails the certificate by name. The
``construct`` default step, 1.6e-3, keeps it under half its bound on the
benchmark's launches; ``DEFAULT_STEP`` (1e-3), the step of the austere
search and of ``integrate_sigma`` by default, under a seventh of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels as kernels
from .actions import (
    FRAME_TOL,
    PolarActionSpec,
    SingularOrbitError,
    _orbit_body,
    _orbit_invariants,
    orbit_geometry,
    rotate90,
)
from .ambient import GeometryError, SpaceForm, cross3
from .hypersurface import (
    DEFAULT_TOLERANCES,
    FrameError,
    HypersurfacePatch,
    PointFrames,
    ShapeData,
    adapted_frames,
    d_invariants,
    frame_derivative_data,
    frames_at,
    shape_data,
)

DEFAULT_STEP = 1e-3
# the points of one orbit evaluation of the section-curve layer: the curve
# columns built from rows take one ``_curve_columns`` call per ORBIT_BATCH
# rows, and a block of closed-form pregeodesic rows holds about ORBIT_BATCH
# points over its live lanes. The cap bounds the memory of a call.
ORBIT_BATCH = 800
# the fewest rows per block of the closed-form pregeodesic lanes: a block
# evaluates one point per row of each live lane, and a lane that stops early
# wastes at most one block
ROW_BLOCK = 16
# the t-span of a window of the collocation lanes, round(GAUSS_SPAN / step)
# rows and at least one, and the Picard iterations a window may take before
# its unconverged lanes stop. Picard iterations grow with a window's t-span,
# not its row count, so the span is fixed whatever the step. A lane has
# converged once no row moves by PICARD_TOL relative to max(1, its largest
# entry), or once its largest such move stops shrinking below PICARD_FLOOR:
# far out in CH^2 the rounding of the orbit data, which grows with the
# representatives, sets a floor above PICARD_TOL.
GAUSS_SPAN = 0.2
PICARD_ITERATIONS = 100
PICARD_TOL = 1e-12
PICARD_FLOOR = 1e-8
# the most a collocation step may turn the Frenet frame, h |gamma| radians:
# rows more than a half-turn apart no longer sample the curve they follow
MAX_STEP_TURN = np.pi
# 2-stage Gauss-Legendre: the coefficient matrix, then the weights of a
# step's slopes in its propagator and its two nodes
_GAUSS_A = np.array([[0.25, 0.25 - np.sqrt(3) / 6], [0.25 + np.sqrt(3) / 6, 0.25]])
_GAUSS_WEIGHTS = np.array([[0.5, 0.5], *_GAUSS_A])
# why a lane stops, by the cause code a row rule reports for its first failing step
STOP_REASONS = ("left the regular set after {} steps", "non-finite state",
                "collocation did not converge after {} steps",
                "curvature too large for the step after {} steps")
INJECTIVITY_SEPARATION = 1e-6
SWEEP_GRID_CHECK = 5          # the sweep's regularity t-samples and injectivity s-samples per axis
LAW_KINDS = ("geodesic", "cmc", "levi-flat", "austere")

# the largest gap allowed between finite-difference and exact shape data
# (``shape_gap``): the nested stencil at the diff step h = 1.5e-4 of a built
# patch errs by C h^2 of truncation plus about eps / h^2 = 1e-8 of rounding.
# The bound is 450 h^2; the built patches show C up to about 130 (3.0e-6 on
# the seed-3 ch2-torus construct h-grid, 8.3e-7 on the verify cmc patches).
FD_EXACT_GAP = 1e-5
# the largest ``chart_tilt`` allowed: on a chart that realizes its sweep,
# what is left after the truncation allowance is rounding, about
# eps |z| / h = 2e-12 at h = 1.5e-4 (1.7e-12 the largest seen on the built
# patches); the bound is 500 times that. A chart bent by 1 + 1e-5 s1^2
# tilts its orbit velocities by 1.1e-7 or more.
CHART_TILT = 1e-9
# the largest ``curve_defect`` allowed, a tenth of FD_EXACT_GAP: the
# defect is of order 3 in the step. Over the 150 launches of the construct
# benchmark's seeds 1 to 30 the largest is 5.0e-7 at the ``construct``
# default step 1.6e-3 (a ch2-torus CMC curve) and 1.1e-7 at step 1e-3; at
# step 4e-3 it is 7.9e-6, and 22 of the 150 fail. The verify cmc patches
# read at most 2.4e-8, and the ch2-torus CMC curve at step 0.05 reads 1.5e-2.
CURVE_DEFECT = 1e-6
# where ``curve_defect`` reads each step, as fractions of it: the step's two
# Gauss points and its midpoint
DEFECT_TAUS = np.array([0.5 - np.sqrt(3) / 6, 0.5, 0.5 + np.sqrt(3) / 6])
# strongly_2hopf_certify: its fixed tolerances, as every certificate reports
# them, and the size of the derivative subsample
CERTIFY_TOLERANCES = {
    "tau_proj": DEFAULT_TOLERANCES["tau_proj"],
    "tau_mult": DEFAULT_TOLERANCES["tau_mult"],
    "integrable": DEFAULT_TOLERANCES["integrable"],
    "spectrum_constancy": DEFAULT_TOLERANCES["spectrum_constancy"],
    "leaf_flat": 1e-3,
    "leaf_totally_real": 1e-6,
    "nabla_AA": 1e-4,
    "orbit_tangency": 1e-5,
    "chart_tilt": CHART_TILT,
    "fd_exact_gap": FD_EXACT_GAP,
    "curve_defect": CURVE_DEFECT,
}
DERIVATIVE_POINTS = 6
LEVIFLAT_GRID = (10, 4, 4)
LEVIFLAT_TOL = 1e-3

# austere_search: alignment tolerance on |<H, xi>|, the ||H|| below which a
# grid point launches the fan of directions, and the dedupe distance
AUSTERE_TOL = 2e-3
H_FLOOR = 1e-8
DEDUPE_DISTANCE = 5e-2


@dataclass(frozen=True)
class CurveLaw:
    """Target geodesic curvature as a function of the orbit data."""

    kind: str                      # geodesic | cmc | levi-flat | austere
    eta: float = 0.0

    def __post_init__(self):
        if self.kind not in LAW_KINDS:
            raise GeometryError(f"unknown curve law {self.kind!r}")

    @property
    def reads_orbit_data(self):
        """False for the pregeodesic laws, whose target is gamma = 0 everywhere."""
        return self.kind in ("cmc", "levi-flat")

    def target(self, alpha, beta, a, b):
        """Target curvature at arrays of orbit invariants, one value per point."""
        if self.kind == "cmc":
            return self.eta - alpha - beta
        if self.kind == "levi-flat":
            return -b * b * alpha - a * a * beta
        return np.zeros_like(alpha)   # geodesic and austere pregeodesic


@dataclass(eq=False)
class SigmaCurve:
    """Discretized unit-speed curve in the regular part of a section, as real frame rows."""

    spec: PolarActionSpec
    law: CurveLaw
    ts: np.ndarray           # (n,)
    xs: np.ndarray           # (n, 3) points, normalized representatives
    us: np.ndarray           # (n, 3) unit velocities
    vs: np.ndarray           # (n, 3) unit Frenet normals in the section
    gammas: np.ndarray       # (n,) achieved target curvature
    alphas: np.ndarray       # (n,) orbit principal curvature alpha(xi)
    betas: np.ndarray        # (n,)
    hopf_a: np.ndarray       # (n,)
    hopf_b: np.ndarray       # (n,)
    mean_align: np.ndarray   # (n,) <H, xi> along the curve
    step: float = DEFAULT_STEP
    truncation_reason: str = ""   # why a side stopped short of its n_steps rows

    @property
    def truncated(self) -> bool:
        return bool(self.truncation_reason)

    @property
    def space(self) -> SpaceForm:
        return self.spec.space

    zs = property(lambda self: self.spec.from_frame(self.xs), doc="(n, 3) points D xs")
    ws = property(lambda self: self.spec.from_frame(self.us), doc="(n, 3) velocities D us")
    xis = property(lambda self: self.spec.from_frame(self.vs), doc="(n, 3) normals D vs")

    @property
    def accs(self):
        """(n, 3) accelerations gamma vs - xs / kappa of the rows, by the model equations.

        A division by a real is the product with its reciprocal, as NumPy
        divides a complex array.
        """
        return self.gammas[:, None] * self.vs - self.xs * (1.0 / self.space.kappa)

    def interpolant(self):
        """C^2 quintic-Hermite interpolant of the curve's real frame rows.

        ``query(t)`` gives the points; ``query(t, velocity=True)`` gives
        (points, their t-derivatives).
        """
        ts, zs, ws, accs = self.ts, self.xs, self.us, self.accs
        h = ts[1] - ts[0]

        def query(t, velocity=False):
            t = np.asarray(t, dtype=float)
            idx = np.clip(np.floor((t - ts[0]) / h).astype(int), 0, len(ts) - 2)
            tau = (t - ts[idx]) / h
            t2, t3 = tau * tau, tau ** 3
            t4, t5 = tau ** 4, tau ** 5
            h00 = 1 - 10 * t3 + 15 * t4 - 6 * t5
            h10 = tau - 6 * t3 + 8 * t4 - 3 * t5
            h20 = 0.5 * t2 - 1.5 * t3 + 1.5 * t4 - 0.5 * t5
            h01 = 10 * t3 - 15 * t4 + 6 * t5
            h11 = -4 * t3 + 7 * t4 - 3 * t5
            h21 = 0.5 * t3 - t4 + 0.5 * t5
            p0, p1 = zs[idx], zs[idx + 1]
            m0, m1 = ws[idx] * h, ws[idx + 1] * h
            a0, a1 = accs[idx] * h * h, accs[idx + 1] * h * h
            z = (h00[..., None] * p0 + h10[..., None] * m0 + h20[..., None] * a0
                 + h01[..., None] * p1 + h11[..., None] * m1 + h21[..., None] * a1)
            if not velocity:
                return z
            # the basis' tau-derivatives, then d/dt = (d/dtau) / h
            d00 = -30 * t2 + 60 * t3 - 30 * t4
            d10 = 1 - 18 * t2 + 32 * t3 - 15 * t4
            d20 = tau - 4.5 * t2 + 6 * t3 - 2.5 * t4
            d11 = -12 * t2 + 28 * t3 - 15 * t4
            d21 = 1.5 * t2 - 4 * t3 + 2.5 * t4
            dz = (d00[..., None] * (p0 - p1) + d10[..., None] * m0 + d20[..., None] * a0
                  + d11[..., None] * m1 + d21[..., None] * a1)
            return z, dz * (1.0 / h)

        return query

    def nearest_row(self, t):
        """Index of the curve row nearest to each t."""
        rows = np.rint((np.asarray(t, dtype=float) - self.ts[0]) / self.step).astype(int)
        return np.clip(rows, 0, len(self.ts) - 1)


def _curve_columns(spec, law, x, xi):
    """(columns, gram det) of curve rows at points x (3, N) with normals xi (3, N).

    x and xi are real frame coordinates. The columns map gammas, alphas,
    betas, hopf_a, hopf_b and mean_align (<H, xi>) to (N,) arrays, all from
    one ``_orbit_invariants`` call: the one place where orbit invariants
    become curve columns.
    """
    alpha, beta, a, b, mean, det = _orbit_invariants(spec, x, xi)
    return {"gammas": law.target(alpha, beta, a, b), "alphas": alpha, "betas": beta,
            "hopf_a": a, "hopf_b": b, "mean_align": spec.space.g(mean.T, xi.T)}, det


def curve_from_rows(spec, law, step, ts, xs, us, vs, reason):
    """The SigmaCurve of real frame rows xs, us, vs (n, 3) at times ts.

    reason is its truncation reason. The orbit columns come from
    ``_curve_columns``, a call per ORBIT_BATCH rows; every orbit operation
    is pointwise, so they have the bits that the lanes give a launched
    curve's rows. The scene loader builds its curve here.
    """
    return SigmaCurve(spec=spec, law=law, ts=ts, xs=xs, us=us, vs=vs, step=step,
                      truncation_reason=reason, **_batched_columns(spec, law, xs, vs))


def _batched_columns(spec, law, xs, vs):
    """The ``_curve_columns`` columns of points xs with normals vs (n, 3), a call per ORBIT_BATCH."""
    parts = [_curve_columns(spec, law, xs[i:i + ORBIT_BATCH].T, vs[i:i + ORBIT_BATCH].T)[0]
             for i in range(0, len(xs), ORBIT_BATCH)]
    return {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}


def _renorm(sp, y):
    """(x, u, v) (3, 3, B) moved onto <x, x> = kappa with u, v horizontal and orthonormal."""
    x = sp.normalize_rep(y[0].T)
    u = sp.project_horizontal(x, y[1].T)
    u = u * (1.0 / sp.norm(u))[:, None]
    v = sp.project_horizontal(x, y[2].T)
    v = v - sp.g(v, u)[:, None] * u
    v = v * (1.0 / sp.norm(v))[:, None]
    return np.array([x.T, u.T, v.T])


class _GaussRows:
    """Row rule of a law that reads the orbit data: a window spanning GAUSS_SPAN per call.

    The state is real: lane l's rows (x, u, v) form a 3 x 3 matrix S whose
    rows are frame coordinates, and S' = A(gamma) S with
    A = [[0, 1, 0], [-1/kappa, 0, gamma], [0, -gamma, 0]]. Each step is the
    2-stage Gauss-Legendre collocation method (order 4). With gamma fixed
    at the two stage nodes the step is linear: its propagator S -> Phi S
    and its stage points come from one 6 x 6 solve, and the rows of a
    window are prefix products of the propagators. The nodes' gammas are
    found by Picard iteration, at most PICARD_ITERATIONS times, until the
    rows before each lane's first failing node have converged (see
    PICARD_TOL); each iteration reads the orbit data at every node of the
    window in one ``_curve_columns`` call. One more call on the window's
    rows gives their gram det and their orbit columns, which come back as
    row keys. The method keeps <x, x> = kappa and the orthonormality of
    (u, v), so no step renormalizes.

    A lane stops at its first step whose first node, second node or row
    (in that order) is non-finite or not regular, or whose node turns the
    frame by h |gamma| > MAX_STEP_TURN, or at its first step that has not
    converged when the iterations run out. The nodes sample each step's
    inside; they and the rows are the points whose orbit data the rule reads.
    """

    def __init__(self, spec, law, step):
        self.spec, self.law, self.step = spec, law, step
        self.floor = spec.gram_floor()
        # A = A0 + gamma J at each node, so the stage system
        # (I - h a (x) A) [k_1; k_2] = [A_1; A_2] S of the slopes k_i = P_i S
        # is affine in the node gammas: each side is a constant plus
        # (gamma_1, gamma_2) @ its gamma parts
        a0 = np.array([[0.0, 1.0, 0.0], [-1.0 / spec.space.kappa, 0.0, 0.0], [0.0, 0.0, 0.0]])
        j = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
        ones = np.ones((2, 1))
        rows_of_node = [np.diag(e) for e in np.eye(2)]
        self.system = ((np.eye(6) - step * np.kron(_GAUSS_A, a0)).ravel(),
                       np.stack([-step * np.kron(r @ _GAUSS_A, j).ravel() for r in rows_of_node]))
        self.rhs = (np.kron(ones, a0).ravel(),
                    np.stack([np.kron(r @ ones, j).ravel() for r in rows_of_node]))

    def block(self, lanes):
        """Rows per call: the window's, whatever the lanes, since it sets where Picard stops."""
        return max(1, round(GAUSS_SPAN / self.step))

    def _propagate(self, s0, gam):
        """Rows and step maps of a window from its start s0 (L, 3, 3) and node gammas (L, K, 2).

        Returns (rows, starts, maps): the rows after each step and the
        states before it, (L, K, 3, 3), and (L, K, 2, 3, 3) the maps of a
        step's start to its two nodes.
        """
        shape = gam.shape[:2]
        (m0, m_gam), (r0, r_gam) = self.system, self.rhs
        slopes = np.linalg.solve((m0 + gam @ m_gam).reshape(*shape, 6, 6),
                                 (r0 + gam @ r_gam).reshape(*shape, 6, 3))
        maps = np.eye(3) + self.step * (_GAUSS_WEIGHTS @ slopes.reshape(*shape, 2, 9)).reshape(
            *shape, 3, 3, 3)
        # rows: inclusive prefix products of the propagators, log2 K matmuls
        prod = maps[:, :, 0].copy()
        d = 1
        while d < prod.shape[1]:
            prod[:, d:] = prod[:, d:] @ prod[:, :-d]
            d *= 2
        rows = prod @ s0[:, None]
        starts = np.concatenate([s0[:, None], rows[:, :-1]], axis=1)
        return rows, starts, maps[:, :, 1:]

    def start(self, y):
        self.s = y.transpose(2, 0, 1)
        cols, det = _curve_columns(self.spec, self.law, y[0], y[2])
        self.gam = cols["gammas"]
        return det, cols

    def rows(self, keep, i0, i1):
        if keep is not None:
            self.s, self.gam = self.s[keep], self.gam[keep]
        lanes, k = len(self.gam), i1 - i0
        gam = np.repeat(self.gam, 2 * k).reshape(lanes, k, 2)
        last = np.full((lanes, k, 3, 3), np.nan)
        last_worst = np.full(lanes, np.nan)
        settled = np.zeros(lanes, dtype=bool)
        for _ in range(PICARD_ITERATIONS):
            rows, starts, maps = self._propagate(self.s, gam)
            nodes = maps @ starts[:, :, None]                             # (L, K, 2, 3, 3)
            at_nodes, det_nodes = _curve_columns(self.spec, self.law,
                                                 nodes[..., 0, :].reshape(-1, 3).T,
                                                 nodes[..., 2, :].reshape(-1, 3).T)
            new, det_nodes = at_nodes["gammas"].reshape(gam.shape), det_nodes.reshape(gam.shape)
            turned = self.step * np.abs(new) > MAX_STEP_TURN
            # the system is causal: the steps before a lane's first failing
            # node converge whatever the nodes past it hold
            ok = (det_nodes > self.floor) & ~turned
            before = np.logical_and.accumulate(ok.all(axis=2), axis=1)
            # each row's move since the last iteration, relative to its size
            change = np.abs(rows - last).max(axis=(2, 3)) / np.maximum(
                1.0, np.abs(rows).max(axis=(2, 3)))
            worst = np.where(before, change, 0.0).max(axis=1)
            settled |= (worst <= PICARD_TOL) | ((worst >= last_worst) & (worst <= PICARD_FLOOR))
            last, last_worst, gam = rows, worst, new
            if settled.all():
                break
        # an unsettled lane stops at its first row that still moves
        moved = before & ~(change <= PICARD_TOL) & ~settled[:, None]
        cols, det_row = _curve_columns(self.spec, self.law, rows[:, :, 0].reshape(-1, 3).T,
                                       rows[:, :, 2].reshape(-1, 3).T)
        det_row = np.where(np.isfinite(rows).all(axis=(2, 3)), det_row.reshape(lanes, k), np.nan)
        # a step's checks in time order: each point's gram det, and at the
        # nodes the turn; a non-finite point has a NaN gram det
        dets = np.stack([det_nodes[..., 0], det_nodes[..., 1], det_row])
        fail = ~(dets > self.floor)
        fail[:2] |= turned.transpose(2, 0, 1)
        det_first = np.take_along_axis(dets, fail.argmax(axis=0)[None], 0)[0]
        cause = np.where(det_first > self.floor, 3, np.isnan(det_first))
        fail = fail.any(axis=0)
        # a step that has not converged stops its lane unless a check stopped it before
        unconverged = np.flatnonzero(moved.any(axis=1))
        at = moved[unconverged].argmax(axis=1)
        fail[unconverged, at] = True
        cause[unconverged, at] = 2
        stop = np.where(fail.any(axis=1), fail.argmax(axis=1), k)
        self.s, self.gam = rows[:, -1], gam[:, -1, 1]
        new = {**dict(zip(("xs", "us", "vs"), rows.transpose(2, 0, 1, 3))),
               **{key: col.reshape(lanes, k) for key, col in cols.items()}}
        return new, stop, cause


class _GeodesicRows:
    """Row rule of a pregeodesic law (gamma = 0): a block of closed-form rows per call.

    The curve is the ambient geodesic through its start with constant
    Frenet normal: row i at t = i step holds x = C x0 + r S u0,
    w = -eps S x0/r + C u0 and xi = v0, with (C, S) from
    ``SpaceForm.geodesic_coefficients`` at theta = t/r. One
    ``_curve_columns`` call per block gives each row's gram det, which tests
    regularity, and its orbit columns, which come back as row keys. A lane
    stops at its first row that is non-finite or not regular.

    A block holds ORBIT_BATCH // lanes rows of its live lanes, and at least
    ROW_BLOCK, so a call evaluates about ORBIT_BATCH points however many
    lanes are live, and a lane that stops early wastes the rest of its block.
    """

    def __init__(self, spec, law, step):
        self.spec, self.law, self.step = spec, law, step

    def block(self, lanes):
        """Rows per call for ``lanes`` live lanes."""
        return max(ROW_BLOCK, ORBIT_BATCH // lanes)

    def start(self, y):
        self.y = y
        cols, det = _curve_columns(self.spec, self.law, y[0], y[2])
        return det, cols

    def rows(self, keep, i0, i1):
        if keep is not None:
            self.y = self.y[..., keep]
        sp, floor = self.spec.space, self.spec.gram_floor()
        i = np.arange(i0, i1)
        # (3, lanes, K) points at the rows
        x, u, v = self.y[..., None]
        c, s = sp.geodesic_coefficients(i * self.step / sp.radius)
        xs = c * x + sp.radius * s * u
        us = -sp.eps * s * x / sp.radius + c * u
        shape = xs.shape[1:]
        cols, det_row = _curve_columns(self.spec, self.law, xs.reshape(3, -1),
                                       np.broadcast_to(v, xs.shape).reshape(3, -1))
        # the cause code of a row's failure: 1 if non-finite, else 0
        nonfinite = ~(np.isfinite(xs).all(axis=0) & np.isfinite(us).all(axis=0))
        fail = nonfinite | ~(det_row.reshape(shape) > floor)
        stop = np.where(fail.any(axis=1), fail.argmax(axis=1), len(i))
        new = {"xs": xs.transpose(1, 2, 0), "us": us.transpose(1, 2, 0),
               **{key: col.reshape(shape) for key, col in cols.items()}}
        return new, stop, nonfinite


def _lane_loop(spec, rule, x0, u0, v0, n_steps, n_launches, align_tol=None):
    """Rows and orbit columns of B section-curve lanes, advanced in lockstep by one row rule.

    x0, u0, v0 (B, 3) are real frame coordinates of the point, velocity and
    Frenet normal at the start; lane l is a side of launch l % n_launches.
    The start is renormalized, and a start that is not regular raises
    SingularOrbitError. ``rule.start(y)`` gives the start's (gram det,
    columns), the columns a dict of ``_curve_columns`` values per lane; each
    ``rule.rows(keep, i0, i1)`` call gives, for rows i0 to i1 - 1
    (``rule.block(lanes)`` rows for the number of lanes live at i0, fewer at
    the end) of the live lanes (keep masks those of its last call, or is
    None when all of them go on), (rows, accepted row counts, the cause
    code of a step's first failure as an index into STOP_REASONS): rows
    maps xs, us, vs and the columns to arrays per live lane and row, and
    the cause is per live lane and row. A lane stops, with a truncation
    reason, at the first step that leaves the regular set (gram det <=
    ``spec.gram_floor()``) or fails another check of its rule. With
    ``align_tol``, a launch is rejected, and all its lanes stop, at the
    first accepted row of any of its lanes whose |<H, xi>| (the mean_align
    column) is not below align_tol.

    Returns (rows, counts, reasons, rejected): rows maps xs, us and vs
    (real frame coordinates) and the columns to arrays with lane and row
    axes leading, of which lane k holds counts[k] valid rows; an empty
    reason means the lane ran all n_steps; rejected (n_launches,) marks
    rejected launches.
    """
    launch = np.arange(len(x0)) % n_launches
    rejected = np.zeros(n_launches, dtype=bool)
    counts = np.ones(len(x0), dtype=int)
    reasons = [""] * len(x0)

    def misaligned(cols):
        return ~(np.abs(cols["mean_align"]) < align_tol)

    # dying lanes compute with singular or non-finite data; they are masked out
    with np.errstate(all="ignore"):
        y = _renorm(spec.space, np.array([x0.T, u0.T, v0.T]))
        det, cols = rule.start(y)
        if not np.all(det > spec.gram_floor()):
            raise SingularOrbitError("initial point is not regular")
        # every row starts as a copy of the start row; the rule writes the rows after it
        rows = {key: np.repeat(val[:, None], n_steps + 1, axis=1)
                for key, val in (*zip(("xs", "us", "vs"), y.transpose(0, 2, 1)),
                                 *cols.items())}
        if align_tol is not None:
            rejected[launch[misaligned(cols)]] = True
        keep = ~rejected[launch]
        alive = np.flatnonzero(keep)
        i1 = 1
        while len(alive) and i1 <= n_steps:
            i0, i1 = i1, min(i1 + rule.block(len(alive)), n_steps + 1)
            new, stop, cause = rule.rows(keep, i0, i1)
            # a stopped lane's rows land past its count, where no reader looks
            for key, val in new.items():
                rows[key][alive, i0:i1] = val
            keep = None   # every lane goes on: the common case costs one reduction
            if align_tol is not None:
                # the accepted rows that are misaligned reject their launches
                accepted = np.arange(i1 - i0) < stop[:, None]
                rejected[launch[alive[(accepted & misaligned(new)).any(axis=1)]]] = True
                keep = (stop == i1 - i0) & ~rejected[launch[alive]]
            elif stop.min() < i1 - i0:
                keep = stop == i1 - i0
            if keep is not None:
                for j in np.flatnonzero(stop < i1 - i0):
                    reasons[alive[j]] = STOP_REASONS[int(cause[j, stop[j]])].format(i0 + stop[j])
                counts[alive[~keep]] = i0 + stop[~keep]
                alive = alive[keep]
        counts[alive] = n_steps + 1
    return rows, counts, reasons, rejected


def _launch_sigmas(spec, law, x0, u0, step, n_steps, two_sided=True, align_tol=None):
    """One SigmaCurve per launch, in order, run as one lane batch.

    x0: (B, 3) start points and u0: (B, 3) section-tangent directions, both
    in real frame coordinates; u0 is normalized here, and GeometryError is
    raised where the part of the unit u0 tangent to the section at x0 is
    round-off (at most FRAME_TOL) or non-finite. A launch is one lane,
    or two (u0 and -u0) when ``two_sided``. A law that reads the orbit data
    takes the collocation row rule, a pregeodesic law the closed form. With
    ``align_tol``, a launch whose alignment |<H, xi>| fails to stay below
    it stops at that row and its entry is None. Every other launch is built
    from its lanes' rows and orbit columns, which the rule computed
    together, so no curve evaluates its orbit data again.
    """
    if step <= 0:
        raise GeometryError("step must be positive")
    if n_steps < 1:
        raise GeometryError("n_steps must be at least 1")
    sp = spec.space
    with np.errstate(all="ignore"):   # a zero, subnormal or non-finite direction or start warns
        u0 = u0 * (1.0 / sp.norm(u0))[:, None]
        tangent = sp.norm(sp.project_horizontal(sp.normalize_rep(x0), u0))
        v0 = rotate90(spec, x0, u0)
    # a non-finite start is left to the lane loop, which finds it not regular
    if not np.all((np.isfinite(tangent) & (tangent > FRAME_TOL)) | ~np.isfinite(x0).all(axis=1)):
        raise GeometryError("launch direction has no finite part tangent to the section")
    n = len(x0)
    if two_sided:
        x0, u0, v0 = (np.concatenate(pair) for pair in ((x0, x0), (u0, -u0), (v0, v0)))
    rule = (_GaussRows if law.reads_orbit_data else _GeodesicRows)(spec, law, step)
    rows, counts, reasons, rejected = _lane_loop(spec, rule, x0, u0, v0, n_steps, n, align_tol)
    curves = [None] * n
    for k in np.flatnonzero(~rejected):
        back = n + k if two_sided else k
        nf, nb = counts[k], (counts[back] if two_sided else 1)
        # the backward side reversed, less its copy of the t = 0 row, then the forward side
        cols = {key: np.concatenate([val[back, nb - 1:0:-1], val[k, :nf]])
                for key, val in rows.items()}
        cols["us"][:nb - 1] *= -1
        reason = [reasons[k], reasons[back]] if two_sided else [reasons[k]]
        curves[k] = SigmaCurve(spec=spec, law=law, ts=np.arange(1 - nb, nf) * step, step=step,
                               truncation_reason="; ".join(r for r in reason if r), **cols)
    return curves


def integrate_sigma(spec: PolarActionSpec, z0, w0, law: CurveLaw,
                    step: float = DEFAULT_STEP, n_steps: int = 200,
                    two_sided: bool = True) -> SigmaCurve:
    """Integrate the prescribed-curvature curve through z0 with velocity w0.

    z0: representative (3,) of the section point. w0: unit tangent (3,) to
    the section at z0. Both must lie in the section's real frame D.R^3, as
    chart points, their tangent frames and curve rows do; anything else
    raises GeometryError, and a z0 that is not regular SingularOrbitError.
    The Frenet normal starts at the +90 degree rotation of w0 in the chart
    orientation. With ``two_sided`` the curve covers t in
    [-n_steps*step, n_steps*step]; the two sides run as two lanes of one batch.
    """
    return _launch_sigmas(spec, law, spec.frame_coords(z0)[None], spec.frame_coords(w0)[None],
                          step, n_steps, two_sided)[0]


# -- sweeping ------------------------------------------------------------------


@dataclass(eq=False)
class EquivariantHypersurface:
    """H.sigma: the curve swept by the two-parameter group."""

    spec: PolarActionSpec
    sigma: SigmaCurve
    patch: HypersurfacePatch
    s_extent: float

    @property
    def space(self):
        return self.spec.space


def build_hypersurface(spec: PolarActionSpec, sigma: SigmaCurve,
                       s_extent: float = 0.15, t_margin: float = 0.02) -> EquivariantHypersurface:
    """Patch map Psi(t, s1, s2) = exp(s1 G1 + s2 G2) . sigma(t).

    sigma must be regular at SWEEP_GRID_CHECK t-samples; the group is
    abelian, so g carries the Killing fields at z to those at g.z and
    regularity depends on t alone. The s-extent is halved until the s-grid
    images of the middle sample stay pairwise separated (injectivity),
    making the Main Theorem's "epsilon small enough" concrete.
    """
    if len(sigma.ts) < 4:
        stopped = f" (truncated: {sigma.truncation_reason})" if sigma.truncated else ""
        raise GeometryError(f"sigma has {len(sigma.ts)} samples, fewer than the 4 a sweep "
                            f"needs{stopped}")
    sp = spec.space
    interp = sigma.interpolant()
    g1, g2 = spec.generators

    def chart(params):
        # the nested stencils repeat each t many times: interpolate each distinct t once
        first, inverse = kernels.distinct(params[:, 0])
        z = spec.from_frame(interp(params[first, 0]))[inverse]
        return kernels.group_orbit_apply(g1, g2, params[:, 1], params[:, 2], z)

    t_lo = float(sigma.ts[0] + t_margin)
    t_hi = float(sigma.ts[-1] - t_margin)
    if t_hi <= t_lo:
        raise GeometryError(f"sigma spans t in [{sigma.ts[0]:g}, {sigma.ts[-1]:g}], too short "
                            f"for the time margin {t_margin:g} at each end")

    tt = np.linspace(t_lo, t_hi, SWEEP_GRID_CHECK)
    regular = spec.gram_det(interp(tt)) > spec.gram_floor()
    if not regular.all():
        raise GeometryError(f"cannot sweep sigma: it is not regular at t = {tt[regular.argmin()]:g}")
    extent = s_extent
    for _ in range(8):
        box = ((t_lo, t_hi), (-extent, extent), (-extent, extent))
        ss = np.linspace(-extent, extent, SWEEP_GRID_CHECK)
        # injectivity of the sweep on one orbit: pairwise separation of the
        # s-grid images of the middle sample
        mid = np.full((SWEEP_GRID_CHECK ** 2, 3), 0.5 * (t_lo + t_hi))
        mid[:, 1] = np.repeat(ss, SWEEP_GRID_CHECK)
        mid[:, 2] = np.tile(ss, SWEEP_GRID_CHECK)
        pts = chart(mid)
        d = sp.dist(pts[:, None, :], pts[None, :, :])
        np.fill_diagonal(d, np.inf)
        if d.min() > INJECTIVITY_SEPARATION:
            break
        extent *= 0.5
    else:
        raise GeometryError("could not find an injective sweep extent")

    # slightly coarse diff step: the interpolated chart is a touch noisier
    # than closed-form charts, and the S-symmetry invariant wants < 1e-8
    patch = HypersurfacePatch(sp, chart, box, diff_step=1.5e-4)
    # orient the patch normal to match the curve's Frenet normal
    mid_t = 0.5 * (t_lo + t_hi)
    fr = frames_at(patch, np.array([[mid_t, 0.0, 0.0]]))
    i = int(sigma.nearest_row(mid_t))
    u = sp.phase_align(fr.z[0], sigma.zs[i])
    agree = sp.g(fr.xi[0], u * sigma.xis[i])
    if agree < 0:
        patch.orientation = -patch.orientation
    return EquivariantHypersurface(spec=spec, sigma=sigma, patch=patch, s_extent=extent)


def _swept_frame(sigma: SigmaCurve, t):
    """(x, u, T, xi), (M, 3) each, of the curve the chart sweeps at times t (M,).

    x and its velocity u come from the quintic interpolant, T is the unit
    horizontal part of u, and xi the section's cross product of x and T,
    signed like the Frenet normal of the nearest curve row.
    """
    sp = sigma.space
    x, u = sigma.interpolant()(t, velocity=True)
    tangent = sp.project_horizontal(x, u)
    tangent = tangent * (1.0 / sp.norm(tangent))[:, None]
    normal = sp._sig * cross3(x, tangent)     # g-orthogonal to x and to the tangent
    sign = np.sign(sp.g(normal, sigma.vs[sigma.nearest_row(t)]))
    return x, u, tangent, normal * (sign / sp.norm(normal))[:, None]


def equivariant_shape_data(ehs: EquivariantHypersurface, params) -> ShapeData:
    """Shape data of H.sigma from the curve and its orbits, with no difference of the normal.

    The section is totally geodesic and meets the orbits orthogonally, so
    at g.sigma(t) the shape operator is g_* of gamma (+) S_xi in the
    orthonormal basis (T, X_alpha, X_beta): T the unit tangent of sigma,
    gamma the curve law's target and X_alpha, X_beta the eigenvectors of
    the orbit's shape operator S_xi for alpha >= beta. sigma(t) and T come
    from the quintic interpolant, the Frenet normal xi(t) from the
    section's cross product, signed like the normal of the nearest curve
    row, and the orbit data from one ``_orbit_invariants`` call over the
    distinct t. ``group_orbit_apply`` moves the frame to g.sigma(t).

    z and the coordinate velocities v come from one ``frames_at`` call, so
    the immersion test runs at every point, and so does the orientation:
    where the chart's oriented normal is opposite to g xi, the normal and S
    change sign. E is g (T, X_alpha, X_beta), the normal g xi, asym zero;
    the spectrum and eigenvectors follow shape_data's conventions.
    """
    spec, sigma = ehs.spec, ehs.sigma
    sp = spec.space
    fr = frames_at(ehs.patch, params)
    # each distinct t once, like the chart
    first, inverse = kernels.distinct(fr.params[:, 0])
    x, _, tangent, normal = _swept_frame(sigma, fr.params[first, 0])
    alpha, beta, a, b, _, _, eig = _orbit_invariants(spec, x.T, normal.T, eigenframe=True)
    frame = spec.from_frame(np.concatenate([tangent[:, None], eig.transpose(2, 1, 0),
                                            normal[:, None]], axis=1))      # (M, 4, 3)
    frame[:, 1:3] *= 1j   # the orbit eigenvectors stand for i D times them
    s = np.repeat(fr.params[:, 1:], 4, axis=0)
    moved = kernels.group_orbit_apply(*spec.generators, s[:, 0], s[:, 1],
                                      frame[inverse].reshape(-1, 3)).reshape(-1, 4, 3)
    E, xi = moved[:, :3], moved[:, 3]
    orient = np.sign(sp.g(xi, fr.xi))
    spectrum = np.stack([sigma.law.target(alpha, beta, a, b), alpha, beta], axis=1)
    s_mat = (orient[:, None] * spectrum[inverse])[:, :, None] * np.eye(3)
    vals, vecs = np.linalg.eigh(s_mat)
    frames = PointFrames(params=fr.params, z=fr.z, v=fr.v, xi=orient[:, None] * xi)
    return ShapeData(space=sp, frames=frames, E=E, S=s_mat, eigvals=vals[:, ::-1],
                     eigvecs=np.einsum("nai,nak->nik", vecs[:, :, ::-1], E),
                     asym=np.zeros(len(fr.params)))


def chart_tilt(ehs: EquivariantHypersurface, sd: ShapeData):
    """(N,) how far the chart's velocities leave the exact tangent spaces.

    sd is ``equivariant_shape_data(ehs, ...)``: its velocities are the
    chart's, its normal the exact one. Each entry is the largest normal
    component of a unit velocity beyond what the central difference's
    truncation gives it. Along an orbit that truncation stays tangent to
    the sweep; along sigma its normal part is h^2/6 gamma' (by the Frenet
    equations the third derivative of sigma has normal part gamma'), and
    the allowance is twice that at the curve's largest |gamma'|.
    """
    sp, sigma = sd.space, ehs.sigma
    v = sd.frames.v
    tilt = np.abs(sp.g(v, sd.frames.xi[:, None])) / sp.norm(v)
    gamma_rate = np.max(np.abs(np.gradient(sigma.gammas, sigma.step)))
    tilt[:, 0] -= ehs.patch.diff_step ** 2 / 3 * gamma_rate
    return tilt.max(axis=1)


def curve_defect(sigma: SigmaCurve):
    """(n - 1,) how far the curve the chart sweeps leaves its law, per step.

    The chart sweeps the quintic interpolant q of the rows. Its curvature is
    g(q'', xi) / |q'|^2, with q' and the section normal xi as
    ``equivariant_shape_data`` reads them (``_swept_frame``) and q'' the
    quintic's second derivative, from the rows' velocities and
    accelerations. Each entry is its largest distance to the law's target
    at (q, xi) over the step's DEFECT_TAUS, read from one ``_curve_columns``
    call per ORBIT_BATCH points, less what the rows' rounding allows. The
    rows' velocities carry the collocation's order-4 error, which over a
    step of h bends q'' by O(h^3): that part of the miss is odd about the
    step's midpoint, zero there, with its extremes at the step's Gauss
    points; the even part, O(h^4), peaks at the midpoint. A pregeodesic
    curve, whose rows are exact, reads rounding.
    """
    sp, h, taus = sigma.space, sigma.step, DEFECT_TAUS
    x, u, _, normal = _swept_frame(sigma, (sigma.ts[:-1, None] + h * taus).ravel())
    # the quintic-Hermite basis' second tau-derivatives at each tau, weighing
    # x_1 - x_0, u_0 h, u_1 h, acc_0 h^2 and acc_1 h^2; q'' is their sum over h^2
    t2, t3 = taus * taus, taus ** 3
    basis = np.stack([60 * taus - 180 * t2 + 120 * t3, -36 * taus + 96 * t2 - 60 * t3,
                      -24 * taus + 84 * t2 - 60 * t3, 1 - 9 * taus + 18 * t2 - 10 * t3,
                      3 * taus - 12 * t2 + 10 * t3])
    xs, us, accs = sigma.xs, sigma.us, sigma.accs
    rows = np.stack([(xs[1:] - xs[:-1]) * (1.0 / (h * h)), us[:-1] * (1.0 / h),
                     us[1:] * (1.0 / h), accs[:-1], accs[1:]])
    q2 = np.einsum("kj,kni->nji", basis, rows).reshape(-1, 3)
    target = _batched_columns(sigma.spec, sigma.law, x, normal)["gammas"]
    # rows off by two ulps of their largest entry move g(q'', xi) by up to
    # 4 eps |basis_0| max|x| sum|xi| / h^2, the rounding floor of a fine
    # step; it is no miss
    rounding = (4 * np.finfo(float).eps / (h * h)) * np.tile(np.abs(basis[0]), len(xs) - 1) * (
        np.abs(x).max(axis=1) * np.abs(normal).sum(axis=1))
    speed2 = sp.g(u, u)
    miss = np.abs(sp.g(q2, normal) / speed2 - target) - rounding / speed2
    return miss.reshape(-1, len(taus)).max(axis=1)


def shape_gap(sd: ShapeData, ref: ShapeData):
    """(N,) largest difference of two ShapeData at the same points: of the
    spectra, and of the ambient eigenvectors up to sign."""
    sp = sd.space
    vecs = np.minimum(sp.norm(sd.eigvecs - ref.eigvecs), sp.norm(sd.eigvecs + ref.eigvecs))
    return np.maximum(np.abs(sd.eigvals - ref.eigvals).max(axis=1), vecs.max(axis=1))


# -- certification -------------------------------------------------------------


@dataclass
class CertificationReport:
    passed: bool
    residuals: dict
    tolerances: dict
    grids: dict

    def to_dict(self):
        return {
            "passed": self.passed,
            "residuals": dict(sorted(self.residuals.items())),
            "tolerances": dict(sorted(self.tolerances.items())),
            "grids": dict(sorted(self.grids.items())),
        }


def strongly_2hopf_certify(ehs: EquivariantHypersurface,
                           grid_shape=(20, 5, 5)) -> CertificationReport:
    """Certify conditions (C1)-(C3) plus the leaf geometry spot checks.

    Checks h = 2 on the full grid, from ``equivariant_shape_data``, and
    there that the chart's velocities are tangent to the exact sweep
    (``chart_tilt``); that the curve the chart sweeps keeps its law between
    its rows (``curve_defect``); on a deterministic subsample of
    DERIVATIVE_POINTS points, from the chart's finite-difference shape data:
    its gap to the exact data (fd_exact_gap), integrability, D-derivatives
    of the spectrum, leaf flatness/total realness and the A-geodesic
    property. The derivative residuals read inf where the chart's own
    frames there are not h = 2. Every residual is held to its fixed bound
    in CERTIFY_TOLERANCES. Failures are reported as residuals, not raised.
    """
    tols = CERTIFY_TOLERANCES
    patch = ehs.patch
    sp = ehs.space
    grid = patch.grid(grid_shape, margin=0.02)
    exact = equivariant_shape_data(ehs, grid)
    hs = adapted_frames(exact).h
    h_ok = bool(np.all(hs == 2))
    # the exact data reads the curve; the chart's own velocities, from the
    # same frames_at call, must lie in its tangent spaces
    res = {
        "h_values": np.unique(hs).tolist(),
        "h2_fraction": float((hs == 2).mean()),
        "chart_tilt": float(np.max(chart_tilt(ehs, exact), initial=0.0)),
        "curve_defect": float(np.max(curve_defect(ehs.sigma), initial=0.0)),
    }
    idx2 = np.flatnonzero(hs == 2)
    # derivative probes biased toward the interior, where the finite
    # differences are best conditioned; the report records the sample size
    centers = np.array([0.5 * (lo + hi) for lo, hi in patch.box])
    spans = np.array([max(hi - lo, 1e-12) for lo, hi in patch.box])
    cornerness = (np.abs(grid - centers) / spans).max(axis=1)
    idx2 = idx2[np.lexsort((idx2, cornerness[idx2]))]
    stride = max(1, len(idx2) // DERIVATIVE_POINTS)
    sample = idx2[::stride][:DERIVATIVE_POINTS]
    # the derivative sample reads finite-difference shape data, the evidence
    # that the built chart realizes the law, and measures its gap to the exact data
    sd = shape_data(patch, grid[sample])
    res["fd_exact_gap"] = float(np.max(shape_gap(sd, exact.take(sample)), initial=0.0))
    geo = orbit_geometry(ehs.spec, sd.frames.z)
    try:
        af, scalars, nabla = frame_derivative_data(patch, sd, np.arange(len(sample)))
    except FrameError:
        # the chart's own frames at the sample, or a shift away from it, are
        # not h = 2: it does not realize the exact data, and has no derivative
        # residuals to report
        integ = spec_const = tangency = naa = float("inf")
    else:
        integ, spec_const = (float(np.max(x, initial=0.0))
                             for x in d_invariants(sp, af, scalars, nabla))
        # D = span{U, V} must be tangent to the orbit through the point
        x1, x2 = geo.basis[:, None, 0], geo.basis[:, None, 1]
        d = np.stack([af.U, af.V], axis=1)
        out = d - sp.g(d, x1)[..., None] * x1 - sp.g(d, x2)[..., None] * x2
        tangency = float(np.max(sp.norm(out), initial=0.0))
        # Prop 4.4: integral curves of A are geodesics of M with curvature gamma xi
        naa = float(np.max(sp.norm(nabla[("A", "A")][:2]), initial=0.0))
    res["integrability"] = integ
    res["spectrum_constancy_D"] = spec_const
    res["orbit_tangency"] = tangency
    res["nabla_AA"] = naa

    # leaf geometry (Prop 4.3): flat, totally real orbit leaves
    half = max(1, len(sample) // 2)
    x1, x2 = geo.basis[:half, 0], geo.basis[:half, 1]
    ii = geo.second_fundamental[:half]
    k_amb = sp.g(sp.curvature(x1, x2, x2), x1)
    k_leaf = k_amb + np.real(sp.herm(ii[:, 0, 0], ii[:, 1, 1]) - sp.herm(ii[:, 0, 1], ii[:, 0, 1]))
    leaf_flat = float(np.max(np.abs(k_leaf), initial=0.0))
    leaf_real = float(np.max(np.abs(sp.g(1j * x1, x2)), initial=0.0))
    res["leaf_intrinsic_curvature"] = leaf_flat
    res["leaf_totally_real_defect"] = leaf_real

    passed = (h_ok and integ < tols["integrable"]
              and spec_const < tols["spectrum_constancy"]
              and leaf_flat < tols["leaf_flat"]
              and leaf_real < tols["leaf_totally_real"]
              and naa < tols["nabla_AA"]
              and tangency < tols["orbit_tangency"]
              and res["chart_tilt"] < tols["chart_tilt"]
              and res["fd_exact_gap"] < tols["fd_exact_gap"]
              and res["curve_defect"] < tols["curve_defect"])
    grids = {"grid_shape": list(grid_shape), "derivative_sample": len(sample),
             "box": [list(b) for b in patch.box], "s_extent": ehs.s_extent}
    return CertificationReport(passed=bool(passed), residuals=res, tolerances=dict(tols),
                               grids=grids)


def leviflat_cmc_certify(ehs: EquivariantHypersurface, eta: float) -> CertificationReport:
    """Certify that a patch is Levi-flat with constant mean curvature eta.

    By the combined classification this can only pass for eta = 0 (the
    austere examples); a nonminimal attempt fails with the mean-curvature or
    Levi-form residuals as witnesses.
    """
    grid = ehs.patch.grid(LEVIFLAT_GRID, margin=0.03)
    sd = shape_data(ehs.patch, grid)
    levi = adapted_frames(sd).levi
    traces = sd.eigvals.sum(axis=1)
    res = {
        "levi_sup": float(np.max(np.abs(levi))),
        "mean_curvature": float(traces.mean()),
        "mean_curvature_spread": float(traces.max() - traces.min()),
        "mean_curvature_error": float(abs(traces.mean() - eta)),
        "spectrum_spread": float(np.max(sd.eigvals.max(axis=0) - sd.eigvals.min(axis=0))),
    }
    tols = dict.fromkeys(("levi_sup", "mean_curvature_spread", "mean_curvature_error"),
                         LEVIFLAT_TOL)
    passed = all(res[k] < tols[k] for k in tols)
    return CertificationReport(passed=bool(passed), residuals=res, tolerances=tols,
                               grids={"grid_shape": list(LEVIFLAT_GRID)})


# -- austere search -------------------------------------------------------------


@dataclass(eq=False)
class AustereCandidate:
    curve: SigmaCurve
    start_coords: np.ndarray
    alignment_residual: float


def austere_search(spec: PolarActionSpec, grid_coords, n_steps: int = 150):
    """Curves sigma with H.sigma austere: pregeodesics aligned with the
    orbit mean-curvature field.

    At every grid point with nonvanishing mean-curvature field H, launch the
    geodesic along H and keep it if max_t |<H(sigma(t)), xi(t)>| < AUSTERE_TOL.
    Where ||H|| < H_FLOOR on an open set, geodesics in a fan of directions
    are admitted and filtered the same way plus the a = b criterion.

    All launches run as one lane batch of n_steps per side at DEFAULT_STEP,
    and a launch stops at its first row with |<H, xi>| not below
    AUSTERE_TOL. The launches that stay aligned are then filtered in order:
    truncated short of n_steps rows, a != b (Prop 5.2), and curves within
    DEDUPE_DISTANCE of one already found.
    """
    grid_coords = np.atleast_2d(np.asarray(grid_coords, dtype=float))
    if grid_coords.size == 0:
        raise GeometryError("empty search grid")
    if n_steps < 1:
        raise GeometryError("n_steps must be at least 1")
    sp = spec.space
    law = CurveLaw("austere")
    zs = spec.section.point(grid_coords)
    xs = spec.frame_coords(zs)
    with np.errstate(all="ignore"):   # singular grid points are masked by their gram det
        _, _, _, hvecs, det = _orbit_body(spec, xs.T, require_regular=False)
    regular = np.flatnonzero(det > spec.gram_floor())
    if not len(regular):
        return []
    starts, dirs, coords = [], [], []
    for k in regular:
        hn = float(sp.norm(hvecs[:, k]))
        if hn > H_FLOOR:
            cands = [hvecs[:, k] * (1.0 / hn)]
        else:
            f1, f2 = spec.section.tangent_frame(zs[k])
            cands = spec.frame_coords([np.cos(theta) * f1 + np.sin(theta) * f2
                                       for theta in np.linspace(0.0, np.pi, 6, endpoint=False)])
        for u0 in cands:
            starts.append(xs[k])
            dirs.append(u0)
            coords.append(grid_coords[k])
    starts, dirs = np.array(starts), np.array(dirs)

    sigmas = _launch_sigmas(spec, law, starts, dirs, DEFAULT_STEP, n_steps,
                            align_tol=AUSTERE_TOL)
    mesh = None   # the group mesh of the dedupe, built when the first curve is kept
    found: list[AustereCandidate] = []
    sweeps = []   # the mesh swept through each found curve, swept once when it is kept
    for k, sigma in enumerate(sigmas):
        if sigma is None:
            continue
        if sigma.truncated and len(sigma.ts) < n_steps:
            continue
        if float(np.max(np.abs(sigma.hopf_a - sigma.hopf_b))) > 0.05:
            continue   # Prop 5.2 filter: austere forces a = b = 1/sqrt(2)
        if any(_curves_close(sp, sigma, other.curve, sweep, DEDUPE_DISTANCE)
               for other, sweep in zip(found, sweeps)):
            continue
        found.append(AustereCandidate(curve=sigma, start_coords=coords[k],
                                      alignment_residual=float(np.max(np.abs(sigma.mean_align)))))
        if mesh is None:
            mesh = _orbit_mesh(spec)
        sweeps.append(_sweep(mesh, sigma))
    return found


def _curves_close(sp: SpaceForm, c1: SigmaCurve, c2: SigmaCurve, sweep2, tol) -> bool:
    """Hausdorff-style proximity of two curves modulo the group action.

    Compares orbit-invariant profiles: the orbit principal curvatures along
    arclength (sorted), which separate the distinct austere families.
    sweep2 is ``_sweep`` of c2.
    """
    m = min(len(c1.ts), len(c2.ts))
    a1 = np.sort(np.stack([c1.alphas[:m], c1.betas[:m]]).ravel())
    a2 = np.sort(np.stack([c2.alphas[:m], c2.betas[:m]]).ravel())
    prof = float(np.max(np.abs(a1 - a2)))
    if prof > tol:
        return False
    # also require actual point proximity of the starting points' orbits: the
    # least distance from c1's middle row to c2's swept group mesh
    d = float(np.min(sp.dist(sweep2, c1.spec.from_frame(c1.xs[len(c1.xs) // 2]))))
    return d < max(10 * tol, 5e-2)


def _orbit_mesh(spec):
    """Group elements exp(s1 G1 + s2 G2) of the 9 x 9 mesh of s in [-0.5, 0.5]^2, (81, 3, 3)."""
    ss = np.linspace(-0.5, 0.5, 9)
    s = np.stack(np.meshgrid(ss, ss, indexing="ij"), axis=-1).reshape(-1, 2)
    return spec.group_element(s)


def _sweep(mesh, curve: SigmaCurve):
    """The mesh elements applied to about 12 evenly spaced samples of the curve, (n, 3)."""
    zcs = curve.spec.from_frame(curve.xs[:: max(1, len(curve.xs) // 12)])
    return np.einsum("mij,nj->nmi", mesh, zcs).reshape(-1, 3)
