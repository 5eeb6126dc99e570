"""Named verification suites behind ``hopflab verify``.

Each suite runs a battery of checks with explicit tolerances and returns a
structured result; everything is deterministic given the seed. The suites
double as the acceptance battery (tests/test_acceptance.py drives them).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import catalog as cat
from .actions import (
    LABELS,
    _eig2,
    hopf_directions,
    load_action,
    orbit_geometry,
    phi_coefficients,
    phi_profile,
)
from .ambient import SpaceForm, rk4_step
from .constructor import (
    FD_EXACT_GAP,
    CurveLaw,
    austere_search,
    build_hypersurface,
    equivariant_shape_data,
    integrate_sigma,
    leviflat_cmc_certify,
    shape_gap,
    strongly_2hopf_certify,
)
from .hypersurface import (
    TAU_PROJ,
    FrameError,
    HypersurfacePatch,
    adapted_frames,
    bracket_by_flows,
    classify,
    d_invariants,
    frame_derivative_data,
    hopf_cmc_relation_check,
    levi_form,
    shape_data,
    verify_connection_formulas,
    verify_gauss_codazzi,
)

SUITE_NAMES = ("ambient", "actions", "frames", "connection", "gauss-codazzi",
               "austere", "cmc", "levi-flat")
CMC_ETA = 1.0   # mean curvature of the Workspace's CMC constructions


@dataclass
class Check:
    name: str
    value: float
    tol: float
    passed: bool

    def to_dict(self):
        return {"name": self.name, "value": self.value, "tol": self.tol,
                "passed": self.passed}


@dataclass
class SuiteResult:
    name: str
    checks: list = field(default_factory=list)

    def expect(self, name, value, tol):
        """Record value < tol."""
        self.checks.append(Check(name, float(value), float(tol), bool(value < tol)))

    def expect_true(self, name, flag):
        self.checks.append(Check(name, 1.0 if flag else 0.0, 0.5, bool(flag)))

    def expect_above(self, name, value, floor):
        self.checks.append(Check(name, float(value), float(floor), bool(value > floor)))

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {"suite": self.name, "passed": self.passed,
                "checks": [c.to_dict() for c in self.checks]}


def launch_angle(zero_angles):
    """The direction on a 2-degree grid of [0, pi) farthest from every zero angle.

    The zero set of Phi is symmetric under theta -> theta + pi, so a grid of
    the whole circle would hold pairs of candidates that tie up to round-off.
    """
    cand = np.linspace(0.0, np.pi, 91)[:-1]
    sep = np.min(np.abs((cand[:, None] - zero_angles[None, :] + np.pi) % (2 * np.pi) - np.pi),
                 axis=1)
    return float(cand[np.argmax(sep)])


def sign_change_brackets(vals):
    """Indices i at which a cyclic sample of Phi changes sign between samples i and i + 1.

    A sample that is exactly zero counts as negative, so a zero of odd
    multiplicity lies in exactly one closed bracket even when it hits a sample.
    """
    pos = vals > 0
    return np.flatnonzero(pos != np.roll(pos, -1))


class Workspace:
    """Per-run cache of constructed patches (deterministic content)."""

    def __init__(self, seed: int):
        self.seed = seed
        self._cmc = {}
        self._wp = {}
        self._austere = {}
        self._catalog = {}

    def rng(self, tag: str):
        digest = hashlib.sha256(tag.encode()).digest()
        return np.random.default_rng((self.seed, int.from_bytes(digest[:8], "big")))

    def catalog_entry(self, name):
        if name not in self._catalog:
            self._catalog[name] = cat.get_entry(name)
        return self._catalog[name]

    def launch_data(self, label):
        """Deterministic regular launch point and the w_p data there."""
        spec = load_action(label)
        q0 = np.array([0.12, 0.07])
        z0 = spec.section.point(q0)
        zeros = hopf_directions(spec, z0)
        return spec, z0, zeros

    def cmc_patch(self, label):
        """CMC (eta = CMC_ETA) construction launched away from every w_p."""
        if label not in self._cmc:
            spec, z0, zeros = self.launch_data(label)
            f1, f2 = spec.section.tangent_frame(z0)
            theta0 = launch_angle(np.array([d["theta"] for d in zeros]))
            w0 = np.cos(theta0) * f1 + np.sin(theta0) * f2
            sigma = integrate_sigma(spec, z0, w0, CurveLaw("cmc", eta=CMC_ETA), n_steps=200)
            self._cmc[label] = build_hypersurface(spec, sigma, s_extent=0.15)
        return self._cmc[label]

    def wp_patch(self, label):
        """CMC (eta = CMC_ETA) construction launched exactly at a found w_p direction."""
        if label not in self._wp:
            spec, z0, zeros = self.launch_data(label)
            w0 = zeros[0]["direction"]
            sigma = integrate_sigma(spec, z0, w0, CurveLaw("cmc", eta=CMC_ETA), n_steps=60)
            self._wp[label] = build_hypersurface(spec, sigma, s_extent=0.12, t_margin=0.005)
        return self._wp[label]

    def austere_candidates(self, label):
        if label not in self._austere:
            spec = load_action(label)
            uu = np.linspace(-0.3, 0.3, 5)
            grid = np.stack([m.ravel() for m in np.meshgrid(uu, uu, indexing="ij")], axis=-1)
            self._austere[label] = (spec, austere_search(spec, grid, n_steps=120))
        return self._austere[label]


# -- ambient -------------------------------------------------------------------


FD_CURVATURE_POINTS = 50   # random points of the curvature oracle
FD_CURVATURE_STEP = 2e-5   # geodesic step of each of its nested differences


def fd_curvature_residual(sp: SpaceForm, rng):
    """Max relative deviation of the closed-form curvature from the FD oracle.

    The oracle applies nested covariant differences to fields z -> P_h(A z)
    for fixed matrices A (phase-equivariant, hence well defined on the
    manifold), entirely independent of the closed-form expression.
    """
    h = FD_CURVATURE_STEP
    worst = 0.0
    for _ in range(FD_CURVATURE_POINTS):
        p = sp.random_point(rng)
        mats = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))

        def fld(a):
            return lambda z: sp.project_horizontal(z, z @ a.T)

        X, Y, Z = fld(mats[0]), fld(mats[1]), fld(mats[2])

        def along(vfield, q, field):
            """Horizontal difference at q of field along the geodesic of vfield(q)."""
            v = vfield(q)
            zp, zm = sp.exp(q, v, h), sp.exp(q, v, -h)
            (d,) = sp.central_difference(q, zp, zm, h, (field(zp), field(zm)))
            return sp.project_horizontal(q, d)

        def second(vf, wf, zf, q):
            """nabla_{vf} (r -> nabla_{wf} zf) at q."""
            return along(vf, q, lambda r: along(wf, r, zf))

        lie = along(X, p, Y) - along(Y, p, X)
        r_fd = (second(X, Y, Z, p) - second(Y, X, Z, p)
                - along(lambda q: sp.project_horizontal(q, lie), p, Z))
        r_cf = sp.curvature(X(p), Y(p), Z(p))
        denom = max(float(sp.norm(r_cf)), 1e-6)
        worst = max(worst, float(sp.norm(r_fd - r_cf)) / denom)
    return worst


def _draw_frames(sp, rng, n, n_tangents):
    """n random points (n, 3), each drawn before its n_tangents unit tangents (n, 3)."""
    draws = []
    for _ in range(n):
        p = sp.random_point(rng)
        draws.append([p] + [sp.random_tangent(rng, p) for _ in range(n_tangents)])
    return tuple(np.array(col) for col in zip(*draws))


def suite_ambient(ws: Workspace) -> SuiteResult:
    res = SuiteResult("ambient")
    for c in (4.0, -4.0):
        sp = SpaceForm(c)
        rng = ws.rng(f"ambient{c}")
        hol = treal = sym = bianchi = 0.0
        for _ in range(50):
            p = sp.random_point(rng)
            x = sp.random_tangent(rng, p)
            y = sp.random_tangent(rng, p)
            y_tr = y - sp.g(y, x) * x - sp.g(y, 1j * x) * (1j * x)
            y_tr = y_tr / sp.norm(y_tr)
            hol = max(hol, abs(float(sp.g(sp.curvature(x, 1j * x, 1j * x), x)) - c))
            treal = max(treal, abs(float(sp.g(sp.curvature(x, y_tr, y_tr), x)) - c / 4))
            z = sp.random_tangent(rng, p)
            w = sp.random_tangent(rng, p)
            r1 = sp.curvature(x, y, z)
            sym = max(sym,
                      float(sp.norm(r1 + sp.curvature(y, x, z))),
                      abs(float(sp.g(r1, w)) + float(sp.g(sp.curvature(x, y, w), z))))
            bianchi = max(bianchi, float(sp.norm(
                r1 + sp.curvature(y, z, x) + sp.curvature(z, x, y))))
        res.expect(f"holomorphic_curvature_c{c:+g}", hol, 1e-8)
        res.expect(f"totally_real_curvature_c{c:+g}", treal, 1e-8)
        res.expect(f"curvature_symmetries_c{c:+g}", sym, 1e-10)
        res.expect(f"bianchi_c{c:+g}", bianchi, 1e-10)
        res.expect(f"fd_curvature_oracle_c{c:+g}",
                   fd_curvature_residual(sp, ws.rng(f"fd{c}")), 1e-3)
        # Kaehler identity along random geodesics: transport commutes with J;
        # the 20 transports of v and of Jv run as one batch
        rngk = ws.rng(f"kahler{c}")
        p, d, v = _draw_frames(sp, rngk, 20, 2)
        tv, jtv = sp.parallel_transport_along_geodesic(p, d, 0.5, np.array([v, 1j * v]),
                                                       n_steps=100)
        kah = float(np.max(sp.norm(1j * tv - jtv)))
        res.expect(f"kahler_parallel_J_c{c:+g}", kah, 1e-6)
        # exp against an RK4 geodesic oracle of 10 curves at once, and
        # distance additivity
        p, v = _draw_frames(sp, ws.rng(f"geo{c}"), 10, 1)

        def geodesic_rhs(_, y):
            z, w = y
            return np.array([w, -(sp.g(w, w) / sp.kappa)[:, None] * z])

        y = np.array([p, v])
        for _ in range(200):
            y = rk4_step(geodesic_rhs, 0.0, y, 1.0 / 200)
        geo = float(np.max(sp.dist(sp.exp(p, v, 1.0), y[0])))
        dist_add = max(float(np.max(np.abs(sp.dist(p, sp.exp(p, v, t)) - t)))
                       for t in (0.3, 0.9, 1.3))
        res.expect(f"exp_vs_rk_oracle_c{c:+g}", geo, 1e-6)
        res.expect(f"distance_additivity_c{c:+g}", dist_add, 1e-6)
    return res


# -- actions -------------------------------------------------------------------


def suite_actions(ws: Workspace) -> SuiteResult:
    res = SuiteResult("actions")
    for label in LABELS:
        spec = load_action(label)
        sp = spec.space
        sec = spec.section
        rng = ws.rng(f"act-{label}")
        # isometries
        iso = 0.0
        for _ in range(5):
            s = rng.uniform(-1.0, 1.0, size=2)
            m = spec.group_element(s)
            z = sp.random_point(rng)
            v = sp.random_tangent(rng, z)
            w = sp.random_tangent(rng, z)
            iso = max(iso, abs(float(sp.g(m @ v, m @ w)) - float(sp.g(v, w))))
        res.expect(f"{label}:isometry", iso, 1e-8)
        # section invariants at 20 chart points
        rr = 0.45 if sp.c > 0 else 0.6
        pts = rng.uniform(-rr, rr, size=(20, 2))
        z = sec.point(pts)
        f = np.stack(sec.tangent_frame(z), axis=1)          # (20, 2, 3)
        k = spec.killing_basis(z)                           # (20, 2, 3)
        res.expect(f"{label}:section_totally_real",
                   float(np.max(np.abs(sp.g(1j * f[:, 0], f[:, 1])))), 1e-8)
        res.expect(f"{label}:killing_orthogonal_to_section",
                   float(np.max(np.abs(sp.g(k[:, :, None], f[:, None])))), 1e-8)
        res.expect(f"{label}:section_II", float(np.max(sec.second_fundamental_form_residual(pts))),
                   1e-6)
        # flow oracle: velocity of exp(tG).p matches the Killing field, for
        # both generators at once
        z0 = sec.point(np.array([0.2, 0.1]))
        h = 1e-5
        zp, zm = spec.translate(np.eye(2) * h, z0), spec.translate(-np.eye(2) * h, z0)
        (vel,) = sp.central_difference(z0, zp, zm, h, (zp, zm))
        flow = np.max(sp.norm(sp.project_horizontal(z0, vel) - spec.killing_basis(z0)))
        res.expect(f"{label}:flow_oracle", float(flow), 1e-6)
        # orbit curvature constancy along 10 group translates
        f1, _ = sec.tangent_frame(z0)
        ms = spec.group_element(rng.uniform(-1.0, 1.0, size=(10, 2)))
        mz = ms @ z0
        zs = np.concatenate([z0[None], sp.normalize_rep(mz)])
        xis = np.concatenate([f1[None], sp.project_horizontal(mz, ms @ f1)])
        s = orbit_geometry(spec, zs).shape_matrix(xis)
        (alpha, beta), _ = _eig2(0.5 * (s + np.swapaxes(s, -1, -2)))
        spread = float(max(np.max(np.abs(alpha[1:] - alpha[0])),
                           np.max(np.abs(beta[1:] - beta[0]))))
        res.expect(f"{label}:orbit_curvature_equivariance", spread, 1e-6)
        # mean curvature field tangent to the section
        htan = 0.0
        for q in pts[:8]:
            z = sec.point(q)
            if not spec.is_regular(z):
                continue
            geo = orbit_geometry(spec, z)
            htan = max(htan, max(abs(float(sp.g(geo.mean_curvature, geo.basis[i])))
                                 for i in range(2)))
        res.expect(f"{label}:mean_curvature_in_section", htan, 1e-8)
        # Phi: nonvanishing and odd; its zero set from the cubic, checked
        # against the sign changes of a 720-sample profile
        phimax_min = np.inf
        parity_ok = stable_ok = match_ok = True
        patterns = set()
        refined = vanish = odd = 0.0
        npts = 0
        attempts = 0
        while npts < 5 and attempts < 40:
            attempts += 1
            q = rng.uniform(-rr, rr, size=2)
            z = sec.point(q)
            if not spec.is_regular(z, tol=1e-6):
                continue
            npts += 1
            thetas = np.linspace(0, 2 * np.pi, 720, endpoint=False)
            vals = phi_profile(spec, z, thetas)
            phimax_min = min(phimax_min, float(np.max(np.abs(vals))))
            odd = max(odd, float(np.max(np.abs(
                vals + phi_profile(spec, z, thetas + np.pi)))))
            zeros = hopf_directions(spec, z)
            roots = np.array([d["theta"] for d in zeros])
            mult = np.array([d["multiplicity"] for d in zeros])
            resid = max(d["phi"] for d in zeros)
            parity_ok &= mult.sum() % 2 == 0 and mult.sum() >= 2
            brackets = sign_change_brackets(vals)
            stable_ok &= len(brackets) == len(sign_change_brackets(vals[::2]))
            # each bracket holds exactly one zero of odd multiplicity, and each
            # such zero lies in a bracket
            odd_roots = roots[mult % 2 == 1]
            lo = thetas[brackets, None]
            inside = (odd_roots >= lo) & (odd_roots <= lo + 2 * np.pi / len(thetas))
            match_ok &= bool(np.all(inside.sum(axis=1) == 1) and np.all(inside.sum(axis=0) == 1))
            # theta and theta + pi carry the same multiplicity: one per zero line
            patterns.add(tuple(np.sort(mult)[::2]))
            refined = max(refined, resid)
            vanish = max(vanish, resid / float(np.max(np.abs(phi_coefficients(spec, z)))))
        res.expect_above(f"{label}:phi_not_identically_zero", phimax_min, 1e-6)
        res.expect(f"{label}:phi_odd", odd, 1e-10)
        res.expect_true(f"{label}:phi_zeros_even_and_at_least_two", parity_ok)
        res.expect_true(f"{label}:phi_zero_count_stable", stable_ok)
        res.expect(f"{label}:phi_zero_refinement", refined, 1e-10)
        res.expect(f"{label}:phi_algebraic_roots_vanish", vanish, 1e-12)
        res.expect_true(f"{label}:phi_simple_roots_match_sampled", match_ok)
        res.expect_true(f"{label}:phi_multiplicity_pattern_stable", len(patterns) == 1)
    # fixed points of the torus actions
    cp = load_action("cp2-torus")
    fp = cp.space.normalize_rep(np.eye(3, dtype=complex)[0])
    res.expect("cp2-torus:fixed_point_killing", max(
        float(cp.space.norm(cp.killing_vec(i, fp))) for i in range(2)), 1e-12)
    ch = load_action("ch2-torus")
    fph = ch.space.normalize_rep(np.eye(3, dtype=complex)[0])
    res.expect("ch2-torus:fixed_point_killing", max(
        float(ch.space.norm(ch.killing_vec(i, fph))) for i in range(2)), 1e-12)
    # minimal Clifford orbit at the torus-center point
    geo = orbit_geometry(cp, cp.section.point(np.zeros(2)))
    res.expect("cp2-torus:clifford_orbit_minimal",
               float(cp.space.norm(geo.mean_curvature)), 1e-8)
    return res


# -- frames ---------------------------------------------------------------------


def suite_frames(ws: Workspace) -> SuiteResult:
    res = SuiteResult("frames")
    ehs = ws.cmc_patch("cp2-torus")
    grid = ehs.patch.grid((6, 3, 3), margin=0.05)
    sd = shape_data(ehs.patch, grid)
    af = adapted_frames(sd)   # NaN frame fields fail the checks
    res.expect("cmc_patch:prop_frame_identities", float(np.max(af.worst_residual)), 1e-6)
    res.expect("cmc_patch:a2_plus_b2", float(np.max(np.abs(af.a ** 2 + af.b ** 2 - 1.0))), 1e-10)
    res.expect("cmc_patch:shape_symmetry", float(np.max(sd.asym)), 1e-8)
    loh = ws.catalog_entry("lohnherr")
    sdl = shape_data(loh.patch, loh.patch.grid((4, 3, 3), margin=0.06))
    afl = adapted_frames(sdl)
    res.expect("lohnherr:a_equals_b_1_over_sqrt2",
               max(abs(afl.a[0] - 1 / np.sqrt(2)), abs(afl.b[0] - 1 / np.sqrt(2))), 1e-6)
    sphere = ws.catalog_entry("geodesic-sphere")
    probe = sphere.patch.grid((2, 2, 2), margin=0.2)
    sds = shape_data(sphere.patch, probe)
    afs = adapted_frames(sds)
    res.expect_true("geodesic_sphere:h_equals_1", set(afs.h.tolist()) == {1})
    try:
        frame_derivative_data(sphere.patch, sds, [0])
        raised = False
    except FrameError:
        raised = True
    res.expect_true("geodesic_sphere:frame_rejects_h1", raised)
    return res


# -- connection -----------------------------------------------------------------


def suite_connection(ws: Workspace) -> SuiteResult:
    res = SuiteResult("connection")
    for label in ("cp2-torus", "ch2-g0"):
        ehs = ws.cmc_patch(label)
        box = ehs.patch.box
        mid = [0.3 * (box[0][0] + box[0][1]) + 0.2 * box[0][1], 0.03, -0.04]
        sd = shape_data(ehs.patch, np.array(mid)[None])
        derivs = af, scalars, nabla = frame_derivative_data(ehs.patch, sd, [0])
        for mode in ("strong", "generic"):
            rep = verify_connection_formulas(sd, derivs, mode)
            if rep["skipped_degenerate"][0]:
                res.expect_true(f"{label}:{mode}_skipped_degenerate_ok", True)
                continue
            res.expect(f"{label}:{mode}_connection_entries", rep["max_entry_residual"][0], 1e-3)
            res.expect(f"{label}:{mode}_derivative_identities",
                       rep["max_identity_residual"][0], 1e-3)
        # Prop 4.2 strongly-2-Hopf specifics
        sp = ehs.space
        integ, dspec = d_invariants(sp, af, scalars, nabla)
        res.expect(f"{label}:nabla_AA", float(sp.norm(nabla[("A", "A")][0])), 1e-4)
        res.expect(f"{label}:D_derivatives_vanish", dspec[0], 1e-4)
        # independent flow-composition bracket versus the connection route
        br_flow = bracket_by_flows(ehs.patch, np.array(mid), "U", "V")
        br_conn = nabla[("U", "V")][0] - nabla[("V", "U")][0]
        res.expect(f"{label}:bracket_flow_vs_connection",
                   float(sp.norm(br_flow - br_conn)), 1e-5)
        res.expect(f"{label}:integrability", integ[0], 1e-5)
    return res


# -- gauss-codazzi ---------------------------------------------------------------


def suite_gauss_codazzi(ws: Workspace) -> SuiteResult:
    res = SuiteResult("gauss-codazzi")
    rng = ws.rng("gc")
    for name in cat.CATALOG_NAMES:
        entry = ws.catalog_entry(name)
        probe = entry.patch.grid((2, 2, 2), margin=0.25)[::3][:2]
        worst_g = worst_c = 0.0
        for p in probe:
            out = verify_gauss_codazzi(entry.patch, p, rng=rng, n_random=20)
            worst_g = max(worst_g, out["gauss"])
            worst_c = max(worst_c, out["codazzi"])
        res.expect(f"{name}:gauss", worst_g, 1e-4)
        res.expect(f"{name}:codazzi", worst_c, 1e-4)
    for label in LABELS:
        ehs = ws.cmc_patch(label)
        p = ehs.patch.grid((3, 3, 3), margin=0.2)[13]
        out = verify_gauss_codazzi(ehs.patch, p, rng=rng, n_random=20)
        res.expect(f"cmc-{label}:gauss", out["gauss"], 1e-4)
        res.expect(f"cmc-{label}:codazzi", out["codazzi"], 1e-4)
    # negative control: corrupted shape operator must blow the residuals up
    entry = ws.catalog_entry("geodesic-sphere")
    pert = np.zeros((3, 3)); pert[0, 1] = pert[1, 0] = 0.05
    out = verify_gauss_codazzi(entry.patch, entry.patch.grid((2, 2, 2), margin=0.3)[0],
                               rng=rng, n_random=20, shape_perturbation=pert)
    res.expect_above("negative_control:corrupted_codazzi",
                     max(out["codazzi"], out["gauss"]), 1e-2)
    return res


# -- austere ---------------------------------------------------------------------


def suite_austere(ws: Workspace) -> SuiteResult:
    res = SuiteResult("austere")
    expected_nonempty = {"cp2-torus": True, "ch2-torus": True, "ch2-g0": True,
                         "ch2-k0-g2a": False, "ch2-line-g2a": True}
    for label in LABELS:
        spec, found = ws.austere_candidates(label)
        if not expected_nonempty[label]:
            res.expect_true(f"{label}:no_austere_curves", len(found) == 0)
            continue
        res.expect_true(f"{label}:austere_curves_found", len(found) > 0)
        if not found:
            continue
        cand = found[0]
        ehs = build_hypersurface(spec, cand.curve, s_extent=0.2)
        rep = classify(ehs.patch, ehs.patch.grid((5, 4, 4), margin=0.05),
                       derivative_subsample=3)
        res.expect(f"{label}:austere_residual", rep.residuals["austere"], 1e-3)
        res.expect_true(f"{label}:ruled", rep.ruled)
        res.expect_true(f"{label}:levi_flat", rep.levi_flat)
        sd = shape_data(ehs.patch, ehs.patch.grid((3, 2, 2), margin=0.1))
        af = adapted_frames(sd)
        res.expect(f"{label}:a_b_sqrt2",
                   max(abs(af.a[0] - 1 / np.sqrt(2)), abs(af.b[0] - 1 / np.sqrt(2))), 1e-4)
        # Prop 5.2 exclusion: no J xi projection onto the 0-eigenvalue space
        mid_idx = np.argsort(np.abs(sd.eigvals[0]))[0]
        res.expect(f"{label}:no_projection_on_zero_eigenspace",
                   abs(float(af.coords[0, mid_idx])), TAU_PROJ)
    # Lohnherr spectrum at 20 grid points (c = -4)
    loh = ws.catalog_entry("lohnherr")
    grid = loh.patch.grid((20, 1, 1), margin=0.03)
    sd = shape_data(loh.patch, grid)
    target = np.array([1.0, 0.0, -1.0])
    res.expect("lohnherr:spectrum_1_0_m1",
               float(np.max(np.abs(sd.eigvals - target))), 1e-4)
    res.expect("lohnherr:spectrum_spread",
               float(np.max(sd.eigvals.max(axis=0) - sd.eigvals.min(axis=0))), 1e-4)
    # the torus actions' austere curves lie on Clifford cones; the rows of
    # sigma suffice, as the cones are invariant under the torus
    for label in ("cp2-torus", "ch2-torus"):
        spec, found = ws.austere_candidates(label)
        res.expect(f"{label}:on_clifford_cone",
                   max((_cone_distance(spec.space, cand.curve.zs) for cand in found),
                       default=np.inf), 1e-4)
        # negative controls: 1 % off |z_1|, and a CMC curve
        if found:
            res.expect_above(f"{label}:perturbed_candidate_off_cone",
                             _cone_distance(spec.space, found[0].curve.zs * [1.0, 1.01, 1.0]),
                             1e-4)
        res.expect_above(f"cmc-{label}:off_clifford_cone",
                         _cone_distance(spec.space, ws.cmc_patch(label).sigma.zs), 1e-4)
    return res


def _cone_distance(sp, zs):
    """Least, over the torus-fixed vertices, of the largest distance of the rows to the cone."""
    return float(np.min(np.max(cat.clifford_cone_distances(sp, zs), axis=0)))


# -- cmc -------------------------------------------------------------------------


BEND = 1e-2   # the negative control's bend of a chart, per unit s1^2


def _bent_patch(patch, bend=BEND):
    """The patch with its chart's first coordinate scaled by 1 + bend s1^2."""
    def chart(params):
        scale = np.ones((len(params), 3))
        scale[:, 0] += bend * params[:, 1] ** 2
        return patch.chart(params) * scale

    return HypersurfacePatch(patch.space, chart, patch.box, patch.diff_step, patch.orientation)


def suite_cmc(ws: Workspace) -> SuiteResult:
    res = SuiteResult("cmc")
    for label in LABELS:
        ehs = ws.cmc_patch(label)
        cert = strongly_2hopf_certify(ehs, grid_shape=(20, 5, 5))
        r, tol = cert.residuals, cert.tolerances
        res.expect_true(f"{label}:h2_everywhere", r["h_values"] == [2])
        res.expect(f"{label}:integrability", r["integrability"], tol["integrable"])
        res.expect(f"{label}:D_spectrum_constancy", r["spectrum_constancy_D"],
                   tol["spectrum_constancy"])
        res.expect(f"{label}:leaf_flat", r["leaf_intrinsic_curvature"], tol["leaf_flat"])
        res.expect(f"{label}:leaf_totally_real", r["leaf_totally_real_defect"],
                   tol["leaf_totally_real"])
        res.expect(f"{label}:nabla_AA", r["nabla_AA"], tol["nabla_AA"])
        res.expect_true(f"{label}:certified", cert.passed)
        grid = ehs.patch.grid((6, 3, 3), margin=0.05)
        sd = shape_data(ehs.patch, grid)
        traces = sd.eigvals.sum(axis=1)
        res.expect(f"{label}:mean_curvature_eq_eta",
                   float(np.max(np.abs(traces - CMC_ETA))), 1e-3)
        # the built chart realizes the exact equivariant shape data
        res.expect(f"{label}:fd_matches_equivariant_shape",
                   float(np.max(shape_gap(sd, equivariant_shape_data(ehs, grid)))), FD_EXACT_GAP)
        # launch exactly at a w_p direction: Hopf at the launch point
        wp = ws.wp_patch(label)
        sd = shape_data(wp.patch, np.array([[0.0, 0.0, 0.0]]))
        res.expect_true(f"{label}:wp_launch_hopf_at_p",
                        adapted_frames(sd).h[0] == 1)
    # negative control: a bent chart no longer realizes the curve's exact shape data
    ehs = ws.cmc_patch("cp2-torus")
    bent = replace(ehs, patch=_bent_patch(ehs.patch))
    grid = bent.patch.grid((3, 2, 2), margin=0.1)
    res.expect_above("negative_control:perturbed_chart_fails_fd_match",
                     float(np.max(shape_gap(shape_data(bent.patch, grid),
                                            equivariant_shape_data(bent, grid)))), FD_EXACT_GAP)
    # Hopf rigidity across the catalog (Theorem-level relation + constancy)
    for name in ("geodesic-sphere", "horosphere", "tube-rp2", "tube-ch1"):
        entry = ws.catalog_entry(name)
        grid = entry.patch.grid((3, 3, 3), margin=0.1)
        sd = shape_data(entry.patch, grid)
        res.expect(f"{name}:spectrum_spread",
                   float(np.max(sd.eigvals.max(axis=0) - sd.eigvals.min(axis=0))), 1e-4)
        rel = np.max(hopf_cmc_relation_check(sd.take([0, len(grid) // 2])))
        res.expect(f"{name}:hopf_cmc_relation", rel, 1e-6)
    horo = ws.catalog_entry("horosphere")
    sd = shape_data(horo.patch, horo.patch.grid((3, 3, 3), margin=0.1))
    res.expect("horosphere:spectrum_2_1_1",
               float(np.max(np.abs(np.sort(sd.eigvals, axis=1)[:, ::-1]
                                   - np.array([2.0, 1.0, 1.0])))), 1e-4)
    # time-reversal oracle: restarting from the far endpoint with the
    # reversed velocity (and hence flipped Frenet normal, so eta -> -eta)
    # must retrace the same points
    spec, z0, zeros = ws.launch_data("cp2-torus")
    f1, f2 = spec.section.tangent_frame(z0)
    w0 = np.cos(0.4) * f1 + np.sin(0.4) * f2
    fwd = integrate_sigma(spec, z0, w0, CurveLaw("cmc", eta=1.0),
                          n_steps=40, two_sided=False)
    bwd = integrate_sigma(spec, fwd.zs[-1], -fwd.ws[-1], CurveLaw("cmc", eta=-1.0),
                          n_steps=40, two_sided=False)
    rev = max(float(spec.space.dist(fwd.zs[-1 - k], bwd.zs[k]))
              for k in range(len(fwd.ts)))
    res.expect("cmc_time_reversal_oracle", rev, 1e-7)
    return res


# -- levi-flat -------------------------------------------------------------------


def suite_leviflat(ws: Workspace) -> SuiteResult:
    res = SuiteResult("levi-flat")
    # minimal Levi-flat: relaunch the Lohnherr data under the Levi-flat law
    spec, found = ws.austere_candidates("ch2-line-g2a")
    res.expect_true("lohnherr_curve_available", bool(found))
    if found:
        sig0 = found[0].curve
        k = len(sig0.ts) // 2
        sigma = integrate_sigma(spec, sig0.zs[k], sig0.ws[k],
                                CurveLaw("levi-flat"), n_steps=120)
        ehs = build_hypersurface(spec, sigma, s_extent=0.2)
        cert = leviflat_cmc_certify(ehs, eta=0.0)
        res.expect_true("minimal_leviflat_certifies", cert.passed)
        res.expect("minimal_leviflat_levi_sup", cert.residuals["levi_sup"], 1e-3)
        grid = ehs.patch.grid((5, 3, 3), margin=0.05)
        af = adapted_frames(shape_data(ehs.patch, grid))
        res.expect("minimal_leviflat_gamma_eq_eta_over_4", float(np.max(np.abs(af.gamma))), 1e-3)
        res.expect("minimal_leviflat_beta_eq_minus_alpha",
                   float(np.max(np.abs(af.alpha + af.beta))), 1e-3)
    # Levi-flat law from a generic start: Levi form vanishes along the patch
    spec2, z0, zeros = ws.launch_data("ch2-g0")
    f1, f2 = spec2.section.tangent_frame(z0)
    w0 = np.cos(0.9) * f1 + np.sin(0.9) * f2
    sigma2 = integrate_sigma(spec2, z0, w0, CurveLaw("levi-flat"), n_steps=150)
    ehs2 = build_hypersurface(spec2, sigma2, s_extent=0.15)
    certs = leviflat_cmc_certify(ehs2, eta=0.0)
    res.expect("leviflat_law_levi_sup", certs.residuals["levi_sup"], 1e-3)
    # the nonminimal Levi-flat + CMC attempt must fail with witnesses
    cert1 = leviflat_cmc_certify(ehs2, eta=1.0)
    res.expect_true("nonminimal_attempt_fails", not cert1.passed)
    res.expect_above("nonminimal_attempt_witness",
                     max(cert1.residuals["mean_curvature_error"],
                         cert1.residuals["mean_curvature_spread"],
                         cert1.residuals["levi_sup"]), 1e-3)
    # pointwise Levi form: symmetry and the frame formula
    ehs3 = ws.cmc_patch("cp2-torus")
    sd3 = shape_data(ehs3.patch, np.array([[0.02, 0.01, -0.03]]))
    fr = adapted_frames(sd3)   # NaN frame fields fail the checks
    A, jA = fr.A, 1j * fr.A
    laa = levi_form(sd3, A, A)
    res.expect("levi_form_frame_formula",
               abs(laa - (fr.gamma + fr.b ** 2 * fr.alpha + fr.a ** 2 * fr.beta))[0], 1e-6)
    res.expect("levi_form_symmetric", abs(levi_form(sd3, A, jA) - levi_form(sd3, jA, A))[0],
               1e-8)
    loh = ws.catalog_entry("lohnherr")
    gridl = loh.patch.grid((4, 2, 2), margin=0.1)
    res.expect("lohnherr_levi_flat",
               float(np.max(np.abs(adapted_frames(shape_data(loh.patch, gridl)).levi))), 1e-4)
    return res


_SUITES = {
    "ambient": suite_ambient,
    "actions": suite_actions,
    "frames": suite_frames,
    "connection": suite_connection,
    "gauss-codazzi": suite_gauss_codazzi,
    "austere": suite_austere,
    "cmc": suite_cmc,
    "levi-flat": suite_leviflat,
}


def report_json(results, seed: int) -> str:
    """The ``verify --out`` report of suite results: sorted keys, indent 1, trailing newline."""
    doc = {"schema_version": 1, "seed": seed, "suites": [s.to_dict() for s in results]}
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def run_suites(names, seed: int = 7):
    """Run the named suites (or 'all') sharing one workspace; deterministic."""
    if isinstance(names, str):
        names = [names]
    if "all" in names:
        names = list(SUITE_NAMES)
    unknown = [n for n in names if n not in _SUITES]
    if unknown:
        raise KeyError(f"unknown suite(s) {unknown}; choose from {SUITE_NAMES + ('all',)}")
    ws = Workspace(seed)
    return [_SUITES[n](ws) for n in names]
