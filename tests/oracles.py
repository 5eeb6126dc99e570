"""Independent numerical oracles used to freeze expected test values.

Each oracle deliberately avoids the code path it checks: tube spectra come
from integrating the radial Jacobi equation, geodesics from an RK4
integration of the second-order model equation, and parallel transport from
its own first-order system.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from hopflab._kernels.pure import expm3_batch
from hopflab.hypersurface import TAU_MULT, TAU_PROJ


def jacobi_principal_curvature(k_sec: float, r: float, core_tangent: bool,
                               n_steps: int = 4000) -> float:
    """f'(r)/f(r) for f'' + K f = 0 via RK4.

    Initial data (f, f')(0) = (0, 1) for sphere-type directions and (1, 0)
    for directions tangent to the tube's core. With the inward normal the
    principal curvature of the distance tube equals f'/f.
    """
    f, fp = (1.0, 0.0) if core_tangent else (0.0, 1.0)
    h = r / n_steps

    def rhs(state):
        return np.array([state[1], -k_sec * state[0]])

    y = np.array([f, fp])
    for _ in range(n_steps):
        k1 = rhs(y)
        k2 = rhs(y + h / 2 * k1)
        k3 = rhs(y + h / 2 * k2)
        k4 = rhs(y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y[1] / y[0]


def sphere_spectrum_oracle(c: float, r: float):
    """Inward-normal spectrum of a geodesic sphere: radial Jacobi data.

    The normal Jacobi operator R(., dr)dr has eigenvalue c on J(dr) and c/4
    on the totally real directions.
    """
    hopf = jacobi_principal_curvature(c, r, core_tangent=False)
    rest = jacobi_principal_curvature(c / 4.0, r, core_tangent=False)
    return sorted((hopf, rest, rest), reverse=True)


def tube_spectrum_oracle(c: float, r: float, core: str):
    """Inward-normal spectrum of tubes around RP^2, CH^1 or RH^2 cores."""
    if core == "rp2":
        vals = (jacobi_principal_curvature(c, r, True),
                jacobi_principal_curvature(c / 4, r, True),
                jacobi_principal_curvature(c / 4, r, False))
    elif core == "ch1":
        vals = (jacobi_principal_curvature(c, r, False),
                jacobi_principal_curvature(c / 4, r, True),
                jacobi_principal_curvature(c / 4, r, True))
    else:
        raise ValueError(core)
    return sorted(vals, reverse=True)


def geodesic_rk4(space, z0, v0, t1: float, n_steps: int = 400):
    """Integrate the model geodesic equation z'' = -(g(z',z')/kappa) z."""
    z, w = np.asarray(z0, dtype=complex), np.asarray(v0, dtype=complex)
    h = t1 / n_steps

    def acc(zz, ww):
        return -(space.g(ww, ww) / space.kappa) * zz

    for _ in range(n_steps):
        k1z, k1w = w, acc(z, w)
        k2z, k2w = w + h / 2 * k1w, acc(z + h / 2 * k1z, w + h / 2 * k1w)
        k3z, k3w = w + h / 2 * k2w, acc(z + h / 2 * k2z, w + h / 2 * k2w)
        k4z, k4w = w + h * k3w, acc(z + h * k3z, w + h * k3w)
        z = z + h / 6 * (k1z + 2 * k2z + 2 * k3z + k4z)
        w = w + h / 6 * (k1w + 2 * k2w + 2 * k3w + k4w)
    return z, w


def scalar_parallel_transport(sp, z, direction, t1, w0, n_steps=200):
    """Frozen copy of the one-vector RK4 parallel transport along exp_z(t*direction).

    The step loop of ``SpaceForm.parallel_transport_along_geodesic`` as it
    stood when it took point and tangent objects. Tests pin the array
    transport against it bit for bit, the batched transport lane by lane.
    """
    h = t1 / n_steps

    def zdot_at(t):
        return sp.exp_velocity(z, direction, t)

    def rhs(t, w):
        # horizontal-lift transport: wdot = -(<zdot, w>/kappa) z
        return -(sp.herm(zdot_at(t), w) / sp.kappa) * sp.exp(z, direction, t)

    w = w0.copy()
    t = 0.0
    for _ in range(n_steps):
        k1 = rhs(t, w)
        k2 = rhs(t + h / 2, w + h / 2 * k1)
        k3 = rhs(t + h / 2, w + h / 2 * k2)
        k4 = rhs(t + h, w + h * k3)
        w = w + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
        zt = sp.exp(z, direction, t)
        w = sp.project_horizontal(zt, w)
    end = sp.exp(z, direction, t1)
    return sp.project_horizontal(end, w)


# -- scalar section-curve integrator ---------------------------------------------
# A frozen copy of the one-launch-at-a-time RK4 that the batched lane core in
# hopflab.constructor replaced, with the unbatched orbit geometry it called.
# Tests pin the lane core against it launch by launch.


def scalar_orbit_geometry(spec, z):
    """(basis, second_fundamental, mean_curvature, gram_det) at one point.

    Raises SingularOrbitError where the gram determinant is <= REGULARITY_TOL.
    """
    from hopflab.actions import REGULARITY_TOL, SingularOrbitError

    sp = spec.space
    z = np.asarray(z, dtype=complex)
    k = spec.killing_basis(z)
    g11 = sp.g(k[0], k[0])
    g12 = sp.g(k[0], k[1])
    g22 = sp.g(k[1], k[1])
    det = g11 * g22 - g12 ** 2
    if det <= REGULARITY_TOL:
        raise SingularOrbitError(f"orbit through the given point has rank < 2 (gram det {det:.3e})")
    x1 = k[0] / np.sqrt(g11)
    x2p = k[1] - sp.g(k[1], x1) * x1
    n2 = sp.norm(x2p)
    x2 = x2p / n2
    basis = np.stack([x1, x2])
    coeff = np.array([
        [1.0 / np.sqrt(g11), 0.0],
        [-g12 / (g11 * n2), 1.0 / n2],
    ])
    rot = np.array([sp.herm(z, g @ z) / sp.kappa for g in spec.generators])
    nabla = np.empty((2, 2, 3), dtype=complex)
    for a in range(2):
        for j in range(2):
            nabla[a, j] = sp.project_horizontal(z, spec.generators[j] @ basis[a]) - rot[j] * basis[a]

    def normal_part(u):
        return u - sp.g(u, x1) * x1 - sp.g(u, x2) * x2

    ii = np.empty((2, 2, 3), dtype=complex)
    for a in range(2):
        for b in range(2):
            ii[a, b] = normal_part(coeff[b, 0] * nabla[a, 0] + coeff[b, 1] * nabla[a, 1])
    return basis, ii, ii[0, 0] + ii[1, 1], float(det)


def scalar_orbit_invariants(spec, z, xi):
    """(alpha, beta, a, b, mean_curvature_vec, gram_det) at (z, xi)."""
    basis, ii, mean, det = scalar_orbit_geometry(spec, z)
    sp = spec.space
    s = np.real(np.einsum("abk,k->ab", np.conj(ii) * np.array(sp.hermitian_signature), xi))
    m = 0.5 * (s[0, 0] + s[1, 1])
    d = 0.5 * (s[0, 0] - s[1, 1])
    rad = np.hypot(d, s[0, 1])
    alpha, beta = m + rad, m - rad
    if rad < 1e-14:
        u1, u2 = basis
    else:
        if abs(s[0, 1]) > abs(d):
            e = np.array([s[0, 1], alpha - s[0, 0]])
        else:
            e = np.array([alpha - s[1, 1], s[0, 1]])
        e = e / np.linalg.norm(e)
        u1 = e[0] * basis[0] + e[1] * basis[1]
        u2 = -e[1] * basis[0] + e[0] * basis[1]
    jxi = 1j * xi
    a = abs(sp.g(jxi, u1))
    b = abs(sp.g(jxi, u2))
    return float(alpha), float(beta), a, b, mean, det


def scalar_integrate_one_direction(spec, law, z0, w0, xi0, step, n_steps):
    """RK4 on (z, w, xi); returns (sample rows including t = 0, truncation reason or "")."""
    from hopflab.actions import SingularOrbitError

    sp = spec.space
    kap = sp.kappa

    def gamma_of(z, xi):
        alpha, beta, a, b, mean, det = scalar_orbit_invariants(spec, z, xi)
        return law.target(alpha, beta, a, b), (alpha, beta, a, b, mean, det)

    def rhs(state):
        z, w, xi = state
        g, _ = gamma_of(z, xi)
        return np.stack([w, g * xi - z / kap, -g * w])

    def renorm(state):
        z, w, xi = state
        z = sp.normalize_rep(z)
        w = sp.project_horizontal(z, w)
        w = w / sp.norm(w)
        xi = sp.project_horizontal(z, xi)
        xi = xi - sp.g(xi, w) * w
        xi = xi / sp.norm(xi)
        return np.stack([z, w, xi])

    state = renorm(np.stack([z0, w0, xi0]))
    rows = []
    reason = ""
    for i in range(n_steps + 1):
        z, w, xi = state
        g, (alpha, beta, a, b, mean, det) = gamma_of(z, xi)
        rows.append((z, w, xi, g, alpha, beta, a, b, float(sp.g(mean, xi)), det))
        if i == n_steps:
            break
        try:
            k1 = rhs(state)
            k2 = rhs(state + 0.5 * step * k1)
            k3 = rhs(state + 0.5 * step * k2)
            k4 = rhs(state + step * k3)
            nxt = renorm(state + step / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4))
        except SingularOrbitError:
            reason = f"left the regular set after {i + 1} steps"
            break
        if not spec.is_regular(nxt[0]):
            reason = f"left the regular set after {i + 1} steps"
            break
        state = nxt
    return rows, reason


def scalar_integrate_sigma(spec, z0, w0, law, step=1e-3, n_steps=200, two_sided=True):
    """The scalar integrate_sigma by RK4: one direction at a time, then joined.

    It is the oracle of the retired RK4 row rule, renormalizing every step.
    The lane core's geodesic and austere rows match it to 1e-12. The CMC and
    Levi-flat rows come from Gauss collocation, another order-4 method, so
    the tests pin both them and this oracle to a reference at a finer step.
    """
    from hopflab.actions import rotate90
    from hopflab.constructor import SigmaCurve

    sp = spec.space
    z0 = np.asarray(z0, dtype=complex)
    w0 = np.asarray(w0, dtype=complex)
    w0 = w0 / sp.norm(w0)
    xi0 = rotate90(spec, z0, w0)
    fwd, reason_f = scalar_integrate_one_direction(spec, law, z0, w0, xi0, step, n_steps)
    if two_sided:
        bwd, reason_b = scalar_integrate_one_direction(spec, law, z0, -w0, xi0, step, n_steps)
    else:
        bwd, reason_b = [], ""
    rows = [(r[0], -r[1]) + r[2:] for r in reversed(bwd[1:])] + fwd
    ts = [-(len(bwd) - 1 - k) * step for k in range(len(bwd) - 1)] + \
         [k * step for k in range(len(fwd))]
    cols = list(zip(*rows))
    return SigmaCurve(
        spec=spec, law=law, ts=np.asarray(ts),
        xs=spec.frame_coords(np.array(cols[0])), us=spec.frame_coords(np.array(cols[1])),
        vs=spec.frame_coords(np.array(cols[2])),
        gammas=np.array(cols[3]), alphas=np.array(cols[4]), betas=np.array(cols[5]),
        hopf_a=np.array(cols[6]), hopf_b=np.array(cols[7]), mean_align=np.array(cols[8]),
        step=step, truncation_reason="; ".join(x for x in (reason_f, reason_b) if x))


def scalar_austere_search(spec, grid_coords, tol=2e-3, step=1e-3, n_steps=150,
                          h_floor=1e-8, plane_sine=1e-6):
    """The scalar austere search: probe, integrate and filter one launch at a
    time, and dedupe by the plane of each curve (``in_plane_of``)."""
    from hopflab.constructor import AustereCandidate, CurveLaw

    sp = spec.space
    law = CurveLaw("austere")
    found = []
    probe_steps = max(10, n_steps // 8)

    def consider(z0, w0, start):
        probe = scalar_integrate_sigma(spec, z0, w0, law, step=step, n_steps=probe_steps)
        if float(np.max(np.abs(probe.mean_align))) >= tol:
            return None
        sigma = scalar_integrate_sigma(spec, z0, w0, law, step=step, n_steps=n_steps)
        resid = float(np.max(np.abs(sigma.mean_align)))
        if resid >= tol:
            return None
        if sigma.truncated and len(sigma.ts) < n_steps:
            return None
        if float(np.max(np.abs(sigma.hopf_a - sigma.hopf_b))) > 0.05:
            return None
        return AustereCandidate(curve=sigma, start_coords=np.asarray(start),
                                alignment_residual=resid)

    for q in np.atleast_2d(np.asarray(grid_coords, dtype=float)):
        z0 = spec.section.point(q)
        if not spec.is_regular(z0):
            continue
        _, _, hvec, _ = scalar_orbit_geometry(spec, z0)
        hn = float(sp.norm(hvec))
        if hn > h_floor:
            cands = [hvec / hn]
        else:
            f1, f2 = spec.section.tangent_frame(z0)
            cands = [np.cos(t) * f1 + np.sin(t) * f2
                     for t in np.linspace(0.0, np.pi, 6, endpoint=False)]
        for w0 in cands:
            cand = consider(z0, w0, q)
            if cand is None:
                continue
            if any(in_plane_of(cand.curve, other.curve, plane_sine) for other in found):
                continue
            found.append(cand)
    return found


def in_plane_of(c1, c2, tol):
    """Whether the point and the velocity of c1's middle row both lie in the
    plane of the real frame that c2's middle row spans: each one's 3 x 3
    determinant with that row's x and u, over its length and the area of x
    and u, is the sine of its angle to the plane, and must be below tol."""
    x2, u2 = c2.xs[len(c2.xs) // 2], c2.us[len(c2.us) // 2]
    area = np.sqrt((x2 @ x2) * (u2 @ u2) - (x2 @ u2) ** 2)
    return all(abs(np.linalg.det(np.array([v, x2, u2]))) < tol * np.sqrt(v @ v) * area
               for v in (c1.xs[len(c1.xs) // 2], c1.us[len(c1.us) // 2]))


def eigh_hopf_components(spec, z, xi):
    """(a, b) at (z, xi) from np.linalg.eigh of the scalar shape matrix."""
    basis, ii, _, _ = scalar_orbit_geometry(spec, z)
    sp = spec.space
    s = np.real(np.einsum("abk,k->ab", np.conj(ii) * np.array(sp.hermitian_signature), xi))
    _, vecs = np.linalg.eigh(s, UPLO="U")          # ascending: beta, alpha
    jxi = np.array([sp.g(1j * xi, basis[0]), sp.g(1j * xi, basis[1])])
    return abs(vecs[:, 1] @ jxi), abs(vecs[:, 0] @ jxi)


# -- one-point covariant differences ---------------------------------------------
# Frozen copies of frame_derivative_data and verify_gauss_codazzi from before
# hopflab.hypersurface routed them through SpaceForm.covariant_difference and
# batched their stencils: every displaced frame is a one-point chart call,
# every displacement a one-point Gram solve, and every covariant difference is
# written out by hand. Tests pin the batched versions against them.


def _phases(sp, z_ref, z):
    w = sp.herm(z_ref, z)
    return np.sign(sp.kappa) * np.conj(w) / np.abs(w)


def pointwise_tangent_param_coords(sd, n, u):
    """Coordinates c with u = sum_k c_k v_k at point n (solve the Gram system)."""
    sp = sd.space
    v = sd.frames.v[n]
    g = np.real(sp.herm(v[:, None, :], v[None, :, :]))
    rhs = np.array([sp.g(v[k], u) for k in range(3)])
    return np.linalg.solve(g, rhs)


def pointwise_displaced_params(sd, n, u, step):
    c = pointwise_tangent_param_coords(sd, n, u)
    p0 = sd.frames.params[n]
    return p0 + step * c, p0 - step * c


def scalar_frame_derivative_data(patch, sd, n, step=1e-3, fd_patch=None):
    """Directional derivatives of (alpha, beta, gamma, a, b) and the frame
    fields along U, V, A, plus covariant derivatives nabla_X Y for
    X, Y in {U, V, A}. Returns (frame, scalars dict, nabla dict, extras).

    Displaced frames are evaluated on a coarser-step twin patch so that the
    differencing amplifies ~1e-9 noise instead of ~1e-8.
    """
    from hopflab.hypersurface import FD_FRAME_STEP, shape_data

    sp = sd.space
    if fd_patch is None:
        fd_patch = replace(patch, diff_step=max(patch.diff_step, FD_FRAME_STEP))
    fr = pointwise_frame_of(sd, n)
    dirs = {"U": fr.U, "V": fr.V, "A": fr.A}
    frames_pm = {}
    for name, u in dirs.items():
        pp, pm = pointwise_displaced_params(sd, n, u, step)
        sd_p = shape_data(fd_patch, pp[None])
        sd_m = shape_data(fd_patch, pm[None])
        frames_pm[name] = (pointwise_frame_of(sd_p, 0), sd_p, pointwise_frame_of(sd_m, 0), sd_m)
    scalars = {}
    for name in dirs:
        frp, _, frm, _ = frames_pm[name]
        for attr in ("alpha", "beta", "gamma", "a", "b"):
            scalars[f"{name}{attr}"] = (getattr(frp, attr) - getattr(frm, attr)) / (2.0 * step)
    nabla = {}
    z0 = sd.frames.z[n]
    xi0 = sd.frames.xi[n]
    for xname, u in dirs.items():
        pp, pm = pointwise_displaced_params(sd, n, u, step)
        frp, sd_p, frm, sd_m = frames_pm[xname]
        up = _phases(sp, z0, sd_p.frames.z[0])
        um = _phases(sp, z0, sd_m.frames.z[0])
        zdot = (up * sd_p.frames.z[0] - um * sd_m.frames.z[0]) / (2.0 * step)
        for yname in dirs:
            wp = up * getattr(frp, yname)
            wm = um * getattr(frm, yname)
            wdot = (wp - wm) / (2.0 * step)
            vec = sp.project_horizontal(z0, wdot) - (sp.herm(z0, zdot) / sp.kappa) * dirs[yname]
            vec = sp.project_horizontal(z0, vec)
            tang = vec - sp.g(vec, xi0) * xi0
            nabla[(xname, yname)] = tang
    return fr, scalars, nabla, frames_pm


def scalar_verify_gauss_codazzi(patch, params, rng=None, n_random=20,
                                step=None, shape_perturbation=None) -> dict:
    """Residuals of the Gauss and Codazzi equations at one parameter point.

    The intrinsic curvature R(X,Y)Z and the covariant derivative of S are
    computed by nested central differences on coordinate fields; the ambient
    curvature uses the closed form. ``shape_perturbation`` (a 3x3 symmetric
    array added to S in the E basis) exists for negative controls in tests.
    """
    from hopflab.hypersurface import frames_at, shape_data

    sp = patch.space
    rng = np.random.default_rng(0) if rng is None else rng
    params = np.atleast_2d(np.asarray(params, dtype=float))[0]
    h = step if step is not None else max(patch.diff_step * 10, 5e-4)
    sd0 = shape_data(patch, params[None])

    def perturbed_S(sd, n=0):
        s = sd.S[n]
        if shape_perturbation is not None:
            s = s + np.asarray(shape_perturbation)
        return s

    def tangents_at(p):
        return frames_at(patch, p[None])

    def nabla_coord_field(p, i, k):
        """nabla_{v_i} v_k at p (tangential), via covariant FD."""
        fz = tangents_at(p)
        z0, v0, xi0 = fz.z[0], fz.v[0], fz.xi[0]
        pp = p.copy(); pp[i] += h
        pm = p.copy(); pm[i] -= h
        fp = tangents_at(pp)
        fm = tangents_at(pm)
        up = _phases(sp, z0, fp.z[0])
        um = _phases(sp, z0, fm.z[0])
        wdot = (up * fp.v[0, k] - um * fm.v[0, k]) / (2 * h)
        zdot = (up * fp.z[0] - um * fm.z[0]) / (2 * h)
        vec = sp.project_horizontal(z0, wdot) - (sp.herm(z0, zdot) / sp.kappa) * v0[k]
        vec = sp.project_horizontal(z0, vec)
        return vec - sp.g(vec, xi0) * xi0, fz

    # second covariant derivatives of coordinate fields: R(v_i, v_j)v_k
    def curv_coord(i, j, k):
        def F(p, a, b):
            return nabla_coord_field(p, a, b)[0]

        z0 = sd0.frames.z[0]
        xi0 = sd0.frames.xi[0]

        def outer(a, bfun_idx):
            pp = params.copy(); pp[a] += h
            pm = params.copy(); pm[a] -= h
            wp = F(pp, *bfun_idx)
            wm = F(pm, *bfun_idx)
            zp = patch.eval(pp[None])[0]
            zm = patch.eval(pm[None])[0]
            up = _phases(sp, z0, zp)
            um = _phases(sp, z0, zm)
            wdot = (up * wp - um * wm) / (2 * h)
            zdot = (up * zp - um * zm) / (2 * h)
            w0 = F(params, *bfun_idx)
            vec = sp.project_horizontal(z0, wdot) - (sp.herm(z0, zdot) / sp.kappa) * w0
            vec = sp.project_horizontal(z0, vec)
            return vec - sp.g(vec, xi0) * xi0

        return outer(i, (j, k)) - outer(j, (i, k))

    v = sd0.frames.v[0]
    xi = sd0.frames.xi[0]
    E = sd0.E[0]
    curv = {}
    for i in range(3):
        for j in range(i + 1, 3):
            for k in range(3):
                curv[(i, j, k)] = curv_coord(i, j, k)

    def r_intrinsic(ci, cj, ck):
        out = np.zeros(3, dtype=complex)
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                sgn = 1.0 if i < j else -1.0
                key = (min(i, j), max(i, j))
                for k in range(3):
                    out = out + sgn * ci[i] * cj[j] * ck[k] * curv[(key[0], key[1], k)]
        return out

    # Codazzi pieces: nabla_{v_i}(S v_j) fields
    def shape_apply_at(p, j):
        sd = shape_data(patch, p[None])
        coords = np.array([sp.g(sd.frames.v[0, j], sd.E[0, a]) for a in range(3)])
        out = perturbed_S(sd) @ coords
        return np.einsum("a,ak->k", out, sd.E[0])

    def nabla_S_field(i, j):
        z0 = sd0.frames.z[0]
        xi0 = sd0.frames.xi[0]
        pp = params.copy(); pp[i] += h
        pm = params.copy(); pm[i] -= h
        wp = shape_apply_at(pp, j)
        wm = shape_apply_at(pm, j)
        zp = patch.eval(pp[None])[0]
        zm = patch.eval(pm[None])[0]
        up = _phases(sp, z0, zp)
        um = _phases(sp, z0, zm)
        wdot = (up * wp - um * wm) / (2 * h)
        zdot = (up * zp - um * zm) / (2 * h)
        w0 = shape_apply_at(params, j)
        vec = sp.project_horizontal(z0, wdot) - (sp.herm(z0, zdot) / sp.kappa) * w0
        vec = sp.project_horizontal(z0, vec)
        return vec - sp.g(vec, xi0) * xi0

    def s_apply(u):
        coords = np.array([sp.g(u, E[a]) for a in range(3)])
        return np.einsum("a,ak->k", perturbed_S(sd0) @ coords, E)

    nabla_sv = {}
    nabla_vv = {}
    for i in range(3):
        for j in range(3):
            nabla_sv[(i, j)] = nabla_S_field(i, j)
            nabla_vv[(i, j)] = nabla_coord_field(params, i, j)[0]

    def nabla_S(i, j):
        """(nabla_{v_i} S) v_j."""
        return nabla_sv[(i, j)] - s_apply(nabla_vv[(i, j)])

    gauss_worst = 0.0
    codazzi_worst = 0.0
    for _ in range(n_random):
        ci, cj, ck, cl = rng.standard_normal((4, 3))
        X = ci @ v; Y = cj @ v; Z = ck @ v; Wv = cl @ E
        nx = max(sp.norm(X), 1e-9); ny = max(sp.norm(Y), 1e-9)
        nz = max(sp.norm(Z), 1e-9); nw = max(sp.norm(Wv), 1e-9)
        rbar = sp.curvature(X, Y, Z)
        # Codazzi: <Rbar(X,Y)Z, xi> = <(nabla_X S)Y - (nabla_Y S)X, Z>
        lhs = sp.g(rbar, xi)
        nsx = np.zeros(3, dtype=complex)
        nsy = np.zeros(3, dtype=complex)
        for i in range(3):
            for j in range(3):
                nsx = nsx + ci[i] * cj[j] * nabla_S(i, j)
                nsy = nsy + cj[i] * ci[j] * nabla_S(i, j)
        rhs = sp.g(nsx - nsy, Z)
        codazzi_worst = max(codazzi_worst, abs(lhs - rhs) / (nx * ny * nz))
        # Gauss: <Rbar(X,Y)Z, W> = <R(X,Y)Z, W> + <SX,Z><SY,W> - <SX,W><SY,Z>
        rint = r_intrinsic(ci, cj, ck)
        sx, sy = s_apply(X), s_apply(Y)
        grhs = (sp.g(rint, Wv) + sp.g(sx, Z) * sp.g(sy, Wv)
                - sp.g(sx, Wv) * sp.g(sy, Z))
        glhs = sp.g(rbar, Wv)
        gauss_worst = max(gauss_worst, abs(glhs - grhs) / (nx * ny * nz * nw))
    return {"gauss": float(gauss_worst), "codazzi": float(codazzi_worst),
            "params": params.tolist(), "step": h}


# -- two-call shape data and 49-point Gauss-Codazzi frames ------------------------
# Frozen copies of shape_data and verify_gauss_codazzi from before the nested
# stencil (p + o_a) + o_b was evaluated once per distinct cell: shape_data
# makes two frames_at calls (at p and at the six p + o_a), each evaluating its
# own 7-point stencils, and the Gauss-Codazzi verifier computes frames at all
# 49 nested points. Tests pin the gathered versions against them bit for bit.


def two_call_shape_data(patch, params):
    """shape_data with one frames_at call at p and one at the six p + o_a."""
    from hopflab.hypersurface import (ShapeData, _central_offsets,
                                      _gram_schmidt_with_coeffs, frames_at)

    sp = patch.space
    params = np.atleast_2d(np.asarray(params, dtype=float))
    n = params.shape[0]
    h = patch.diff_step
    base = frames_at(patch, params)
    displaced = (params[:, None, :] + _central_offsets(h)[None, 1:, :]).reshape(-1, 3)
    disp = frames_at(patch, displaced)
    xi_d = disp.xi.reshape(n, 6, 3)
    z_d = disp.z.reshape(n, 6, 3)
    u = sp.phase_align(base.z[:, None, :], z_d)
    xi_al = u[..., None] * xi_d
    nabla_xi = np.empty((n, 3, 3), dtype=complex)
    for k in range(3):
        d = (xi_al[:, 2 * k] - xi_al[:, 2 * k + 1]) / (2.0 * h)
        nabla_xi[:, k] = sp.project_horizontal(base.z, d)
    E, W = _gram_schmidt_with_coeffs(sp, base.v)
    st = -np.real(sp.herm(nabla_xi[:, :, None, :], E[:, None, :, :]))
    s = np.einsum("nka,nkb->nab", W, st)
    asym = np.abs(s - np.swapaxes(s, 1, 2)).max(axis=(1, 2))
    s = 0.5 * (s + np.swapaxes(s, 1, 2))
    vals, vecs = np.linalg.eigh(s)
    vals = vals[:, ::-1]
    vecs = vecs[:, :, ::-1]
    ambient = np.einsum("nai,nak->nik", vecs, E)
    return ShapeData(space=sp, frames=base, E=E, S=s, eigvals=vals, eigvecs=ambient, asym=asym)


def nested_49_verify_gauss_codazzi(patch, params, rng=None, n_random=20,
                                   shape_perturbation=None) -> dict:
    """verify_gauss_codazzi with frames at all 49 nested points and the
    two-call shape data."""
    from hopflab.hypersurface import _central_offsets, frames_at

    sp = patch.space
    rng = np.random.default_rng(0) if rng is None else rng
    params = np.atleast_2d(np.asarray(params, dtype=float))[0]
    h = max(patch.diff_step * 10, 5e-4)
    offsets = _central_offsets(h)
    inner = params + offsets
    fz = frames_at(patch, (inner[:, None, :] + offsets).reshape(-1, 3))
    z, v, xi = fz.z.reshape(7, 7, 3), fz.v.reshape(7, 7, 3, 3), fz.xi.reshape(7, 7, 3)
    sd = two_call_shape_data(patch, inner)
    z0, xi0 = sd.frames.z[0], sd.frames.xi[0]
    E0 = sd.E[0]
    S = sd.S if shape_perturbation is None else sd.S + np.asarray(shape_perturbation)

    def tangential(vec, normal):
        return vec - sp.g(vec, normal)[..., None] * normal

    def along_axes(w):
        zs = sd.frames.z.reshape((7,) + (1,) * (w.ndim - 2) + (3,))
        return tangential(sp.covariant_difference(
            z0, w[0], zs[1::2], w[1::2], zs[2::2], w[2::2], h), xi0)

    nvv = tangential(sp.covariant_difference(
        z[:, 0, None, None], v[:, 0, None], z[:, 1::2, None], v[:, 1::2],
        z[:, 2::2, None], v[:, 2::2], h), xi[:, 0, None, None])
    outer = along_axes(nvv)
    curv = outer - outer.transpose(1, 0, 2, 3)

    def s_apply(u):
        coords = sp.g(u[..., None, :], E0)
        return np.einsum("...a,ak->...k", coords @ S[0].T, E0)

    coords = sp.g(sd.frames.v[:, :, None, :], sd.E[:, None, :, :])
    sv = np.einsum("njb,nab,nak->njk", coords, S, sd.E)
    nabla_s = along_axes(sv) - s_apply(nvv[0])

    ci, cj, ck, cl = np.moveaxis(rng.standard_normal((n_random, 4, 3)), 1, 0)
    v0 = sd.frames.v[0]
    X, Y, Z, Wv = ci @ v0, cj @ v0, ck @ v0, cl @ E0
    nx, ny, nz, nw = (np.maximum(sp.norm(u), 1e-9) for u in (X, Y, Z, Wv))
    rbar = sp.curvature(X, Y, Z)
    nsxy = np.einsum("ri,rj,ijk->rk", ci, cj, nabla_s - nabla_s.transpose(1, 0, 2))
    codazzi = np.abs(sp.g(rbar, xi0) - sp.g(nsxy, Z)) / (nx * ny * nz)
    rint = np.einsum("ri,rj,rk,ijkl->rl", ci, cj, ck, curv)
    sx, sy = s_apply(X), s_apply(Y)
    grhs = sp.g(rint, Wv) + sp.g(sx, Z) * sp.g(sy, Wv) - sp.g(sx, Wv) * sp.g(sy, Z)
    gauss = np.abs(sp.g(rbar, Wv) - grhs) / (nx * ny * nz * nw)
    return {"gauss": float(np.max(gauss, initial=0.0)),
            "codazzi": float(np.max(codazzi, initial=0.0)),
            "params": params.tolist(), "step": h}


# -- per-point group orbit kernel ------------------------------------------------
# Frozen copy of hopflab._kernels.pure.group_orbit_apply from before it
# exponentiated each distinct (s1, s2) pair once: one matrix per point.


def pointwise_group_orbit_apply(g1, g2, s1, s2, z):
    s1 = np.asarray(s1, dtype=np.float64)
    s2 = np.asarray(s2, dtype=np.float64)
    z = np.asarray(z, dtype=np.complex128)
    ms = s1[:, None, None] * np.asarray(g1) + s2[:, None, None] * np.asarray(g2)
    return np.einsum("nij,nj->ni", expm3_batch(ms), z)


# -- per-point adapted frame -----------------------------------------------------
# Frozen copies of the per-point helpers hopflab.hypersurface used before
# adapted_frames batched them over the point axis: clusters by a Python walk
# down the spectrum, J xi projections, the h = 2 frame with its isolation
# choice, and the Levi scalar and ruled residual on the complex distribution.


def pointwise_clusters(vals):
    spread = float(vals[0] - vals[-1])
    thr = TAU_MULT * max(spread, 1e-6)
    groups = [[0]]
    for i in range(1, len(vals)):
        if vals[i - 1] - vals[i] > thr:
            groups.append([i])
        else:
            groups[-1].append(i)
    return tuple(tuple(g) for g in groups)


def pointwise_cluster_projections(sd, n):
    clusters = pointwise_clusters(sd.eigvals[n])
    coords = np.array([float(np.real(sd.space.herm(sd.eigvecs[n, i], 1j * sd.frames.xi[n])))
                       for i in range(3)])
    norms = [float(np.sqrt(np.sum(coords[list(cl)] ** 2))) for cl in clusters]
    return clusters, coords, norms


def pointwise_h_of(sd, n):
    _, _, norms = pointwise_cluster_projections(sd, n)
    return int(sum(1 for x in norms if x > TAU_PROJ))


@dataclass(frozen=True, eq=False)
class PointwiseFrame:
    """Orthonormal frame {U, V, A} with J xi = a U + b V (a, b > 0) at one point."""

    U: np.ndarray
    V: np.ndarray
    A: np.ndarray
    xi: np.ndarray
    a: float
    b: float
    alpha: float
    beta: float
    gamma: float
    residuals: dict


def pointwise_frame_of(sd, n):
    from hopflab.hypersurface import FrameError

    sp = sd.space
    clusters, coords, norms = pointwise_cluster_projections(sd, n)
    proj_idx = [i for i, x in enumerate(norms) if x > TAU_PROJ]
    if len(proj_idx) != 2:
        raise FrameError(f"adapted frame needs h = 2, found h = {len(proj_idx)}")
    ca, cb = proj_idx[0], proj_idx[1]

    def cluster_vec(cl):
        vec = np.zeros(3, dtype=complex)
        for i in cl:
            vec += coords[i] * sd.eigvecs[n, i]
        return vec

    def isolation(cl):
        ins = [sd.eigvals[n, i] for i in cl]
        outs = [sd.eigvals[n, i] for c2 in clusters for i in c2 if i not in cl]
        return min(abs(x - y) for x in ins for y in outs) if outs else np.inf

    full = cluster_vec(range(3))
    if isolation(clusters[ca]) >= isolation(clusters[cb]):
        uvec = cluster_vec(clusters[ca])
        vvec = full - uvec
    else:
        vvec = cluster_vec(clusters[cb])
        uvec = full - vvec
    a = float(sp.norm(uvec))
    b = float(sp.norm(vvec))
    U = uvec / a
    V = vvec / b
    alpha = float(np.mean([sd.eigvals[n, i] for i in clusters[ca]]))
    beta = float(np.mean([sd.eigvals[n, i] for i in clusters[cb]]))
    xi = sd.frames.xi[n]
    A = -(1j * U + a * xi) / b
    acoords = np.array([sp.g(A, sd.E[n, k]) for k in range(3)])
    gamma = float(acoords @ sd.S[n] @ acoords)
    jxi = 1j * xi
    res = {
        "frame_jxi": float(sp.norm(jxi - a * U - b * V)),
        "frame_ju": float(sp.norm(1j * U + b * A + a * xi)),
        "frame_jv": float(sp.norm(1j * V - a * A + b * xi)),
        "frame_ja": float(sp.norm(1j * A - b * U + a * V)),
        "a2b2": float(abs(a * a + b * b - 1.0)),
        "A_unit": float(abs(sp.norm(A) - 1.0)),
    }
    return PointwiseFrame(U=U, V=V, A=A, xi=xi, a=a, b=b,
                          alpha=alpha, beta=beta, gamma=gamma, residuals=res)


def pointwise_complex_distribution_basis(sd, n):
    sp = sd.space
    jxi = 1j * sd.frames.xi[n]
    best, best_norm = None, -1.0
    for a in range(3):
        cand = sd.E[n, a] - sp.g(sd.E[n, a], jxi) * jxi
        nn = float(sp.norm(cand))
        if nn > best_norm:
            best, best_norm = cand, nn
    return best / best_norm


def pointwise_apply_S(sd, n, u):
    sp = sd.space
    coords = np.array([sp.g(u, sd.E[n, a]) for a in range(3)])
    out_coords = sd.S[n] @ coords
    return np.einsum("a,ak->k", out_coords, sd.E[n])


def pointwise_levi_scalar(sd, n):
    x = pointwise_complex_distribution_basis(sd, n)
    sp = sd.space
    return float(sp.g(pointwise_apply_S(sd, n, x), x)
                 + sp.g(pointwise_apply_S(sd, n, 1j * x), 1j * x))


def pointwise_ruled_residual(sd, n):
    sp = sd.space
    jxi = 1j * sd.frames.xi[n]
    x = pointwise_complex_distribution_basis(sd, n)
    worst = 0.0
    for u in (x, 1j * x):
        su = pointwise_apply_S(sd, n, u)
        worst = max(worst, float(sp.norm(su - sp.g(su, jxi) * jxi)))
    return worst


# -- one-point h = 2 checks ------------------------------------------------------
# Frozen copies of hypersurface.verify_connection_formulas, hopf_cmc_relation_check
# and bracket_by_flows from before they were batched. Each reads one point. The
# connection check makes its own frame_derivative_data call per table. The
# bracket runs the + and - commutator loops one after the other, with one
# shape_data call per RK4 stage for the field and another for the Gram solve.


def pointwise_verify_connection_formulas(patch, params, mode):
    """(max entry residual, max identity residual, skipped) of one table at one point."""
    from hopflab.hypersurface import (_derivative_identities_generic,
                                      _derivative_identities_strong, _nabla_table_generic,
                                      _nabla_table_strong, frame_derivative_data, shape_data)

    sd = shape_data(patch, np.atleast_2d(params)[:1])
    vals = sd.eigvals[0]
    spread = max(float(vals[0] - vals[2]), 1e-6)
    min_gap = min(vals[0] - vals[1], vals[1] - vals[2])
    af, scalars, nabla = frame_derivative_data(patch, sd, [0])
    fr = PointwiseFrame(U=af.U[0], V=af.V[0], A=af.A[0], xi=af.xi[0],
                        a=float(af.a[0]), b=float(af.b[0]), alpha=float(af.alpha[0]),
                        beta=float(af.beta[0]), gamma=float(af.gamma[0]), residuals={})
    s = {key: float(val[0]) for key, val in scalars.items()}
    c = patch.space.c
    if mode == "generic" and min_gap < 10 * TAU_MULT * spread:
        return 0.0, 0.0, True
    table = _nabla_table_strong(c, fr) if mode == "strong" else _nabla_table_generic(c, fr, s)
    sp = sd.space
    worst = 0.0
    for (xn, yn), coeffs in table.items():
        rhs = coeffs[0] * fr.U + coeffs[1] * fr.V + coeffs[2] * fr.A
        scale = max(1.0, float(sp.norm(rhs)))
        worst = max(worst, float(sp.norm(nabla[(xn, yn)][0] - rhs)) / scale)
    idents = (_derivative_identities_strong(c, fr, s) if mode == "strong"
              else _derivative_identities_generic(c, fr, s))
    worst_i = 0.0
    for lhs, terms in idents.values():
        worst_i = max(worst_i, abs(lhs - sum(terms)) / max(1.0, sum(abs(t) for t in terms)))
    return worst, worst_i, False


def pointwise_hopf_cmc_relation(sd, n):
    """|2 alpha (beta+gamma) - 4 beta gamma + c| at the Hopf point n of sd."""
    h = pointwise_h_of(sd, n)
    assert h == 1, h
    clusters, _, norms = pointwise_cluster_projections(sd, n)
    hopf = list(clusters[int(np.argmax(norms))])
    alpha = float(np.mean(sd.eigvals[n, hopf]))
    others = [float(sd.eigvals[n, i]) for i in range(3) if i not in hopf]
    others += [alpha] * (2 - len(others))   # the Hopf cluster's multiplicity repeats alpha
    beta, gamma = others
    return abs(2.0 * alpha * (beta + gamma) - 4.0 * beta * gamma + sd.space.c)


def pointwise_bracket_by_flows(patch, params, x_field, y_field, step=1e-3, rk_steps=2):
    from hopflab.ambient import rk4_step
    from hopflab.hypersurface import shape_data, tangent_param_coords

    sd = shape_data(patch, np.atleast_2d(params)[:1])
    p0 = sd.frames.params[0]

    def flow(p, name, time):
        def vel(_, q):
            field = getattr(pointwise_frame_of(shape_data(patch, q[None]), 0), name)
            return tangent_param_coords(shape_data(patch, q[None]), field[None, None])[0, 0]

        for _ in range(rk_steps):
            p = rk4_step(vel, 0.0, p, time / rk_steps)
        return p

    def loop(sign):
        s = sign * step
        q = flow(p0, x_field, s)
        q = flow(q, y_field, s)
        q = flow(q, x_field, -s)
        return flow(q, y_field, -s)

    coords = (0.5 * (loop(+1.0) + loop(-1.0)) - p0) / (step * step)
    v = sd.frames.v[0]
    vec = coords[0] * v[0] + coords[1] * v[1] + coords[2] * v[2]
    return sd.space.project_horizontal(sd.frames.z[0], vec)


# -- per-point section II ---------------------------------------------------------
# Frozen copy of SectionChart.second_fundamental_form_residual from before it
# was batched over coordinates: one point at a time, each coordinate line's
# phases and differences written out by hand. Tests pin the batched version
# against it bit for bit.


def pointwise_section_II_residual(chart, u) -> float:
    """Max norm of the section chart's II at one coordinate pair u (2,)."""
    sp = chart.space
    step = 1e-4
    u = np.asarray(u, dtype=float)
    z0 = chart.point(u)
    f10, f20 = chart.tangent_frame(z0)
    worst = 0.0
    for i, di in enumerate(np.eye(2)):
        zp = chart.point(u + step * di)
        zm = chart.point(u - step * di)
        up = sp.phase_align(z0, zp)
        um = sp.phase_align(z0, zm)
        for which in range(2):
            fp = chart.tangent_frame(zp)[which] * up
            fm = chart.tangent_frame(zm)[which] * um
            nab = sp.project_horizontal(z0, (fp - fm) / (2 * step))
            nor = nab - sp.g(nab, f10) * f10 - sp.g(nab, f20) * f20
            vel = sp.project_horizontal(z0, (up * zp - um * zm) / (2 * step))
            speed = max(float(sp.norm(vel)), 1e-12)
            worst = max(worst, float(sp.norm(nor)) / speed)
    return worst


# -- per-seed Hausdorff scan -----------------------------------------------------
# Frozen copy of the Nelder-Mead search that the austere suite ran before the
# closed-form catalog.clifford_cone_distances: from the nearest of a 4x4x4
# seed grid on the cone patch's box, with one chart evaluation and one
# distance per seed and probe.


def pointwise_seed_distances(sp, patch, probes):
    """The seed grid and, per probe, the list of its distances to each seed."""
    box = patch.box
    seeds = patch.grid((4, 4, 4), margin=0.05)
    dists = []
    for z in probes:
        def obj(q):
            qq = np.clip(q, [b[0] for b in box], [b[1] for b in box])
            return float(sp.dist(patch.eval(qq[None])[0], z))

        dists.append([obj(s) for s in seeds])
    return seeds, dists


def pointwise_one_sided_hausdorff(ehs, cone_entry, n_probe=5):
    from scipy.optimize import minimize

    sp = ehs.space
    probes = ehs.patch.eval(ehs.patch.grid((n_probe, 1, 1), margin=0.2))
    box = cone_entry.patch.box
    seeds, dists = pointwise_seed_distances(sp, cone_entry.patch, probes)
    worst = 0.0
    for z, d0 in zip(probes, dists):
        def obj(q):
            qq = np.clip(q, [b[0] for b in box], [b[1] for b in box])
            return float(sp.dist(cone_entry.patch.eval(qq[None])[0], z))

        best = seeds[int(np.argmin(d0))]
        r = minimize(obj, best, method="Nelder-Mead",
                     options={"xatol": 1e-12, "fatol": 1e-16, "maxiter": 600})
        worst = max(worst, float(r.fun))
    return worst


# -- sampled Hopf zero set -------------------------------------------------------
# Frozen copy of hopflab.actions.hopf_directions from before it solved the
# Phi cubic: sign-change brackets on a uniform sample of Phi, each refined by
# scalar bisection. It sees only zeros of odd multiplicity, and a triple zero
# only to about the cube root of the bisection tolerance.


def sampled_hopf_directions(spec, z, n_samples=720, tol=1e-10):
    from hopflab.actions import phi_profile

    if n_samples < 90:
        raise ValueError("n_samples must be at least 90")
    thetas = np.linspace(0.0, 2.0 * np.pi, n_samples, endpoint=False)
    vals = phi_profile(spec, z, thetas)
    if np.max(np.abs(vals)) < max(tol, 1e-6):
        raise ValueError("Phi is numerically zero on the whole circle")

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


def cofactor_unit_normal(sp, z, v, orientation):
    """Oriented unit normal and gram determinant by the complex-frame cofactor route.

    Kept frozen as the reference for hypersurface._unit_normal: a unitary
    basis (f1, f2) of the horizontal space at z chosen by argmax over the
    projected coordinate axes, the normal's real coordinates in (f1, i f1,
    f2, i f2) as the four signed 3x3 cofactors of the velocities'
    coordinates, and np.linalg.det of the 3x3 gram of v1, v2, v3.
    """
    n = z.shape[0]
    eye = np.eye(3, dtype=complex)
    cands = np.stack([np.broadcast_to(eye[i], (n, 3)) for i in range(3)], axis=1)
    proj = sp.project_horizontal(z[:, None, :], cands)
    norms = np.real(sp.herm(proj, proj))
    best = np.argmax(norms, axis=1)
    f1 = np.take_along_axis(proj, best[:, None, None], axis=1)[:, 0]
    f1 = f1 / np.sqrt(np.real(sp.herm(f1, f1)))[:, None]
    rest = proj - sp.herm(f1[:, None, :], proj)[..., None] * f1[:, None, :]
    rnorms = np.real(sp.herm(rest, rest))
    rnorms[np.arange(n), best] = -1.0
    best2 = np.argmax(rnorms, axis=1)
    f2 = np.take_along_axis(rest, best2[:, None, None], axis=1)[:, 0]
    f2 = f2 / np.sqrt(np.real(sp.herm(f2, f2)))[:, None]

    def coords(u):
        a = sp.herm(f1, u)
        b = sp.herm(f2, u)
        return np.stack([a.real, a.imag, b.real, b.imag], axis=-1)

    def det3(a, b, c):
        return (a[..., 0] * (b[..., 1] * c[..., 2] - b[..., 2] * c[..., 1])
                - a[..., 1] * (b[..., 0] * c[..., 2] - b[..., 2] * c[..., 0])
                + a[..., 2] * (b[..., 0] * c[..., 1] - b[..., 1] * c[..., 0]))

    rows = np.stack([coords(v[:, k]) for k in range(3)], axis=-1)   # (N, 4, 3)
    r0, r1, r2, r3 = rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]
    xi = ((-det3(r1, r2, r3) + 1j * det3(r0, r2, r3))[:, None] * f1
          + (-det3(r0, r1, r3) + 1j * det3(r0, r1, r2))[:, None] * f2)
    xi = orientation * xi / sp.norm(xi)[:, None]
    gram = np.linalg.det(np.real(sp.herm(v[:, :, None, :], v[:, None, :, :])))
    return xi, gram


# Frozen copy of strongly_2hopf_certify from before its h-grid read the exact
# equivariant shape data: finite-difference shape data on the whole grid,
# with the derivative sample indexed into it. Tests pin the certificate's
# finite-difference residuals and its sample against it bit for bit.


def fd_grid_strongly_2hopf_certify(ehs, grid_shape=(20, 5, 5)):
    """(residuals, derivative sample indices) of the finite-difference h-grid route."""
    from hopflab.actions import orbit_geometry
    from hopflab.constructor import DERIVATIVE_POINTS
    from hopflab.hypersurface import (adapted_frames, d_invariants, frame_derivative_data,
                                      shape_data)

    patch = ehs.patch
    sp = ehs.space
    grid = patch.grid(grid_shape, margin=0.02)
    sd = shape_data(patch, grid)
    hs = adapted_frames(sd).h
    res = {"h_values": sorted(set(int(x) for x in hs)),
           "h2_fraction": float((hs == 2).mean())}
    idx2 = np.flatnonzero(hs == 2).tolist()
    centers = np.array([0.5 * (lo + hi) for lo, hi in patch.box])
    spans = np.array([max(hi - lo, 1e-12) for lo, hi in patch.box])
    cornerness = (np.abs(grid - centers) / spans).max(axis=1)
    idx2 = sorted(idx2, key=lambda i: (cornerness[i], i))
    stride = max(1, len(idx2) // DERIVATIVE_POINTS)
    sample = idx2[::stride][:DERIVATIVE_POINTS]
    af, scalars, nabla = frame_derivative_data(patch, sd, sample)
    integ, spec_const = (float(np.max(x, initial=0.0))
                         for x in d_invariants(sp, af, scalars, nabla))
    geo = orbit_geometry(ehs.spec, sd.frames.z[sample])
    x1, x2 = geo.basis[:, None, 0], geo.basis[:, None, 1]
    d = np.stack([af.U, af.V], axis=1)
    out = d - sp.g(d, x1)[..., None] * x1 - sp.g(d, x2)[..., None] * x2
    res["integrability"] = integ
    res["spectrum_constancy_D"] = spec_const
    res["orbit_tangency"] = float(np.max(sp.norm(out), initial=0.0))
    half = max(1, len(sample) // 2)
    x1, x2 = geo.basis[:half, 0], geo.basis[:half, 1]
    ii = geo.second_fundamental[:half]
    k_amb = sp.g(sp.curvature(x1, x2, x2), x1)
    k_leaf = k_amb + np.real(sp.herm(ii[:, 0, 0], ii[:, 1, 1]) - sp.herm(ii[:, 0, 1], ii[:, 0, 1]))
    res["leaf_intrinsic_curvature"] = float(np.max(np.abs(k_leaf), initial=0.0))
    res["leaf_totally_real_defect"] = float(np.max(np.abs(sp.g(1j * x1, x2)), initial=0.0))
    res["nabla_AA"] = float(np.max(sp.norm(nabla[("A", "A")][:2]), initial=0.0))
    return res, sample


# the quintic-Hermite basis of the swept curve, as it stood when the chart
# took every curve's rows' velocities as its knot velocities: per weight
# x_i, h u_i, h^2 acc_i, x_{i+1}, h u_{i+1}, h^2 acc_{i+1}, the coefficients
# of tau^0 to tau^5, and their k-th tau-derivatives as (c, p) terms c tau^p
# with the weight of x_{i+1} left out past k = 0
ROWS_QUINTIC = np.array([[1, 0, 0, -10, 15, -6], [0, 1, 0, -6, 8, -3],
                         [0, 0, 0.5, -1.5, 1.5, -0.5], [0, 0, 0, 10, -15, 6],
                         [0, 0, 0, -4, 7, -3], [0, 0, 0, 0.5, -1, 0.5]])
ROWS_QUINTIC_TERMS = [[[(float(c) * math.perm(p, k), p - k) for p, c in enumerate(row)
                        if c and p >= k]
                       for j, row in enumerate(ROWS_QUINTIC) if not (k and j == 3)]
                      for k in range(3)]


def rows_velocity_quintic(sigma, t, order):
    """The swept curve of ``sigma`` at times t, up to its ``order``-th derivative,
    with the rows' own velocities at the knots: a frozen copy of
    ``SigmaCurve.swept`` from before collocated curves refit their velocities.
    A pregeodesic curve keeps its rows' velocities, so its swept curve must
    equal this one bit for bit."""
    ts, h = sigma.ts, sigma.ts[1] - sigma.ts[0]
    t = np.asarray(t, dtype=float)
    idx = np.clip(np.floor((t - ts[0]) / h).astype(int), 0, len(ts) - 2)
    ends = np.add.outer((0, 1), idx)
    x, u = sigma.xs[ends], sigma.us[ends] * h
    acc = (sigma.gammas[ends][..., None] * sigma.vs[ends]
           - x * (1.0 / sigma.space.kappa)) * h * h
    weights = [x[0], u[0], acc[0], x[1], u[1], acc[1]]
    tau = ((t - ts[idx]) / h)[..., None]
    powers = (1.0, tau, tau * tau, tau ** 3, tau ** 4, tau ** 5)
    out = []
    for k in range(order + 1):
        basis = [sum(terms[1:], terms[0]) for terms in
                 [[powers[p] if c == 1 else c * powers[p] for c, p in row]
                  for row in ROWS_QUINTIC_TERMS[k]]]
        if k == 1:
            weights = [x[0] - x[1], u[0], acc[0], u[1], acc[1]]
        terms = [b * w for b, w in zip(basis, weights)]
        total = sum(terms[1:], terms[0])
        out.append(total * (1.0 / h ** k) if k else total)
    return out
