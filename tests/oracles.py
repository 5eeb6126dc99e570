"""Independent numerical oracles used to freeze expected test values.

Each oracle deliberately avoids the code path it checks: tube spectra come
from integrating the radial Jacobi equation, geodesics from an RK4
integration of the second-order model equation, and parallel transport from
its own first-order system.
"""

import numpy as np


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
    """RK4 on (z, w, xi); returns sample rows including t = 0."""
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
    truncated = False
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
            truncated = True
            reason = f"left the regular set after {i + 1} steps"
            break
        if not spec.is_regular(nxt[0]):
            truncated = True
            reason = f"left the regular set after {i + 1} steps"
            break
        state = nxt
    return rows, truncated, reason


def scalar_integrate_sigma(spec, z0, w0, law, step=1e-3, n_steps=200, two_sided=True):
    """The scalar integrate_sigma: one direction at a time, then joined."""
    from hopflab.actions import rotate90
    from hopflab.constructor import SigmaCurve

    sp = spec.space
    z0 = np.asarray(z0, dtype=complex)
    w0 = np.asarray(w0, dtype=complex)
    w0 = w0 / sp.norm(w0)
    xi0 = rotate90(spec, z0, w0)
    fwd, tr_f, reason_f = scalar_integrate_one_direction(spec, law, z0, w0, xi0, step, n_steps)
    if two_sided:
        bwd, tr_b, reason_b = scalar_integrate_one_direction(spec, law, z0, -w0, xi0, step, n_steps)
    else:
        bwd, tr_b, reason_b = [], False, ""
    rows = [(r[0], -r[1]) + r[2:] for r in reversed(bwd[1:])] + fwd
    ts = [-(len(bwd) - 1 - k) * step for k in range(len(bwd) - 1)] + \
         [k * step for k in range(len(fwd))]
    cols = list(zip(*rows))
    return SigmaCurve(
        spec=spec, law=law, ts=np.asarray(ts),
        zs=np.array(cols[0]), ws=np.array(cols[1]), xis=np.array(cols[2]),
        gammas=np.array(cols[3]), alphas=np.array(cols[4]), betas=np.array(cols[5]),
        hopf_a=np.array(cols[6]), hopf_b=np.array(cols[7]), mean_align=np.array(cols[8]),
        step=step, truncated=tr_f or tr_b,
        truncation_reason="; ".join(x for x in (reason_f, reason_b) if x))


def scalar_austere_search(spec, grid_coords, tol=2e-3, step=1e-3, n_steps=150,
                          h_floor=1e-8, dedupe_distance=5e-2):
    """The scalar austere search: probe, integrate and filter one launch at a time."""
    from hopflab.constructor import AustereCandidate, CurveLaw, _curves_close

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
            if any(_curves_close(spec, cand.curve, other.curve, dedupe_distance)
                   for other in found):
                continue
            found.append(cand)
    return found


def eigh_hopf_components(spec, z, xi):
    """(a, b) at (z, xi) from np.linalg.eigh of the scalar shape matrix."""
    basis, ii, _, _ = scalar_orbit_geometry(spec, z)
    sp = spec.space
    s = np.real(np.einsum("abk,k->ab", np.conj(ii) * np.array(sp.hermitian_signature), xi))
    _, vecs = np.linalg.eigh(s, UPLO="U")          # ascending: beta, alpha
    jxi = np.array([sp.g(1j * xi, basis[0]), sp.g(1j * xi, basis[1])])
    return abs(vecs[:, 1] @ jxi), abs(vecs[:, 0] @ jxi)
