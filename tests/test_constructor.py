import warnings

import numpy as np
import pytest

from hopflab.actions import LABELS, SingularOrbitError, load_action
from hopflab.ambient import AmbientPoint, GeometryError
from hopflab.constructor import (
    CurveLaw,
    austere_search,
    build_hypersurface,
    equidistance_spot_check,
    integrate_sigma,
    leviflat_cmc_certify,
    strongly_2hopf_certify,
)
from hopflab.hypersurface import shape_data
import oracles


def launch(label, theta=0.45, coords=(0.12, 0.07)):
    spec = load_action(label)
    z0 = spec.section.point(np.asarray(coords, dtype=float))
    f1, f2 = spec.section.tangent_frame(z0)
    w0 = np.cos(theta) * f1 + np.sin(theta) * f2
    return spec, AmbientPoint(spec.space, z0), w0


def test_geodesic_law_reproduces_exp_map():
    spec, p0, w0 = launch("cp2-torus")
    sp = spec.space
    sigma = integrate_sigma(spec, p0, w0, CurveLaw("geodesic"), n_steps=100,
                            two_sided=False)
    worst = max(float(sp.dist(sigma.zs[k], sp.exp(p0.rep, w0, sigma.ts[k])))
                for k in range(len(sigma.ts)))
    assert worst < 1e-6
    assert np.abs(sp.norm(sigma.ws) - 1).max() < 1e-8


def test_integrator_is_fourth_order():
    # step halving on the CMC law: global error ratio ~ 2^4. The error is
    # measured on phase-aligned representatives; the arccos distance floors
    # at sqrt(eps).
    spec, p0, w0 = launch("cp2-torus")
    sp = spec.space

    def endpoint(step, n):
        s = integrate_sigma(spec, p0, w0, CurveLaw("cmc", eta=1.0),
                            step=step, n_steps=n, two_sided=False)
        return s.zs[-1]

    def repdist(a, b):
        return float(np.abs(sp.phase_align(a, b) * b - a).max())

    ref = endpoint(5e-4, 800)
    e1 = repdist(endpoint(8e-3, 50), ref)
    e2 = repdist(endpoint(4e-3, 100), ref)
    assert 11.0 < e1 / e2 < 21.0


def test_cmc_law_tracks_target_curvature():
    spec, p0, w0 = launch("ch2-g0")
    sigma = integrate_sigma(spec, p0, w0, CurveLaw("cmc", eta=1.0), n_steps=150)
    assert np.abs(sigma.gammas + sigma.alphas + sigma.betas - 1.0).max() < 1e-12


def test_cmc_mean_curvature_measured_independently(cmc_ehs):
    # the trace of the hypersurface shape operator is the independent route
    grid = cmc_ehs.patch.grid((6, 3, 3), margin=0.05)
    traces = shape_data(cmc_ehs.patch, grid).eigvals.sum(axis=1)
    assert np.abs(traces - 1.0).max() < 1e-3


def test_leviflat_law_invariant():
    spec, p0, w0 = launch("ch2-g0", theta=0.9)
    sigma = integrate_sigma(spec, p0, w0, CurveLaw("levi-flat"), n_steps=150)
    ehs = build_hypersurface(spec, sigma, s_extent=0.15)
    cert = leviflat_cmc_certify(ehs, eta=0.0)
    assert cert.residuals["levi_sup"] < 1e-3


def test_integrate_requires_regular_start():
    spec = load_action("cp2-torus")
    fp = AmbientPoint(spec.space,
                      spec.space.normalize_rep(np.eye(3, dtype=complex)[0]))
    f1 = np.array([0, 1, 0], dtype=complex)
    with pytest.raises(SingularOrbitError):
        integrate_sigma(spec, fp, f1, CurveLaw("geodesic"))


def test_integrate_rejects_bad_step():
    spec, p0, w0 = launch("cp2-torus")
    with pytest.raises(GeometryError):
        integrate_sigma(spec, p0, w0, CurveLaw("geodesic"), step=-1e-3)


def test_truncation_near_singular_set():
    # aim straight at the torus fixed point [0:0:1]; the curve must stop
    spec = load_action("cp2-torus")
    sec = spec.section
    z0 = sec.point(np.array([0.0, 0.0]))
    f1, f2 = sec.tangent_frame(z0)
    sp = spec.space
    vtx = sp.normalize_rep(np.eye(3, dtype=complex)[2])
    u = sp.phase_align(z0, vtx)
    d = sp.project_horizontal(z0, u * vtx)
    d = d / sp.norm(d)
    sigma = integrate_sigma(spec, AmbientPoint(sp, z0), d,
                            CurveLaw("geodesic"), n_steps=1100, two_sided=False)
    assert sigma.truncated
    assert "regular" in sigma.truncation_reason


def test_unknown_law_rejected():
    with pytest.raises(GeometryError):
        CurveLaw("bogus")


def test_build_box_and_orientation(cmc_ehs):
    spec = cmc_ehs.spec
    patch = cmc_ehs.patch
    sp = cmc_ehs.space
    # s-coordinate curves stay inside single orbits: the Killing gram
    # determinant is an H-invariant function, constant along fibers
    t0 = 0.5 * (patch.box[0][0] + patch.box[0][1])
    ss = np.linspace(-cmc_ehs.s_extent, cmc_ehs.s_extent, 7)
    params = np.stack([np.full(7, t0), ss, ss[::-1]], axis=-1)
    dets = spec.gram_det(patch.eval(params))
    assert np.abs(dets - dets[0]).max() < 1e-8
    # principal curvatures constant along each orbit fiber
    sd = shape_data(patch, params)
    assert np.abs(sd.eigvals - sd.eigvals[0]).max() < 1e-5


def test_sigma_interpolant_accuracy(cmc_ehs):
    sigma = cmc_ehs.sigma
    interp = sigma.interpolant()
    # interpolant reproduces the stored samples and midpoints smoothly
    mid = 0.5 * (sigma.ts[:-1] + sigma.ts[1:])
    zs = interp(sigma.ts)
    assert np.abs(zs - sigma.zs).max() < 1e-14
    sp = sigma.space
    sq = np.real(sp.herm(interp(mid), interp(mid)))
    assert np.abs(sq - sp.kappa).max() < 1e-12


def test_strongly_2hopf_certify_detects_wp_launch():
    from hopflab.actions import hopf_directions
    from hopflab.hypersurface import TAU_MULT, TAU_PROJ, _h_of

    spec = load_action("ch2-torus")
    z0 = spec.section.point(np.array([0.12, 0.07]))
    p0 = AmbientPoint(spec.space, z0)
    zeros = hopf_directions(spec, p0, n_samples=360, tol=1e-12)
    sigma = integrate_sigma(spec, p0, zeros[0]["direction"],
                            CurveLaw("cmc", eta=1.0), n_steps=60)
    ehs = build_hypersurface(spec, sigma, s_extent=0.1, t_margin=0.005)
    sd = shape_data(ehs.patch, np.array([[0.0, 0.0, 0.0]]))
    assert _h_of(sd, 0, TAU_PROJ, TAU_MULT) == 1


def test_equidistance_spot_check(cmc_ehs):
    box = cmc_ehs.patch.box[0]
    t1 = 0.25 * box[0] + 0.75 * box[1] - 0.05
    same = equidistance_spot_check(cmc_ehs, t1, t1, n_points=4)
    assert same["mean"] < 1e-9
    out1 = equidistance_spot_check(cmc_ehs, t1, t1 - 0.05, n_points=6)
    assert out1["spread"] < 1e-3
    out2 = equidistance_spot_check(cmc_ehs, t1, t1 - 0.1, n_points=6)
    assert out2["mean"] > out1["mean"] > 0   # monotone in |t1 - t2|


def test_austere_search_rejects_empty_grid():
    spec = load_action("cp2-torus")
    with pytest.raises(GeometryError):
        austere_search(spec, np.zeros((0, 2)))


def test_austere_search_finds_lohnherr_curve():
    spec = load_action("ch2-line-g2a")
    found = austere_search(spec, [[0.0, 0.0]], n_steps=80)
    assert found
    sigma = found[0].curve
    assert np.abs(sigma.hopf_a - 1 / np.sqrt(2)).max() < 1e-6
    assert np.abs(sigma.gammas).max() < 1e-12   # pregeodesic


# -- the lane core against the scalar integrator it replaced ------------------------

LAWS = (CurveLaw("geodesic"), CurveLaw("cmc", eta=1.0), CurveLaw("levi-flat"),
        CurveLaw("austere"))
SIGMA_ARRAYS = ("ts", "zs", "ws", "xis", "gammas", "alphas", "betas", "hopf_a", "hopf_b",
                "mean_align")


def assert_same_sigma(new, ref, names=SIGMA_ARRAYS):
    assert new.ts.shape == ref.ts.shape
    for name in names:
        assert np.abs(getattr(new, name) - getattr(ref, name)).max() <= 1e-12, name
    assert new.truncated == ref.truncated
    assert new.truncation_reason == ref.truncation_reason


@pytest.mark.parametrize("label", LABELS)
def test_lane_core_matches_scalar_integrator(label):
    spec, p0, w0 = launch(label)
    for law in LAWS:
        assert_same_sigma(integrate_sigma(spec, p0, w0, law, n_steps=30),
                          oracles.scalar_integrate_sigma(spec, p0.rep, w0, law, n_steps=30))


def test_lane_core_matches_scalar_when_one_side_truncates():
    # close to an edge of the cp2-torus orbit triangle: the backward side
    # keeps 22 steps and leaves the regular set on the 23rd, the forward side
    # runs all 40
    spec, p0, w0 = launch("cp2-torus", theta=0.0, coords=(-0.463, -0.802))
    sigma = integrate_sigma(spec, p0, w0, CurveLaw("geodesic"), n_steps=40)
    assert sigma.truncation_reason == "left the regular set after 23 steps"
    assert sigma.ts[0] == -22 * sigma.step and len(sigma.ts) == 22 + 1 + 40
    ref = oracles.scalar_integrate_sigma(spec, p0.rep, w0, CurveLaw("geodesic"), n_steps=40)
    hopf = ("hopf_a", "hopf_b")
    assert_same_sigma(sigma, ref, [name for name in SIGMA_ARRAYS if name not in hopf])
    # Near the edge the orbit shape matrix has |s01| << -d. The scalar copy's
    # eigenvector formula cancels there (errors near 5e-12 in a and b); the
    # Hopf components are pinned to eigh on the same points instead.
    exact = np.array([oracles.eigh_hopf_components(spec, z, xi)
                      for z, xi in zip(ref.zs, ref.xis)])
    assert np.abs(sigma.hopf_a - exact[:, 0]).max() <= 1e-12
    assert np.abs(sigma.hopf_b - exact[:, 1]).max() <= 1e-12


def test_lane_core_truncates_non_finite_lanes_without_warnings():
    spec, p0, w0 = launch("ch2-g0")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sigma = integrate_sigma(spec, p0, w0, CurveLaw("cmc", eta=np.nan), n_steps=20)
        stepped = integrate_sigma(spec, p0, w0, CurveLaw("geodesic"), step=np.nan, n_steps=20)
    for curve in (sigma, stepped):
        assert curve.truncated
        assert curve.truncation_reason == "non-finite state; non-finite state"
        assert len(curve.ts) == 1


@pytest.mark.parametrize("label, grid, n_found", [
    # the origin of cp2-torus has H = 0 and launches the six-direction fan
    ("cp2-torus", [[0.0, 0.0], [0.1, 0.0], [0.15, 0.1]], 2),
    ("ch2-k0-g2a", [[0.0, 0.0], [0.1, 0.0], [-0.2, 0.1]], 0),
])
def test_austere_search_matches_scalar_search(label, grid, n_found):
    spec = load_action(label)
    found = austere_search(spec, grid, n_steps=40)
    ref = oracles.scalar_austere_search(spec, grid, n_steps=40)
    assert len(found) == len(ref) == n_found
    for new, old in zip(found, ref):
        assert np.array_equal(new.start_coords, old.start_coords)
        assert abs(new.alignment_residual - old.alignment_residual) <= 1e-12
        assert_same_sigma(new.curve, old.curve)
