import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import PIN_PATCHES
from hopflab import _kernels as kernels
from hopflab import constructor
from hopflab.actions import LABELS, SingularOrbitError, load_action, rotate90
from hopflab.ambient import GeometryError
from hopflab.constructor import (
    FD_EXACT_GAP,
    CHART_TILT,
    CURVE_DEFECT,
    CurveLaw,
    chart_tilt,
    curve_defect,
    austere_search,
    build_hypersurface,
    equivariant_shape_data,
    integrate_sigma,
    leviflat_cmc_certify,
    refit_velocities,
    strongly_2hopf_certify,
)
from hopflab.cli import RunConfig
from hopflab.hypersurface import HypersurfacePatch, ImmersionError, adapted_frames, shape_data
from hopflab.suites import _bent_patch
import oracles

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import AUSTERE_N_STEPS, WORKLOADS  # noqa: E402


def launch(label, theta=0.45, coords=(0.12, 0.07)):
    spec = load_action(label)
    z0 = spec.section.point(np.asarray(coords, dtype=float))
    f1, f2 = spec.section.tangent_frame(z0)
    w0 = np.cos(theta) * f1 + np.sin(theta) * f2
    return spec, z0, w0


def test_geodesic_law_reproduces_exp_map():
    spec, z0, w0 = launch("cp2-torus")
    sp = spec.space
    sigma = integrate_sigma(spec, z0, w0, CurveLaw("geodesic"), n_steps=100,
                            two_sided=False)
    worst = max(float(sp.dist(sigma.zs[k], sp.exp(z0, w0, sigma.ts[k])))
                for k in range(len(sigma.ts)))
    assert worst < 1e-6
    assert np.abs(sp.norm(sigma.ws) - 1).max() < 1e-8


def test_integrator_is_fourth_order():
    # step halving on the CMC law: every row at h = 0.02 and h/2 against the
    # integrator at h/16; the observed orders are 3.99 (cp2-torus), 3.99
    # (ch2-torus) and 4.00 (ch2-g0)
    law = CurveLaw("cmc", eta=1.0)
    for label in ("cp2-torus", "ch2-torus", "ch2-g0"):
        spec, z0, w0 = launch(label)
        ref = integrate_sigma(spec, z0, w0, law, step=0.02 / 16, n_steps=320, two_sided=False)
        errors = []
        for stride in (16, 8):
            sigma = integrate_sigma(spec, z0, w0, law, step=stride * ref.step,
                                    n_steps=320 // stride, two_sided=False)
            errors.append(np.abs(sigma.zs - ref.zs[::stride]).max())
        assert abs(np.log2(errors[0] / errors[1]) - 4.0) <= 0.3, label


def test_cmc_law_tracks_target_curvature():
    spec, z0, w0 = launch("ch2-g0")
    sigma = integrate_sigma(spec, z0, w0, CurveLaw("cmc", eta=1.0), n_steps=150)
    assert np.abs(sigma.gammas + sigma.alphas + sigma.betas - 1.0).max() < 1e-12


def test_cmc_mean_curvature_measured_independently(cmc_ehs):
    # the trace of the hypersurface shape operator is the independent route
    grid = cmc_ehs.patch.grid((6, 3, 3), margin=0.05)
    traces = shape_data(cmc_ehs.patch, grid).eigvals.sum(axis=1)
    assert np.abs(traces - 1.0).max() < 1e-3


def test_leviflat_law_invariant():
    spec, z0, w0 = launch("ch2-g0", theta=0.9)
    sigma = integrate_sigma(spec, z0, w0, CurveLaw("levi-flat"), n_steps=150)
    ehs = build_hypersurface(spec, sigma, s_extent=0.15)
    cert = leviflat_cmc_certify(ehs, eta=0.0)
    assert cert.residuals["levi_sup"] < 1e-3


def test_integrate_requires_regular_start():
    spec = load_action("cp2-torus")
    fp = spec.space.normalize_rep(np.eye(3, dtype=complex)[0])
    f1 = np.array([0, 1, 0], dtype=complex)
    with pytest.raises(SingularOrbitError):
        integrate_sigma(spec, fp, f1, CurveLaw("geodesic"))
    # a non-finite start is not regular, and its direction is not blamed
    for bad in (np.full(3, np.nan + 0j), np.array([np.inf, 0.0, 0.0], dtype=complex)):
        with pytest.raises(SingularOrbitError, match="^initial point is not regular$"):
            integrate_sigma(spec, bad, f1, CurveLaw("geodesic"))


def _integrate_entry(bad):
    spec, z0, w0 = launch("cp2-torus")
    return integrate_sigma(spec, z0, w0, CurveLaw("geodesic"), **bad)


def _search_entry(bad, grid=((0.1, 0.0), (0.15, 0.1))):
    return austere_search(load_action("cp2-torus"), grid, **bad)


def _singular_search_entry(bad):
    # no point of this grid is regular, so the search launches nothing
    return _search_entry(bad, grid=[[-0.463, -0.82378]])


@pytest.mark.parametrize("entry, bad, message", [
    (_integrate_entry, {"step": -1e-3}, "step must be positive"),
    (_integrate_entry, {"step": 0.0}, "step must be positive"),
    (_integrate_entry, {"n_steps": 0}, "n_steps must be at least 1"),
    (_integrate_entry, {"n_steps": -5}, "n_steps must be at least 1"),
    (_search_entry, {"n_steps": 0}, "n_steps must be at least 1"),
    (_search_entry, {"n_steps": -5}, "n_steps must be at least 1"),
    (_singular_search_entry, {"n_steps": -5}, "n_steps must be at least 1"),
    (_search_entry, {"n_steps": 2.5}, "^n_steps must be an integer$"),
    (_singular_search_entry, {"n_steps": 2.5}, "^n_steps must be an integer$"),
    # a bool is no count, although Python's bool is an int
    (_integrate_entry, {"n_steps": True}, "^n_steps must be an integer$"),
    (_search_entry, {"n_steps": True}, "^n_steps must be an integer$"),
    (_search_entry, {"n_steps": np.bool_(True)}, "^n_steps must be an integer$"),
], ids=["integrate_sigma-step-negative", "integrate_sigma-step-zero",
        "integrate_sigma-n_steps-zero", "integrate_sigma-n_steps-negative",
        "austere_search-n_steps-zero", "austere_search-n_steps-negative",
        "austere_search-n_steps-negative-no-regular-point",
        "austere_search-n_steps-fractional",
        "austere_search-n_steps-fractional-no-regular-point",
        "integrate_sigma-n_steps-bool", "austere_search-n_steps-bool",
        "austere_search-n_steps-numpy-bool"])
def test_integrate_rejects_bad_step(entry, bad, message):
    with pytest.raises(GeometryError, match=message):
        entry(bad)


@pytest.mark.parametrize("law", ["geodesic", "cmc", "levi-flat"])
@pytest.mark.parametrize("bad, message", [
    ({"step": np.nan}, "^step must be positive and finite$"),
    ({"step": np.inf}, "^step must be positive and finite$"),
    ({"n_steps": 2.5}, "^n_steps must be an integer$"),
    ({"n_steps": True}, "^n_steps must be an integer$"),
    ({"n_steps": np.bool_(True)}, "^n_steps must be an integer$"),
], ids=["step-nan", "step-inf", "n_steps-fractional", "n_steps-bool", "n_steps-numpy-bool"])
def test_integrate_rejects_a_non_finite_step_or_fractional_count(law, bad, message):
    # each is refused by name before any lane runs, with no floating-point warning
    spec, z0, w0 = launch("cp2-torus")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GeometryError, match=message):
            integrate_sigma(spec, z0, w0, CurveLaw(law, eta=1.0), **bad)


@pytest.mark.parametrize("direction", ["zero", "nan", "subnormal", "radial"])
def test_integrate_rejects_a_direction_not_tangent_to_the_section(direction):
    # the radial z0 lies in the section's real frame but leaves only
    # round-off once projected onto the section's tangent plane
    spec, z0, w0 = launch("cp2-torus")
    f1, _ = spec.section.tangent_frame(z0)
    w0 = {"zero": np.zeros(3, dtype=complex), "nan": np.full(3, np.nan + 0j),
          "subnormal": 1e-320 * f1, "radial": z0}[direction]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for law in (CurveLaw("geodesic"), CurveLaw("cmc", eta=1.0)):
            with pytest.raises(GeometryError, match="^launch direction has no finite part "
                                                    "tangent to the section$"):
                integrate_sigma(spec, z0, w0, law, n_steps=10)


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
    sigma = integrate_sigma(spec, z0, d,
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


def test_sweep_rejects_a_curve_singular_between_its_rows(monkeypatch):
    # a cp2-torus geodesic through the torus-fixed point e0 at t = h/2, with
    # rows at t = -h, 0, h, 2h: every row is regular, but the middle sweep
    # sample is the symmetric midpoint of two rows, where the interpolant
    # meets e0 and the gram det is 0. The extent cannot mend that.
    spec = load_action("cp2-torus")
    h = 0.3
    e0 = np.eye(3)[0]
    u, v = np.array([[0.0, 1.0, 1.0], [0.0, 1.0, -1.0]]) / np.sqrt(2)
    ts = h * np.arange(-1, 3)
    s = (ts - h / 2)[:, None]
    zs, ws = np.cos(s) * e0 + np.sin(s) * u, -np.sin(s) * e0 + np.cos(s) * u
    sigma = constructor.curve_from_rows(spec, CurveLaw("geodesic"), h, ts, zs, ws,
                                        np.tile(v, (4, 1)), "")
    assert np.all(spec.gram_det(sigma.zs) > spec.gram_floor())

    def no_chart(*args):
        raise AssertionError("the sweep evaluated its chart")

    monkeypatch.setattr(kernels, "group_orbit_apply", no_chart)
    with pytest.raises(GeometryError, match=r"^cannot sweep sigma: it is not regular at t = 0\.15$"):
        build_hypersurface(spec, sigma)


def test_sweep_chart_interpolates_each_distinct_t_once_bit_for_bit(cmc_ehs):
    # a batch that repeats t and mixes -0.0 with 0.0: every row has the bits
    # of the interpolant and the group element applied to that row alone
    t = np.array([0.0, -0.0, 0.013, 0.0, -0.0, 0.013, -0.021, 0.013])
    s = np.linspace(-0.05, 0.05, len(t))
    params = np.stack([t, s, s[::-1]], axis=-1)
    batch = cmc_ehs.patch.chart(params)
    for row, p in zip(batch, params):
        alone = cmc_ehs.spec.translate(p[1:], cmc_ehs.sigma.swept(p[:1], 0)[0])[0]
        assert row.tobytes() == alone.tobytes(), p


def test_sigma_interpolant_accuracy(cmc_ehs):
    sigma = cmc_ehs.sigma
    # the swept curve reproduces the stored samples and midpoints smoothly
    mid = 0.5 * (sigma.ts[:-1] + sigma.ts[1:])
    zs = sigma.swept(sigma.ts, 0)[0]
    assert np.abs(zs - sigma.zs).max() < 1e-14
    sp = sigma.space
    at_mid = sigma.swept(mid, 0)[0]
    sq = np.real(sp.herm(at_mid, at_mid))
    assert np.abs(sq - sp.kappa).max() < 1e-12
    # each order is the t-derivative of the one below: inside each step
    # (tau = 1/4, 1/2, 3/4) against a central difference at d = h / 100,
    # whose truncation d^2/6 |q'''| and rounding eps |q| / d read below
    # 2e-10 here
    h = sigma.step
    t = (sigma.ts[:-1, None] + h * np.array([0.25, 0.5, 0.75])).ravel()
    d = h / 100
    derivatives = sigma.swept(t, 2)
    after, before = sigma.swept(t + d, 1), sigma.swept(t - d, 1)
    for k in (1, 2):
        difference = (after[k - 1] - before[k - 1]) * (1.0 / (2 * d))
        assert np.abs(difference - derivatives[k]).max() < 1e-9, k
    # every order reads the same points
    for k in (0, 1):
        assert np.array_equal(sigma.swept(t, k)[0], derivatives[0]), k
    # at the knots the orders give each row's point, knot velocity and
    # acceleration gamma v - x / kappa (the model equations). A knot's tau
    # carries rounding, which the second derivative divides by h: about
    # 60 eps / h = 1e-11. The knot velocities are refit from the rows'
    # points, and leave the rows' collocated velocities by their O(h^4)
    # error, 3.5e-12 at this step 1e-3
    x, u, acc = sigma.swept(sigma.ts, 2)
    assert np.abs(x - sigma.xs).max() < 1e-14
    assert np.abs(u - sigma.knot_velocities).max() < 1e-13
    assert np.abs(sigma.knot_velocities - sigma.us).max() < 2e-11
    rows_acc = sigma.gammas[:, None] * sigma.vs - sigma.xs / sp.kappa
    assert np.abs(acc - rows_acc).max() < 1e-9


def test_strongly_2hopf_certify_detects_wp_launch():
    from hopflab.actions import hopf_directions
    from hopflab.hypersurface import adapted_frames

    spec = load_action("ch2-torus")
    z0 = spec.section.point(np.array([0.12, 0.07]))
    zeros = hopf_directions(spec, z0)
    sigma = integrate_sigma(spec, z0, zeros[0]["direction"],
                            CurveLaw("cmc", eta=1.0), n_steps=60)
    ehs = build_hypersurface(spec, sigma, s_extent=0.1, t_margin=0.005)
    sd = shape_data(ehs.patch, np.array([[0.0, 0.0, 0.0]]))
    assert adapted_frames(sd).h[0] == 1


def test_strongly_2hopf_certify_differentiates_each_sample_once(cmc_ehs, monkeypatch):
    calls = {"frame_derivative_data": 0, "orbit_geometry": 0}

    def counting(name):
        fn = getattr(constructor, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(constructor, name, counting(name))
    cert = strongly_2hopf_certify(cmc_ehs, grid_shape=(8, 3, 3))
    assert cert.grids["derivative_sample"] == constructor.DERIVATIVE_POINTS
    assert calls == {"frame_derivative_data": 1, "orbit_geometry": 1}


def pin_grids(patch):
    """The certificate's h-grid and construct's mesh grid of a patch."""
    return patch.grid((20, 5, 5), margin=0.02), patch.grid((12, 4, 4), margin=0.03)


@pytest.mark.parametrize("name", PIN_PATCHES)
def test_equivariant_shape_data_matches_finite_differences(name, pin_patches):
    ehs = pin_patches[name]
    sp = ehs.space
    for grid in pin_grids(ehs.patch):
        # construct runs under raised floating-point errors: the route must not trip them
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            exact = equivariant_shape_data(ehs, grid)
        fd = shape_data(ehs.patch, grid)
        assert exact.frames.z.tobytes() == ehs.patch.eval(grid).tobytes()
        assert np.array_equal(adapted_frames(exact).h, adapted_frames(fd).h)
        assert np.abs(exact.eigvals - fd.eigvals).max() < FD_EXACT_GAP
        up_to_sign = np.minimum(sp.norm(exact.eigvecs - fd.eigvecs),
                                sp.norm(exact.eigvecs + fd.eigvecs))
        assert up_to_sign.max() < FD_EXACT_GAP
        # the chart's orientation, and the law exactly where it fixes the trace
        assert np.all(sp.g(exact.frames.xi, fd.frames.xi) > 0.99)
        if ehs.sigma.law.kind == "cmc":
            assert np.abs(exact.eigvals.sum(axis=1) - ehs.sigma.law.eta).max() < 1e-12


def test_equivariant_shape_data_keeps_the_immersion_test(cmc_ehs):
    patch = cmc_ehs.patch
    # a chart that forgets s2 has a zero third velocity everywhere
    flat = HypersurfacePatch(patch.space, lambda p: patch.chart(p * [1.0, 1.0, 0.0]), patch.box,
                             patch.diff_step, patch.orientation)
    grid = patch.grid((2, 2, 2))
    with pytest.raises(ImmersionError) as fd:
        shape_data(flat, grid)
    with pytest.raises(ImmersionError, match=r"immersion fails at params \[.*\] "
                                             r"\(gram det <= 1e-10\)") as exact:
        equivariant_shape_data(replace(cmc_ehs, patch=flat), grid)
    assert str(exact.value) == str(fd.value)


FD_RESIDUALS = ("integrability", "spectrum_constancy_D", "orbit_tangency", "nabla_AA",
                "leaf_intrinsic_curvature", "leaf_totally_real_defect")


@pytest.mark.parametrize("name", PIN_PATCHES)
def test_certificate_fd_residuals_match_the_fd_grid_route(name, pin_patches, monkeypatch):
    ehs = pin_patches[name]
    sampled = []
    original = constructor.shape_data

    def recording(patch, params):
        sampled.append(params)
        return original(patch, params)

    monkeypatch.setattr(constructor, "shape_data", recording)
    cert = strongly_2hopf_certify(ehs)
    ref, sample = oracles.fd_grid_strongly_2hopf_certify(ehs)
    for key in FD_RESIDUALS + ("h_values", "h2_fraction"):
        assert cert.residuals[key] == ref[key], key
    # the certificate differences finite-difference shape data at the same sample
    grid = ehs.patch.grid((20, 5, 5), margin=0.02)
    assert len(sampled) == 1 and sampled[0].tobytes() == grid[sample].tobytes()
    assert cert.passed and cert.residuals["fd_exact_gap"] < FD_EXACT_GAP
    assert cert.residuals["chart_tilt"] < CHART_TILT


@pytest.mark.parametrize("bend, derivatives", [(1e-5, True), (1e-2, False)])
def test_certificate_fails_a_chart_off_its_curve(bend, derivatives, cmc_ehs):
    # the exact h-grid reads the curve, not the chart: the chart's velocities
    # over the grid, off the derivative sample too, and the gap at the sample
    # are what fail a bent chart. A small bend keeps its finite-difference
    # frames h = 2 there; a large one loses them, and the derivative
    # residuals read inf instead of raising
    bent = replace(cmc_ehs, patch=_bent_patch(cmc_ehs.patch, bend))
    cert = strongly_2hopf_certify(bent)
    assert cert.residuals["fd_exact_gap"] > FD_EXACT_GAP and not cert.passed
    assert np.isfinite(cert.residuals["integrability"]) == derivatives
    tilt = chart_tilt(bent, equivariant_shape_data(bent, bent.patch.grid((20, 5, 5), margin=0.02)))
    _, sample = oracles.fd_grid_strongly_2hopf_certify(cmc_ehs)
    assert np.delete(tilt, sample).max() > CHART_TILT
    assert cert.residuals["chart_tilt"] == tilt.max()


@pytest.mark.parametrize("name", PIN_PATCHES)
def test_chart_tilt_allows_the_truncation_along_sigma(name, pin_patches):
    # on a chart that realizes its sweep the t velocity leaves the exact
    # tangent spaces by the central difference's h^2/6 gamma', the orbit
    # velocities by rounding, and chart_tilt reads rounding only
    ehs = pin_patches[name]
    exact = equivariant_shape_data(ehs, ehs.patch.grid((20, 5, 5), margin=0.02))
    sp, sigma = ehs.space, ehs.sigma
    v = exact.frames.v
    tilt = np.abs(sp.g(v, exact.frames.xi[:, None])) / sp.norm(v)
    leading = ehs.patch.diff_step ** 2 / 6 * np.max(np.abs(np.gradient(sigma.gammas, sigma.step)))
    assert tilt[:, 0].max() <= 1.1 * leading + 1e-11
    assert tilt[:, 1:].max() < 1e-11
    assert chart_tilt(ehs, exact).max() < 1e-11


def test_curve_defect_is_of_fourth_order_with_refit_velocities():
    # step doubling on the ch2-torus CMC curve of construct's default launch
    # at steps 4e-3, 8e-3 and 1.6e-2 (50, 25 and 13 steps each way, about
    # t in [-0.2, 0.2]), all above the rounding floor. The knot velocities
    # are refit from the rows, so the swept curve errs by the rows' order-4
    # error and its curvature misses the law at order 4. On the steps inside
    # |t| <= 0.128 the largest defect reads 3.4e-8, 5.3e-7 and 9.9e-6,
    # ratios 15.5 and 18.6. Over the whole curve it reads 2.8e-7, 7.8e-6 and
    # 4.3e-4, ratios 28 and 55: the curve steepens towards t = 0.2, where
    # |gamma| reaches 7.5, and a coarse step there is not yet asymptotic
    spec, z0, w0 = launch("ch2-torus")
    law = CurveLaw("cmc", eta=1.0)
    whole, inside = [], []
    for step, n_steps in ((4e-3, 50), (8e-3, 25), (1.6e-2, 13)):
        sigma = integrate_sigma(spec, z0, w0, law, step=step, n_steps=n_steps)
        defect, t = curve_defect(sigma), sigma.ts[:-1]
        whole.append(float(defect.max()))
        inside.append(float(defect[(t >= -0.128 - 1e-9) & (t + step <= 0.128 + 1e-9)].max()))
    for fine, coarse in zip(whole, whole[1:]):
        assert coarse >= 16 * fine, whole
    for fine, coarse in zip(inside, inside[1:]):
        assert abs(coarse / fine - 16) <= 3, inside
    assert whole[0] < CURVE_DEFECT / 2


def test_worst_benchmark_launch_certifies_at_the_default_step(tmp_path):
    # of the 300 launches of the construct benchmark's seeds 1 to 60, at
    # construct's default step 4e-3 and 50 steps, the largest curve_defect
    # is the seed-8 ch2-torus CMC launch's, 3.78e-7: under half the bound
    cfg = next(c for c in WORKLOADS["construct"](8, str(tmp_path)).configs
               if c["action"] == "ch2-torus")
    assert cfg["law"] == "cmc"
    spec, z0, w0 = launch("ch2-torus", theta=cfg["theta"])
    run = RunConfig()
    assert (run.step, run.n_steps) == (4e-3, 50)
    sigma = integrate_sigma(spec, z0, w0, CurveLaw("cmc", eta=cfg["eta"]), step=run.step,
                            n_steps=run.n_steps)
    assert 3e-7 < curve_defect(sigma).max() <= CURVE_DEFECT / 2


@pytest.mark.parametrize("label", LABELS)
def test_pregeodesic_curves_sweep_their_rows_velocities_bit_for_bit(label):
    # geodesic and austere curves keep their rows' velocities, which are
    # exact: their swept curve, and so every chart of theirs, has the bits
    # of the rows-velocity quintic at every order
    spec, z0, w0 = launch(label)
    for kind in ("geodesic", "austere"):
        sigma = integrate_sigma(spec, z0, w0, CurveLaw(kind), step=4e-3, n_steps=50)
        assert sigma.knot_velocities is sigma.us
        t = np.concatenate([sigma.ts, (sigma.ts[:-1, None] + sigma.step
                                       * np.array([0.1, 0.5, 0.8])).ravel()])
        for order in range(3):
            got = sigma.swept(t, order)
            want = oracles.rows_velocity_quintic(sigma, t, order)
            assert len(got) == order + 1
            for k in range(order + 1):
                assert got[k].tobytes() == want[k].tobytes(), (kind, order, k)


@pytest.mark.parametrize("label", LABELS)
def test_refit_velocities_reproduce_a_geodesics_exact_velocities(label):
    # a geodesic's rows hold its exact velocities; refit from its points by
    # the collocated curves' route they leave them by rounding alone, C eps
    # / h. Over the five actions at steps 1e-3, 4e-3 and 1.6e-2, C reads at
    # most 2.2 at rows with 4 rows on each side, and at most 24 at the 4
    # one-sided rows of either end, whose stencils weigh up to 78 rows'
    # worth; the bounds are about 4 times that
    eps = np.finfo(float).eps
    spec, z0, w0 = launch(label)
    for step, n_steps in ((1e-3, 200), (4e-3, 50), (1.6e-2, 13)):
        sigma = integrate_sigma(spec, z0, w0, CurveLaw("geodesic"), step=step, n_steps=n_steps)
        err = np.abs(refit_velocities(sigma.space, sigma.xs, step) - sigma.us).max(axis=1)
        assert err[4:-4].max() < 8 * eps / step, step
        assert err[:4].max() < 100 * eps / step and err[-4:].max() < 100 * eps / step, step


def test_refit_velocities_of_a_curve_shorter_than_the_stencil():
    # a curve of fewer than REFIT_ROWS rows takes its stencil over all n of
    # its rows, of order n - 1: on a geodesic of 5 rows each halving of the
    # step divides the refit's miss of the exact velocities by 16 (16.1 to
    # 16.4 over the actions); 2 rows give the horizontal secant
    assert constructor.REFIT_ROWS == 9
    spec, z0, w0 = launch("ch2-g0")
    sp = spec.space
    misses = []
    for step in (4e-2, 2e-2, 1e-2):
        sigma = integrate_sigma(spec, z0, w0, CurveLaw("geodesic"), step=step, n_steps=2)
        assert len(sigma.ts) == 5
        misses.append(np.abs(refit_velocities(sp, sigma.xs, step) - sigma.us).max())
    for coarse, fine in zip(misses, misses[1:]):
        assert abs(coarse / fine - 16) < 1, misses
    sigma = integrate_sigma(spec, z0, w0, CurveLaw("geodesic"), step=4e-3, n_steps=1,
                            two_sided=False)
    secant = sp.project_horizontal(sigma.xs, (sigma.xs[1] - sigma.xs[0]) * (1.0 / 4e-3))
    assert np.allclose(refit_velocities(sp, sigma.xs, 4e-3), secant, rtol=0, atol=1e-14)
    # a collocated curve that short sweeps through the same refit
    sigma = integrate_sigma(spec, z0, w0, CurveLaw("cmc", eta=1.0), step=4e-3, n_steps=2)
    assert np.array_equal(sigma.knot_velocities, refit_velocities(sp, sigma.xs, 4e-3))
    assert np.abs(sigma.swept(sigma.ts, 1)[1] - sigma.knot_velocities).max() < 1e-13


@pytest.mark.parametrize("label", LABELS)
def test_geodesic_curve_defect_reads_rounding(label):
    # the pregeodesic rows are the exact geodesic, and the interpolant's
    # error at a midpoint lies along the point, normal to the section normal
    spec, z0, w0 = launch(label)
    for step, n_steps in ((1e-3, 200), (4e-3, 50), (0.05, 5)):
        sigma = integrate_sigma(spec, z0, w0, CurveLaw("geodesic"), step=step, n_steps=n_steps)
        defect = curve_defect(sigma)
        assert len(defect) == len(sigma.ts) - 1 and defect.max() < 1e-12


@pytest.mark.parametrize("law", [CurveLaw("geodesic"), CurveLaw("cmc", eta=1.0)],
                         ids=["geodesic", "cmc"])
def test_curve_defect_allows_for_the_rounding_of_a_fine_step(law):
    # at a Gauss point the rows' rounding, divided by h^2, bends the
    # quintic's second derivative: at step 1e-5 the ch2-torus curves read
    # about 1e-5 without the residual's rounding allowance, under 1e-8 with it
    spec, z0, w0 = launch("ch2-torus")
    sigma = integrate_sigma(spec, z0, w0, law, step=1e-5, n_steps=2000)
    assert curve_defect(sigma).max() < CURVE_DEFECT / 10


def test_curve_defect_fails_the_certificate(cmc_ehs):
    # the defect is joined to the certificate's pass: a curve whose stored
    # gammas miss the law by 1e-5 fails it on curve_defect alone (a step's
    # midpoint reads half of it). The chart and its finite-difference
    # residuals are those of the certified patch, and the exact data, which
    # read the law, move only with the interpolant
    ref = strongly_2hopf_certify(cmc_ehs)
    assert ref.passed and ref.residuals["curve_defect"] < CURVE_DEFECT
    assert ref.tolerances["curve_defect"] == CURVE_DEFECT
    off = replace(cmc_ehs, sigma=replace(cmc_ehs.sigma, gammas=cmc_ehs.sigma.gammas + 1e-5))
    cert = strongly_2hopf_certify(off)
    assert not cert.passed and 4e-6 < cert.residuals["curve_defect"] < 6e-6
    for key in FD_RESIDUALS + ("h_values", "h2_fraction"):
        assert cert.residuals[key] == ref.residuals[key], key
    assert cert.residuals["fd_exact_gap"] < FD_EXACT_GAP
    assert cert.residuals["chart_tilt"] < CHART_TILT


def defect_past_t(ehs, kind, t_cut=0.12):
    """ehs with its chart changed only at t > t_cut: "bent" scales the first
    coordinate by 1 + 1e-3 s1^2 (t - t_cut)^2; "displaced" sweeps sigma pushed
    along its normal by 1e-5 (t - t_cut)^2 / 0.0011 (up to 1e-5 on the box)."""
    sp, sigma, patch = ehs.space, ehs.sigma, ehs.patch

    def chart(params):
        past = np.maximum(params[:, 0] - t_cut, 0.0) ** 2
        if kind == "bent":
            scale = np.ones((len(params), 3))
            scale[:, 0] += 1e-3 * params[:, 1] ** 2 * past
            return patch.chart(params) * scale
        t = params[:, 0]
        push = 1e-5 * past / 0.0011
        z = sp.exp(sigma.swept(t, 0)[0], push[:, None] * sigma.xis[sigma.nearest_row(t)])
        return kernels.group_orbit_apply(*ehs.spec.generators, params[:, 1], params[:, 2], z)

    return replace(ehs, patch=HypersurfacePatch(sp, chart, patch.box, patch.diff_step,
                                                patch.orientation))


@pytest.mark.parametrize("kind", ["bent", "displaced"])
def test_certificate_fails_a_chart_defect_away_from_its_derivative_sample(kind, cmc_ehs):
    # past every derivative sample point and the stencils around it, the
    # sample keeps the bits of the unchanged chart; only the chart's
    # velocities on the rest of the h-grid fail it. The bend tilts its orbit
    # velocities; the displaced curve keeps them tangent to first order and
    # tilts its t velocity
    _, sample = oracles.fd_grid_strongly_2hopf_certify(cmc_ehs)
    assert cmc_ehs.patch.grid((20, 5, 5), margin=0.02)[sample, 0].max() < 0.11
    cert = strongly_2hopf_certify(defect_past_t(cmc_ehs, kind))
    ref = strongly_2hopf_certify(cmc_ehs)
    for key in FD_RESIDUALS + ("fd_exact_gap", "h_values", "h2_fraction"):
        assert cert.residuals[key] == ref.residuals[key], key
    assert ref.passed and not cert.passed
    assert cert.residuals["chart_tilt"] > CHART_TILT


def equidistance_spot_check(ehs, t1, t2, n_points=10):
    """Spread of ambient distances from leaf t1 to leaf t2 (Prop 4.5)."""
    from scipy.optimize import minimize

    if not (ehs.patch.box[0][0] <= t1 <= ehs.patch.box[0][1]) or \
       not (ehs.patch.box[0][0] <= t2 <= ehs.patch.box[0][1]):
        raise GeometryError("t1, t2 must lie inside the patch box")
    sp = ehs.space
    ext = ehs.s_extent * 0.8
    ss = np.linspace(-ext, ext, n_points)
    src = np.stack([np.full(n_points, t1), ss, 0.3 * ss[::-1]], axis=-1)
    pts = ehs.patch.eval(src)
    dists = []
    failures = 0
    for k in range(n_points):
        zk = pts[k]

        def obj(s):
            q = ehs.patch.eval(np.array([[t2, s[0], s[1]]]))[0]
            return float(sp.dist(zk, q))

        best = None
        for seed in ((src[k, 1], src[k, 2]), (0.0, 0.0)):
            r = minimize(obj, np.asarray(seed), method="Nelder-Mead",
                         options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 400})
            if best is None or r.fun < best.fun:
                best = r
        if not best.success:
            failures += 1
        dists.append(best.fun)
    dists = np.asarray(dists)
    return {
        "t1": t1, "t2": t2,
        "distances": dists.tolist(),
        "spread": float(dists.max() - dists.min()),
        "mean": float(dists.mean()),
        "non_converged": failures,
    }


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
SIGMA_ARRAYS = ("ts", "xs", "us", "vs", "gammas", "alphas", "betas", "hopf_a", "hopf_b",
                "mean_align")


def assert_same_sigma(new, ref, names=SIGMA_ARRAYS):
    assert new.ts.shape == ref.ts.shape
    for name in names:
        assert np.abs(getattr(new, name) - getattr(ref, name)).max() <= 1e-12, name
    assert new.truncated == ref.truncated
    assert new.truncation_reason == ref.truncation_reason


def reference_errors(sigma, ref, names):
    """Largest |sigma - ref| per column over the rows both hold.

    ref is the same launch at a step ten times finer; its every 10th row
    lies at a row time of sigma (both curves have a row at t = 0).
    """
    i0, r0 = np.flatnonzero(sigma.ts == 0.0)[0], np.flatnonzero(ref.ts == 0.0)[0]
    back = min(i0, r0 // 10)
    ahead = min(len(sigma.ts) - 1 - i0, (len(ref.ts) - 1 - r0) // 10)
    rows = slice(i0 - back, i0 + ahead + 1)
    ref_rows = slice(r0 - 10 * back, r0 + 10 * ahead + 1, 10)
    assert np.allclose(sigma.ts[rows], ref.ts[ref_rows], rtol=0, atol=1e-15)
    return {name: float(np.abs(getattr(sigma, name)[rows] - getattr(ref, name)[ref_rows]).max())
            for name in names}


@pytest.mark.parametrize("label", LABELS)
def test_lane_core_matches_scalar_integrator(label):
    spec, z0, w0 = launch(label)
    for law in LAWS:
        sigma = integrate_sigma(spec, z0, w0, law, n_steps=30)
        rk4 = oracles.scalar_integrate_sigma(spec, z0, w0, law, n_steps=30)
        if not law.reads_orbit_data:
            assert_same_sigma(sigma, rk4)
            continue
        # Collocation and the RK4 oracle are two order-4 methods, whose rows
        # differ by their truncation errors (1.8e-12 in the gammas of
        # ch2-torus CMC). Both are pinned to the collocation at step/10
        # instead: the worst columns are 6.7e-13 in mean_align for
        # collocation and 1.1e-12 in gammas for RK4, both on ch2-torus CMC.
        ref = integrate_sigma(spec, z0, w0, law, step=1e-4, n_steps=300)
        for curve in (sigma, rk4):
            assert curve.ts.shape == ref.ts[::10].shape
            assert not curve.truncated
            errors = reference_errors(curve, ref, SIGMA_ARRAYS[1:])
            assert max(errors.values()) <= 2e-12, errors


@pytest.mark.parametrize("label", LABELS)
def test_pregeodesic_rows_are_the_closed_form_geodesic(label):
    # gamma = 0: the rows' vectors D x are exp and exp_velocity of the
    # start row, on <z, z> = kappa, horizontal, with a constant normal
    spec, z0, w0 = launch(label)
    sp = spec.space
    for law in (CurveLaw("geodesic"), CurveLaw("austere")):
        sigma = integrate_sigma(spec, z0, w0, law, n_steps=30)
        start = np.flatnonzero(sigma.ts == 0.0)[0]
        z, w, xi = sigma.zs[start], sigma.ws[start], sigma.xis[start]
        assert np.abs(sigma.zs - sp.exp(z, w, sigma.ts)).max() <= 1e-15
        assert np.abs(sigma.ws - sp.exp_velocity(z, w, sigma.ts)).max() <= 1e-15
        assert np.array_equal(sigma.xis, np.broadcast_to(xi, sigma.xis.shape))
        assert np.abs(np.real(sp.herm(sigma.zs, sigma.zs)) - sp.kappa).max() <= 1e-15
        for vec in (sigma.ws, sigma.xis):
            assert np.abs(sp.herm(sigma.zs, vec)).max() <= 1e-15
        assert np.abs(sp.norm(sigma.ws) - 1.0).max() <= 1e-15
        assert not sigma.gammas.any()


def test_integrate_sigma_rejects_start_off_the_real_frame():
    spec, z0, w0 = launch("ch2-g0")
    with pytest.raises(GeometryError, match="real frame"):
        integrate_sigma(spec, np.exp(0.4j) * z0, np.exp(0.4j) * w0, CurveLaw("geodesic"),
                        n_steps=5)


def test_lane_core_matches_scalar_when_one_side_truncates():
    # close to an edge of the cp2-torus orbit triangle: the backward side
    # keeps 22 steps and leaves the regular set on the 23rd, the forward side
    # runs all 40
    spec, z0, w0 = launch("cp2-torus", theta=0.0, coords=(-0.463, -0.802))
    sigma = integrate_sigma(spec, z0, w0, CurveLaw("geodesic"), n_steps=40)
    assert sigma.truncation_reason == "left the regular set after 23 steps"
    assert sigma.ts[0] == -22 * sigma.step and len(sigma.ts) == 22 + 1 + 40
    ref = oracles.scalar_integrate_sigma(spec, z0, w0, CurveLaw("geodesic"), n_steps=40)
    assert_same_sigma(sigma, ref, ("ts", "zs", "ws", "xis", "gammas"))
    # Near the edge beta reaches -479, so the O(h^4) position error of the
    # RK4 oracle moves its orbit columns by about 1e-10; they are pinned on
    # the curve's own rows instead. The scalar copy's eigenvector formula
    # cancels there (|s01| << -d, errors near 5e-12 in a and b), so the Hopf
    # components are pinned to eigh on the same rows.
    orbit = []
    for z, xi in zip(sigma.zs, sigma.xis):
        alpha, beta, _, _, mean, _ = oracles.scalar_orbit_invariants(spec, z, xi)
        orbit.append((alpha, beta, spec.space.g(mean, xi),
                      *oracles.eigh_hopf_components(spec, z, xi)))
    for name, col in zip(("alphas", "betas", "mean_align", "hopf_a", "hopf_b"), np.array(orbit).T):
        assert np.abs(getattr(sigma, name) - col).max() <= 1e-12, name


@pytest.mark.parametrize("law, theta", [(CurveLaw("cmc", eta=1.0), 2.7 * np.pi / 7),
                                        (CurveLaw("levi-flat"), 2 * np.pi / 7)],
                         ids=["cmc", "levi-flat"])
def test_rk4_rule_matches_scalar_when_one_side_truncates(law, theta):
    # the collocation rule and the RK4 oracle at the same edge of the orbit
    # triangle: the backward side keeps 24 steps and leaves the regular set
    # on the 25th, the forward side runs all 300; the reference at step/10
    # leaves it at t = -0.0247 (CMC) and -0.0244 (Levi-flat), inside that step
    spec, z0, w0 = launch("cp2-torus", theta=theta, coords=(-0.463, -0.802))
    sigma = integrate_sigma(spec, z0, w0, law, n_steps=300)
    assert sigma.truncation_reason == "left the regular set after 25 steps"
    assert sigma.ts[0] == -24 * sigma.step and len(sigma.ts) == 24 + 1 + 300
    rk4 = oracles.scalar_integrate_sigma(spec, z0, w0, law, n_steps=300)
    assert rk4.truncation_reason == sigma.truncation_reason
    assert np.array_equal(rk4.ts, sigma.ts)
    ref = integrate_sigma(spec, z0, w0, law, step=1e-4, n_steps=3000)
    assert ref.ts[0] < sigma.ts[0]
    # Near the edge |gamma| reaches 650 and h |gamma| 0.65, so both order-4
    # methods are far from round-off. Worst errors against the reference:
    # collocation zs 4.3e-8 (CMC) and 1.4e-9 (Levi-flat), ws and xis 1.4e-6,
    # gammas 4.8e-3 (CMC); RK4 zs 7.2e-8 and 2.0e-8, ws and xis 5.0e-6
    # (Levi-flat), gammas 7.5e-3 (CMC).
    bounds = {"zs": 1e-7, "ws": 1e-5, "xis": 1e-5, "gammas": 1e-2}
    for curve in (sigma, rk4):
        errors = reference_errors(curve, ref, bounds)
        assert all(errors[name] <= bound for name, bound in bounds.items()), errors


def test_collocation_passes_an_edge_the_reference_passes():
    # Launched at theta = 3 pi / 7 from the same point, the CMC curve passes
    # the edge with a least gram det of 1.04e-10, 4 % above the floor, both
    # at step/10 and at step 1e-3 by collocation. The RK4 oracle's stages
    # dip below the floor and stop it after 25 steps. Passing the edge takes
    # the window 32 Picard iterations; past it the curve carries the O(h^4)
    # error of the edge, 3.8e-6 in zs (RK4: 4.2e-6 up to its stop).
    law = CurveLaw("cmc", eta=1.0)
    spec, z0, w0 = launch("cp2-torus", theta=3 * np.pi / 7, coords=(-0.463, -0.802))
    sigma = integrate_sigma(spec, z0, w0, law, n_steps=60)
    ref = integrate_sigma(spec, z0, w0, law, step=1e-4, n_steps=600)
    assert not sigma.truncated and not ref.truncated
    assert reference_errors(sigma, ref, ["zs"])["zs"] <= 1e-5
    rk4 = oracles.scalar_integrate_sigma(spec, z0, w0, law, n_steps=30)
    assert rk4.truncation_reason == "left the regular set after 25 steps"


def test_collocation_stops_a_lane_whose_window_does_not_converge(monkeypatch):
    # one Picard iteration cannot converge: both lanes stop at their first
    # step, and no unconverged row is returned
    monkeypatch.setattr(constructor, "PICARD_ITERATIONS", 1)
    spec, z0, w0 = launch("cp2-torus")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sigma = integrate_sigma(spec, z0, w0, CurveLaw("cmc", eta=1.0), n_steps=30)
    assert sigma.truncation_reason == ("collocation did not converge after 1 steps; "
                                       "collocation did not converge after 1 steps")
    assert len(sigma.ts) == 1


def test_collocation_stops_a_lane_whose_step_turns_too_far():
    # h |gamma| = 1e297 radians a step: the step converges but cannot follow
    # the curve, so both lanes stop at their first step
    spec, z0, w0 = launch("cp2-torus")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sigma = integrate_sigma(spec, z0, w0, CurveLaw("cmc", eta=1e300), n_steps=30)
    assert sigma.truncation_reason == ("curvature too large for the step after 1 steps; "
                                       "curvature too large for the step after 1 steps")
    assert len(sigma.ts) == 1


def test_collocation_converges_at_the_rounding_floor(monkeypatch):
    # 6000 steps out along a ch2-g0 CMC curve the representatives reach 210,
    # and the rounding of the orbit data moves the rows by more than
    # PICARD_TOL from one iteration to the next: the lanes settle where that
    # move stops shrinking. Without the floor the lane stops after 5315 steps.
    spec, z0, w0 = launch("ch2-g0")
    law = CurveLaw("cmc", eta=1.0)
    sigma = integrate_sigma(spec, z0, w0, law, n_steps=6000, two_sided=False)
    assert not sigma.truncated and np.abs(sigma.zs).max() > 200
    monkeypatch.setattr(constructor, "PICARD_FLOOR", 0.0)
    sigma = integrate_sigma(spec, z0, w0, law, n_steps=6000, two_sided=False)
    assert sigma.truncation_reason.startswith("collocation did not converge after ")


def test_collocation_windows_span_a_fixed_time(monkeypatch):
    # a window holds round(GAUSS_SPAN / step) rows, at least one: at step
    # 4e-3 a 200-row curve side runs four windows of 50 rows, like one of
    # 800 rows at step 1e-3, and not one window 0.8 long. Each window's
    # Picard iterations read both nodes of its 50 steps of both lanes (200
    # points a call), then its rows (100 points)
    assert constructor.GAUSS_SPAN == 0.2
    spec, z0, w0 = launch("ch2-torus")
    law = CurveLaw("cmc", eta=1.0)
    blocks = [constructor._GaussRows(spec, law, step).block(2)
              for step in (1e-3, 4e-3, 0.05, 0.1, 1.0)]
    assert blocks == [200, 50, 4, 2, 1]
    sizes = []
    seam = constructor._curve_columns

    def counted(spec, law, x, xi):
        sizes.append(x.shape[1])
        return seam(spec, law, x, xi)

    monkeypatch.setattr(constructor, "_curve_columns", counted)
    sigma = integrate_sigma(spec, z0, w0, law, step=4e-3, n_steps=200)
    assert not sigma.truncated
    assert set(sizes) == {2, 200, 100} and sizes.count(100) == 4


@pytest.mark.parametrize("step, steps", [(0.05, (153, 153)), (0.1, (79, 77))])
def test_coarse_step_windows_converge_past_a_fixed_row_window(step, steps):
    # the ch2-g0 CMC curve of construct's default launch at a coarse step:
    # windows of 200 rows (10 long at step 0.05) stopped its lanes after 88
    # and 87 steps at step 0.05 and 40 and 40 at step 0.1. Windows of
    # GAUSS_SPAN take each side further, still short of its 200 steps
    spec, z0, w0 = launch("ch2-g0")
    sigma = integrate_sigma(spec, z0, w0, CurveLaw("cmc", eta=1.0), step=step, n_steps=200)
    assert sigma.truncation_reason == "; ".join(
        f"collocation did not converge after {n} steps" for n in steps)
    assert len(sigma.ts) == sum(steps) - 1


@pytest.mark.parametrize("label", ["cp2-torus", "ch2-torus", "ch2-g0"])
def test_collocation_keeps_the_frame_without_renormalizing(label):
    # Gauss collocation conserves quadratic invariants: over 1000 rows (five
    # windows) <z, z> = kappa, |w| = |xi| = 1 and <z, w> = <z, xi> = <w, xi> = 0
    # hold to round-off; the worst is 3.2e-14 in <z, z> on cp2-torus
    spec, z0, w0 = launch(label)
    sp = spec.space
    sigma = integrate_sigma(spec, z0, w0, CurveLaw("cmc", eta=1.0), n_steps=1000,
                            two_sided=False)
    assert len(sigma.ts) == 1001 and not sigma.truncated
    z, w, xi = sigma.zs, sigma.ws, sigma.xis
    assert np.abs(sp.herm(z, z) - sp.kappa).max() <= 1e-13
    assert np.abs(sp.norm(w) - 1.0).max() <= 1e-13
    assert np.abs(sp.norm(xi) - 1.0).max() <= 1e-13
    for a, b in ((z, w), (z, xi), (w, xi)):
        assert np.abs(sp.herm(a, b)).max() <= 1e-13


def test_lane_core_truncates_non_finite_lanes_without_warnings():
    spec, z0, w0 = launch("ch2-g0")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sigma = integrate_sigma(spec, z0, w0, CurveLaw("cmc", eta=np.nan), n_steps=20)
        # a finite step whose first row overflows CH^2's cosh
        stepped = integrate_sigma(spec, z0, w0, CurveLaw("geodesic"), step=1e3, n_steps=20)
    for curve in (sigma, stepped):
        assert curve.truncated
        assert curve.truncation_reason == "non-finite state; non-finite state"
        assert len(curve.ts) == 1


@pytest.mark.parametrize("label, grid, n_found", [
    # the origin of cp2-torus has H = 0 and launches the six-direction fan:
    # the three mirror lines through it stay aligned, and [0.1, 0.0] lies on one
    ("cp2-torus", [[0.0, 0.0], [0.1, 0.0], [0.15, 0.1]], 3),
    ("ch2-k0-g2a", [[0.0, 0.0], [0.1, 0.0], [-0.2, 0.1]], 0),
    # rejected past the oracle's 10-step probe: both launches at step 16
    ("ch2-k0-g2a", [[-0.3, 0.0], [-0.3, -0.2]], 0),
    # [0.05, 0.1] is rejected at step 22 and [-0.1, 0.15] at step 11
    ("cp2-torus", [[0.0, 0.0], [0.1, 0.0], [0.05, 0.1], [-0.1, 0.15]], 3),
    # the austere benchmark's seed-3 grid: 25 launches stay aligned, on 21
    # distinct geodesics
    ("ch2-line-g2a", "benchmark-seed-3", 21),
])
def test_austere_search_matches_scalar_search(label, grid, n_found, tmp_path):
    # the scalar search dedupes by 3 x 3 determinants of its curves' rows,
    # the search by the cross products of its launches
    spec = load_action(label)
    if grid == "benchmark-seed-3":
        grid = WORKLOADS["austere"](3, str(tmp_path)).grids[label]
    found = austere_search(spec, grid, n_steps=40)
    ref = oracles.scalar_austere_search(spec, grid, n_steps=40)
    assert len(found) == len(ref) == n_found
    for new, old in zip(found, ref):
        assert np.array_equal(new.start_coords, old.start_coords)
        assert abs(new.alignment_residual - old.alignment_residual) <= 1e-12
        assert_same_sigma(new.curve, old.curve)


def test_austere_search_keeps_one_candidate_per_geodesic(monkeypatch, tmp_path):
    # launches from points of one mirror line, the q2 = 0 line through the
    # chart origin, are arcs of one geodesic: the search keeps the first.
    # Far out on ch2-torus their planes differ by up to 2.8e-10, the rounding
    # of H's direction at 3.9 model radii
    lines = {"cp2-torus": [0.1, 0.2, -0.25, 0.7, 1.2], "ch2-g0": [0.1, 1.0, 3.0, 3.9, -1.0],
             "ch2-torus": [0.1, 1.0, 3.5, 3.9, -3.9]}
    for label, q1s in lines.items():
        grid = [[q1, 0.0] for q1 in q1s]
        found = austere_search(load_action(label), grid, n_steps=40)
        assert [cand.start_coords.tolist() for cand in found] == [grid[0]], label
    # the three mirror lines that cross at cp2-torus's Clifford point, 60
    # degrees apart, stay distinct; so do the nearest two ch2-line-g2a
    # geodesics of the benchmark grids of seeds 1-30, whose planes are a
    # sine of 1.24e-2 apart (seed 6)
    cp2 = austere_search(load_action("cp2-torus"), [[0.0, 0.0]], n_steps=40)
    assert [cand.start_coords.tolist() for cand in cp2] == [[0.0, 0.0]] * 3
    near = WORKLOADS["austere"](6, str(tmp_path)).grids["ch2-line-g2a"][[0, 21]]
    assert len(austere_search(load_action("ch2-line-g2a"), near, n_steps=40)) == 2
    # one geodesic per torus action and ch2-g0 on the seed-3 benchmark grids,
    # none on ch2-k0-g2a, and 21 distinct geodesics on ch2-line-g2a, which
    # its transitive group carries onto one another
    workload = WORKLOADS["austere"](3, str(tmp_path))
    counts = [len(austere_search(workload.specs[label], workload.grids[label],
                                 n_steps=AUSTERE_N_STEPS)) for label in LABELS]
    assert dict(zip(LABELS, counts)) == {"cp2-torus": 1, "ch2-torus": 1, "ch2-g0": 1,
                                         "ch2-k0-g2a": 0, "ch2-line-g2a": 21}
    # with no dedupe, every launch on a mirror line survives
    monkeypatch.setattr(constructor, "PLANE_SINE", 0.0)
    for label, q1s in lines.items():
        found = austere_search(load_action(label), [[q1, 0.0] for q1 in q1s], n_steps=40)
        assert len(found) == len(q1s), label



def test_austere_search_launches_each_geodesic_once(monkeypatch, tmp_path):
    # the plane test runs before the lanes: a launch whose geodesic an
    # earlier survivor holds is never integrated
    launch_sigmas = constructor._launch_sigmas
    sizes, reject_first = [], [False]

    def recording(spec, law, x0, *args, **kwargs):
        sizes.append(len(x0))
        curves = launch_sigmas(spec, law, x0, *args, **kwargs)
        if reject_first[0] and len(sizes) == 1:
            curves[0] = None
        return curves

    monkeypatch.setattr(constructor, "_launch_sigmas", recording)
    # one batch per seed-3 benchmark grid, less the four followers of the
    # mirror line or of a ch2-line-g2a geodesic; ch2-k0-g2a has none
    workload = WORKLOADS["austere"](3, str(tmp_path))
    per_grid = []
    for label in LABELS:
        sizes.clear()
        austere_search(workload.specs[label], workload.grids[label], n_steps=AUSTERE_N_STEPS)
        per_grid.append(list(sizes))
    assert per_grid == [[21], [21], [21], [25], [21]]
    # two identical grid points on a mirror line launch once
    spec = load_action("cp2-torus")
    sizes.clear()
    assert len(austere_search(spec, [[0.1, 0.0], [0.1, 0.0]], n_steps=40)) == 1
    assert sizes == [1]
    # a first mirror-line launch that fails leaves its follower to a second
    # batch, which keeps it with the bits it has searched alone; the launch
    # at [0.15, 0.1], which alignment rejects, does not run again
    alone = austere_search(spec, [[0.2, 0.0]], n_steps=40)
    sizes.clear()
    reject_first[0] = True
    found = austere_search(spec, [[0.1, 0.0], [0.2, 0.0], [0.15, 0.1]], n_steps=40)
    assert sizes == [2, 1]
    assert len(alone) == len(found) == 1
    assert found[0].start_coords.tolist() == [0.2, 0.0]
    assert found[0].alignment_residual == alone[0].alignment_residual
    assert curve_bytes(found[0].curve) == curve_bytes(alone[0].curve)

def _count_invariant_calls(monkeypatch):
    """Record each orbit evaluation of the section curves, by kind.

    "full" per ``_orbit_invariants`` call, the only orbit evaluation of the
    rows: ``constructor`` binds no gram-only seam. The search's own
    ``_orbit_body`` call on its grid is not recorded; nothing else in
    ``constructor`` calls the body (``test_imports``).
    """
    calls = []
    seam = constructor._orbit_invariants

    def call(*args, **kwargs):
        calls.append("full")
        return seam(*args, **kwargs)

    monkeypatch.setattr(constructor, "_orbit_invariants", call)
    return calls


def test_austere_search_stops_misaligned_launch_early(monkeypatch):
    # the launch at [-0.3, 0.0] fails alignment at row 16 of 120 forward and
    # at row 17 backward, so it stops in the first block of rows, which holds
    # all 120 (ORBIT_BATCH // 2 lanes = 400 rows): the start row and the
    # block's rows make 2 evaluations
    calls = _count_invariant_calls(monkeypatch)
    assert austere_search(load_action("ch2-k0-g2a"), [[-0.3, 0.0]], n_steps=120) == []
    assert (constructor.ROW_BLOCK, constructor.ORBIT_BATCH) == (16, 800)
    # each gives the rows' columns, gram and alignment at once, and a
    # rejected launch builds no curve that would evaluate them again
    assert calls == ["full", "full"]


def test_orbit_reading_law_evaluates_full_orbit_data_at_every_stage(monkeypatch):
    # CMC reads alpha and beta at every stage node: one start row, then one
    # call per Picard iteration on both nodes of every step of the two lanes
    # (six iterations for this 30-row window), and one call on the window's
    # rows for their gram det and orbit columns; the curve built from the
    # lanes evaluates nothing again
    calls = _count_invariant_calls(monkeypatch)
    spec, z0, w0 = launch("cp2-torus")
    integrate_sigma(spec, z0, w0, CurveLaw("cmc", eta=1.0), n_steps=30)
    assert calls == ["full"] * 8


def test_geodesic_law_evaluates_orbit_data_once_per_row_in_the_lanes(monkeypatch):
    # the geodesic law's lanes read the full orbit data at their rows, the
    # regularity test and the curve's orbit columns in one call: the start
    # row, then the one block of rows 1-30 of both lanes (a block holds
    # ORBIT_BATCH // 2 = 400 rows of 2 lanes); the curve built from the
    # lanes evaluates nothing again
    calls = _count_invariant_calls(monkeypatch)
    spec, z0, w0 = launch("cp2-torus")
    sigma = integrate_sigma(spec, z0, w0, CurveLaw("geodesic"), n_steps=30)
    assert len(sigma.ts) == 61
    assert (constructor.ROW_BLOCK, constructor.ORBIT_BATCH) == (16, 800)
    assert calls == ["full"] * 2


def test_austere_search_nan_tolerance_keeps_nothing(monkeypatch):
    # |<H, xi>| < nan is false, so every launch stops on its start row: the
    # origin's six-direction fan first, then, since the fan's line through
    # [0.1, 0.0] failed, that point's launch on it in a second batch
    calls = _count_invariant_calls(monkeypatch)
    sizes = []
    launch_sigmas = constructor._launch_sigmas

    def recording(spec, law, x0, *args, **kwargs):
        sizes.append(len(x0))
        return launch_sigmas(spec, law, x0, *args, **kwargs)

    monkeypatch.setattr(constructor, "_launch_sigmas", recording)
    monkeypatch.setattr(constructor, "AUSTERE_TOL", np.nan)
    spec = load_action("cp2-torus")
    assert austere_search(spec, [[0.0, 0.0], [0.1, 0.0]], n_steps=40) == []
    assert sizes == [6, 1]
    assert calls == ["full", "full"]


@pytest.mark.parametrize("grid", [
    [0.1, 0.0, 5.0], [[0.1, 0.0, 5.0]], [[0.1]], [[[0.1, 0.0]]], [[0.1, 0.0], [0.2]],
    [["a", "b"]], [[np.nan, 0.0]], [[0.1, 0.0], [np.inf, 0.0]], [], np.zeros((0, 2)),
])
def test_austere_search_rejects_a_malformed_grid(grid):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GeometryError) as err:
            austere_search(load_action("cp2-torus"), grid, n_steps=20)
    assert str(err.value) == "search grid must be N > 0 rows of 2 finite numbers"


@pytest.mark.parametrize("label", LABELS)
def test_austere_search_skips_grid_points_whose_chart_point_overflows(label):
    # a grid point far out is masked like a singular one, without a warning,
    # and the rest of the grid searches exactly as it does alone: a point
    # whose chart point overflows by its frame coordinates, and in CH^2 also
    # [30, 0], whose chart point is finite, but cosh(30) has cost its
    # representative the sign of <x, x> (CP^2 is compact, and there [30, 0]
    # is an ordinary point)
    spec = load_action(label)
    fars = [[1e300, 0.0], [0.0, 1e300], [1e200, 1e200]] + [[30.0, 0.0]] * (spec.space.c < 0)
    alone = austere_search(spec, [[0.1, 0.0]], n_steps=20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for far in fars:
            assert austere_search(spec, [far], n_steps=20) == []
            mixed = austere_search(spec, [far, [0.1, 0.0]], n_steps=20)
            assert len(mixed) == len(alone)
            for new, old in zip(mixed, alone):
                assert np.array_equal(new.start_coords, old.start_coords)
                assert np.array_equal(new.curve.xs, old.curve.xs)


# -- per-curve orbit columns against the per-row evaluation they replace -----------

ORBIT_COLUMNS = ("alphas", "betas", "hopf_a", "hopf_b", "mean_align")


def assert_orbit_columns_per_row(curve):
    """The curve's orbit columns equal ``_orbit_invariants`` run on one real row at a time."""
    spec, sp = curve.spec, curve.space
    ref = []
    for x, v in zip(curve.xs[:, :, None], curve.vs[:, :, None]):
        alpha, beta, a, b, mean, _ = constructor._orbit_invariants(spec, x, v)
        ref.append((alpha[0], beta[0], a[0], b[0], sp.g(mean.T, v.T)[0]))
    for name, col in zip(ORBIT_COLUMNS, np.array(ref).T):
        assert np.array_equal(getattr(curve, name), col), name


@pytest.mark.parametrize("label", LABELS)
def test_austere_candidates_orbit_columns_and_sweeps_match_per_row(label):
    spec = load_action(label)
    found = austere_search(spec, [[0.0, 0.0], [0.1, 0.0], [-0.2, 0.0], [0.05, 0.1]],
                           n_steps=40)
    # ch2-torus and ch2-g0 keep their mirror line, and cp2-torus its three
    assert len(found) == {"cp2-torus": 3, "ch2-k0-g2a": 0, "ch2-line-g2a": 2}.get(label, 1)
    for cand in found:
        assert_orbit_columns_per_row(cand.curve)


def test_geodesic_orbit_columns_match_per_row():
    spec, z0, w0 = launch("ch2-g0")
    assert_orbit_columns_per_row(integrate_sigma(spec, z0, w0, CurveLaw("geodesic"),
                                                 n_steps=30))
    # one side truncated (see test_lane_core_matches_scalar_when_one_side_truncates)
    spec, z0, w0 = launch("cp2-torus", theta=0.0, coords=(-0.463, -0.802))
    sigma = integrate_sigma(spec, z0, w0, CurveLaw("geodesic"), n_steps=40)
    assert sigma.truncated
    assert_orbit_columns_per_row(sigma)


# -- a lane's columns against the curve's own rows -----------------------------------


def assert_lane_columns_are_the_rows_columns(curve):
    """The curve's orbit columns and gammas have, bit for bit, what
    ``curve_from_rows`` gives its real rows, as the scene loader does.

    Compared as int64 views, so -0.0 and +0.0 differ.
    """
    ref = constructor.curve_from_rows(curve.spec, curve.law, curve.step, curve.ts, curve.xs,
                                      curve.us, curve.vs, curve.truncation_reason)
    for name in ("gammas",) + ORBIT_COLUMNS:
        assert np.array_equal(getattr(curve, name).view(np.int64),
                              getattr(ref, name).view(np.int64)), name


def test_austere_cycle_lane_columns_are_their_rows_columns(tmp_path, monkeypatch):
    # every launch that alignment keeps in one seed-3 austere benchmark
    # cycle, before the search filters them; followers of a survivor's
    # geodesic are never launched
    workload = WORKLOADS["austere"](3, str(tmp_path))
    kept = []
    launch_sigmas = constructor._launch_sigmas

    def recording(*args, **kwargs):
        curves = launch_sigmas(*args, **kwargs)
        kept.extend(c for c in curves if c is not None)
        return curves

    monkeypatch.setattr(constructor, "_launch_sigmas", recording)
    for label in workload.cycle():
        austere_search(workload.specs[label], workload.grids[label], n_steps=AUSTERE_N_STEPS)
    assert len(kept) == 24
    for curve in kept:
        assert_lane_columns_are_the_rows_columns(curve)


def test_lane_columns_are_their_rows_columns_on_the_q2_axis():
    # starts on the line q2 = 0, along it and across it, for the pregeodesic
    # and the collocated laws: on ch2-g0, ch2-k0-g2a and ch2-line-g2a the
    # rows there have zero frame coordinates, some -0.0
    zeros = negative = 0
    for label in LABELS:
        for law in LAWS:
            for coords in ((0.1, 0.0), (-0.2, 0.0), (0.0, 0.0)):
                for theta in (0.0, np.pi / 2):
                    spec, z0, w0 = launch(label, theta=theta, coords=coords)
                    sigma = integrate_sigma(spec, z0, w0, law, n_steps=30)
                    assert len(sigma.ts) == 61
                    assert_lane_columns_are_the_rows_columns(sigma)
                    rows = np.concatenate([sigma.xs, sigma.us, sigma.vs])
                    zeros += np.count_nonzero(sigma.xs == 0.0)
                    negative += np.count_nonzero((rows == 0.0) & np.signbit(rows))
    assert zeros > 0 and negative > 0


def test_truncated_lane_columns_are_their_rows_columns():
    # one side truncated (see test_lane_core_matches_scalar_when_one_side_truncates
    # and, for the collocation lane, test_rk4_rule_matches_scalar_when_one_side_truncates)
    spec, z0, w0 = launch("cp2-torus", theta=0.0, coords=(-0.463, -0.802))
    for law in (CurveLaw("geodesic"), CurveLaw("austere")):
        sigma = integrate_sigma(spec, z0, w0, law, n_steps=40)
        assert sigma.truncation_reason == "left the regular set after 23 steps"
        assert_lane_columns_are_the_rows_columns(sigma)
    spec, z0, w0 = launch("cp2-torus", theta=2.7 * np.pi / 7, coords=(-0.463, -0.802))
    sigma = integrate_sigma(spec, z0, w0, CurveLaw("cmc", eta=1.0), n_steps=40)
    assert sigma.truncation_reason == "left the regular set after 25 steps"
    assert_lane_columns_are_the_rows_columns(sigma)


# -- the batched orbit work against one row per call ---------------------------------

PINNED_ARRAYS = ("ts", "xs", "us", "vs") + ORBIT_COLUMNS + ("gammas",)


def curve_bytes(curve):
    """The bytes of every array of a curve and its truncation reason, or None."""
    if curve is None:
        return None
    return tuple(getattr(curve, name).tobytes() for name in PINNED_ARRAYS), \
        curve.truncation_reason


def at_defaults_and_one_row_per_call(monkeypatch, run):
    """run() at the defaults, then with every block and every orbit call one row long."""
    default = run()
    with monkeypatch.context() as m:
        m.setattr(constructor, "ORBIT_BATCH", 1)
        m.setattr(constructor, "ROW_BLOCK", 1)
        return default, run()


@pytest.mark.parametrize("label", ["cp2-torus", "ch2-line-g2a", "ch2-k0-g2a"])
def test_austere_search_batched_orbit_work_matches_one_row_per_call(label, tmp_path,
                                                                    monkeypatch):
    # the seed-3 austere benchmark grid of the action; every launch's curve,
    # or None where alignment rejects it, is compared, not only the kept ones
    workload = WORKLOADS["austere"](3, str(tmp_path))
    launched = []
    launch_sigmas = constructor._launch_sigmas

    def recording(*args, **kwargs):
        curves = launch_sigmas(*args, **kwargs)
        launched.append([curve_bytes(c) for c in curves])
        return curves

    monkeypatch.setattr(constructor, "_launch_sigmas", recording)

    def run():
        found = austere_search(workload.specs[label], workload.grids[label],
                               n_steps=AUSTERE_N_STEPS)
        return [(c.start_coords.tobytes(), c.alignment_residual, curve_bytes(c.curve))
                for c in found]

    default, one_row = at_defaults_and_one_row_per_call(monkeypatch, run)
    assert default == one_row
    assert len(launched) == 2 and launched[0] == launched[1]
    kept = [c for c in launched[0] if c is not None]
    if label == "ch2-k0-g2a":
        assert default == [] and kept == [] and len(launched[0]) > 0
    elif label == "cp2-torus":
        # one aligned lane pair: the mirror line's followers never launch
        assert len(default) == len(kept) == 1
    else:
        # 21 kept curves of 241 rows cross ORBIT_BATCH
        assert len(default) > 0 and len(kept) * 241 > constructor.ORBIT_BATCH


@pytest.mark.parametrize("law", [CurveLaw("geodesic"), CurveLaw("cmc", eta=1.0)],
                         ids=["geodesic", "cmc"])
def test_launch_batch_across_an_orbit_batch_boundary_matches_one_row_per_call(law,
                                                                            monkeypatch):
    # three launches of 401 rows: the 800th row falls inside the second curve,
    # whose orbit columns come from two calls at the defaults
    spec = load_action("cp2-torus")
    starts = [launch("cp2-torus", coords=c) for c in ((0.12, 0.07), (0.0, 0.1), (-0.1, 0.05))]
    x0 = spec.frame_coords(np.array([z0 for _, z0, _ in starts]))
    u0 = spec.frame_coords(np.array([w0 for _, _, w0 in starts]))

    def run():
        return [curve_bytes(c) for c in constructor._launch_sigmas(
            spec, law, x0, u0, constructor.DEFAULT_STEP, 200)]

    default, one_row = at_defaults_and_one_row_per_call(monkeypatch, run)
    assert [len(c[0][0]) // 8 for c in default] == [401] * 3
    assert 401 < constructor.ORBIT_BATCH < 802
    assert default == one_row


def test_truncated_launch_matches_one_row_per_call(monkeypatch):
    # one side stops inside its first block at the defaults, and after 23
    # one-row blocks here
    spec, z0, w0 = launch("cp2-torus", theta=0.0, coords=(-0.463, -0.802))

    def run():
        return curve_bytes(integrate_sigma(spec, z0, w0, CurveLaw("geodesic"), n_steps=40))

    default, one_row = at_defaults_and_one_row_per_call(monkeypatch, run)
    assert default[1] == "left the regular set after 23 steps"
    assert default == one_row


@pytest.mark.parametrize("label", ["cp2-torus", "ch2-g0"])
def test_collocation_checks_its_nodes_on_the_curve(label):
    # With gamma = 0 the curve is the closed-form geodesic. At h = 0.01 the
    # rows lie on it to 1.4e-12 and the nodes at t + (1/2 -+ sqrt(3)/6) h to
    # 8.3e-9 (stage order 2).
    spec, z0, w0 = launch(label)
    sp, h = spec.space, 0.01
    x0, u0 = spec.frame_coords(z0).real, spec.frame_coords(w0).real
    v0 = spec.frame_coords(rotate90(spec, z0, w0)).real
    rows, starts, maps = constructor._GaussRows(spec, CurveLaw("cmc"), h)._propagate(
        np.array([[x0, u0, v0]]), np.zeros((1, 10, 2)))

    def geodesic(t):
        c, s = sp.geodesic_coefficients(t / sp.radius)
        return c[:, None] * x0 + sp.radius * s[:, None] * u0

    t = h * np.arange(10)
    assert np.abs(rows[0, :, 0] - geodesic(t + h)).max() <= 1e-11
    points = (maps @ starts[:, :, None])[0, :, :, 0]
    for m, frac in enumerate([0.5 - np.sqrt(3) / 6, 0.5 + np.sqrt(3) / 6]):
        assert np.abs(points[:, m] - geodesic(t + frac * h)).max() <= 1e-8
