import numpy as np
import pytest

from hopflab.ambient import AmbientPoint, AmbientTangent, GeometryError, SpaceForm
from hopflab.catalog import get_entry
from hopflab.hypersurface import (
    TAU_MULT,
    TAU_PROJ,
    FrameError,
    HypersurfacePatch,
    ImmersionError,
    adapted_frame,
    classify,
    frame_derivative_data,
    hopf_cmc_relation_check,
    hopf_projection_count,
    levi_form,
    shape_data,
    shape_operator,
    verify_connection_formulas,
    verify_gauss_codazzi,
)
from oracles import (
    scalar_frame_derivative_data,
    scalar_verify_gauss_codazzi,
    sphere_spectrum_oracle,
    tube_spectrum_oracle,
)


# -- shape operator against the radial Jacobi oracle ---------------------------


def test_sphere_spectrum_cp2_against_jacobi_oracle(sphere_entry):
    expected = sphere_spectrum_oracle(4.0, 0.5)
    sd = shape_data(sphere_entry.patch, sphere_entry.patch.grid((3, 3, 3), margin=0.1))
    measured = np.sort(sd.eigvals, axis=1)[:, ::-1]
    assert np.abs(measured - np.asarray(expected)).max() < 1e-4


def test_sphere_quarter_pi_hopf_curvature_zero():
    # r = pi/4 in CP^2(4): spectrum {2cot(pi/2), cot(pi/4), cot(pi/4)} = {0,1,1}
    entry = get_entry("geodesic-sphere", r=np.pi / 4)
    spec, xi = shape_operator(entry.patch, [0.7, 0.8, 0.6])
    vals = np.asarray(spec.eigenvalues)
    assert np.abs(np.sort(vals) - np.array([0.0, 1.0, 1.0])).max() < 1e-4


def test_tube_spectra_against_jacobi_oracle():
    for name, c, core, r in (("tube-rp2", 4.0, "rp2", 0.3), ("tube-ch1", -4.0, "ch1", 0.4)):
        entry = get_entry(name, r=r)
        expected = tube_spectrum_oracle(c, r, core)
        sd = shape_data(entry.patch, entry.patch.grid((2, 2, 2), margin=0.2))
        measured = np.sort(sd.eigvals, axis=1)[:, ::-1]
        assert np.abs(measured - np.asarray(expected)).max() < 1e-4


def test_horosphere_spectrum():
    entry = get_entry("horosphere")
    sd = shape_data(entry.patch, entry.patch.grid((3, 3, 3), margin=0.1))
    assert np.abs(np.sort(sd.eigvals, axis=1)[:, ::-1]
                  - np.array([2.0, 1.0, 1.0])).max() < 1e-4


def test_degenerate_parametrization_raises(cp2):
    # a "patch" that ignores its third parameter is not an immersion
    e1 = np.eye(3, dtype=complex)[1]
    e2 = np.eye(3, dtype=complex)[2]
    origin = cp2.normalize_rep(np.eye(3, dtype=complex)[0])

    def chart(params):
        v = params[:, 0, None] * e1 + params[:, 1, None] * e2
        return cp2.exp(origin[None, :], v, 1.0)

    patch = HypersurfacePatch(cp2, chart, ((-0.5, 0.5), (-0.5, 0.5), (-0.5, 0.5)))
    with pytest.raises(ImmersionError):
        shape_data(patch, np.array([[0.1, 0.2, 0.0]]))


# -- Hopf projection count and adapted frame -----------------------------------


def test_h_is_one_on_sphere(sphere_entry):
    assert hopf_projection_count(sphere_entry.patch, [0.7, 0.7, 0.7]) == 1


def test_h_is_two_with_a_eq_b_on_lohnherr(lohnherr_entry):
    patch = lohnherr_entry.patch
    p = patch.grid((3, 3, 3), margin=0.2)[13]
    assert hopf_projection_count(patch, p) == 2
    fr = adapted_frame(patch, p)
    assert abs(fr.a - 1 / np.sqrt(2)) < 1e-6
    assert abs(fr.b - 1 / np.sqrt(2)) < 1e-6


def test_adapted_frame_identities(cmc_ehs):
    patch = cmc_ehs.patch
    for p in patch.grid((3, 2, 2), margin=0.1):
        fr = adapted_frame(patch, p)
        assert fr.a > 0 and fr.b > 0
        assert max(fr.residuals.values()) < 1e-6


def test_adapted_frame_rejects_hopf_input(sphere_entry):
    with pytest.raises(FrameError):
        adapted_frame(sphere_entry.patch, [0.7, 0.7, 0.7])


# -- Levi form ------------------------------------------------------------------


def test_levi_form_frame_formula(cmc_ehs):
    patch = cmc_ehs.patch
    p = patch.grid((3, 2, 2), margin=0.1)[4]
    fr = adapted_frame(patch, p)
    laa = levi_form(patch, p, fr.A, fr.A)
    assert abs(laa - (fr.gamma + fr.b ** 2 * fr.alpha + fr.a ** 2 * fr.beta)) < 1e-6


def test_levi_form_symmetry_and_domain(cmc_ehs):
    patch = cmc_ehs.patch
    p = patch.grid((3, 2, 2), margin=0.1)[4]
    fr = adapted_frame(patch, p)
    ja = 1j * fr.A
    assert abs(levi_form(patch, p, fr.A, ja) - levi_form(patch, p, ja, fr.A)) < 1e-8
    jxi = 1j * fr.xi
    with pytest.raises(GeometryError):
        levi_form(patch, p, jxi, fr.A)   # J xi is not in the complex distribution


def test_lohnherr_levi_flat(lohnherr_entry):
    patch = lohnherr_entry.patch
    for p in patch.grid((3, 2, 2), margin=0.15):
        fr = adapted_frame(patch, p)
        assert abs(levi_form(patch, p, fr.A, fr.A)) < 1e-4


# -- classification -------------------------------------------------------------


def test_classify_sphere_hopf_cmc(sphere_entry):
    rep = classify(sphere_entry.patch, sphere_entry.patch.grid((3, 3, 3), margin=0.1),
                   derivative_subsample=2)
    assert rep.h == 1 and rep.hopf
    assert not rep.austere
    assert rep.residuals["mean_curvature_spread"] < 1e-4
    assert not rep.two_hopf and not rep.strongly_two_hopf


def test_classify_flags_monotone(lohnherr_entry):
    rep = classify(lohnherr_entry.patch,
                   lohnherr_entry.patch.grid((4, 3, 3), margin=0.1),
                   derivative_subsample=2)
    assert rep.strongly_two_hopf and rep.two_hopf and rep.h == 2
    assert rep.ruled and rep.levi_flat
    assert rep.austere and abs(rep.mean_curvature) < 1e-3
    d = rep.to_dict()
    assert set(d) >= {"h", "hopf", "strongly_two_hopf", "residuals", "tolerances"}


def test_classify_grid_outside_box_raises(sphere_entry):
    with pytest.raises(GeometryError):
        classify(sphere_entry.patch, np.array([[99.0, 0.7, 0.7]]))


# -- connection, Gauss-Codazzi, Hopf relation ------------------------------------


def test_connection_formulas_strong_and_generic(cmc_ehs):
    p = np.array([0.04, 0.02, -0.05])
    strong = verify_connection_formulas(cmc_ehs.patch, p, mode="strong")
    assert strong["max_entry_residual"] < 1e-3
    assert strong["max_identity_residual"] < 1e-3
    generic = verify_connection_formulas(cmc_ehs.patch, p, mode="generic")
    if not generic["skipped_degenerate"]:
        assert generic["max_entry_residual"] < 1e-3
        assert generic["max_identity_residual"] < 1e-3
    auto = verify_connection_formulas(cmc_ehs.patch, p, mode="auto")
    assert auto["mode"] == "strong"   # construction is strongly 2-Hopf


def test_gauss_codazzi_on_catalog_and_corruption(sphere_entry, rng):
    p = sphere_entry.patch.grid((2, 2, 2), margin=0.3)[0]
    out = verify_gauss_codazzi(sphere_entry.patch, p, rng=rng, n_random=20)
    assert out["gauss"] < 1e-4 and out["codazzi"] < 1e-4
    pert = np.zeros((3, 3))
    pert[0, 1] = pert[1, 0] = 0.05
    bad = verify_gauss_codazzi(sphere_entry.patch, p, rng=rng, n_random=20,
                               shape_perturbation=pert)
    assert max(bad["gauss"], bad["codazzi"]) > 1e-2


@pytest.mark.parametrize("name, perturbed", [
    ("lohnherr", False),
    ("tube-ch1", False),
    ("geodesic-sphere", True),
])
def test_gauss_codazzi_matches_one_point_stencils(name, perturbed):
    entry = get_entry(name)
    p = entry.patch.grid((2, 2, 2), margin=0.25)[3]
    pert = None
    if perturbed:
        pert = np.zeros((3, 3))
        pert[0, 1] = pert[1, 0] = 0.05
    rng_new, rng_old = np.random.default_rng(5), np.random.default_rng(5)
    new = verify_gauss_codazzi(entry.patch, p, rng=rng_new, n_random=6, shape_perturbation=pert)
    old = scalar_verify_gauss_codazzi(entry.patch, p, rng=rng_old, n_random=6,
                                      shape_perturbation=pert)
    for key in ("gauss", "codazzi"):
        assert abs(new[key] - old[key]) < 1e-10
    assert new["step"] == old["step"] and new["params"] == old["params"]
    # both draw the same random vectors, so a shared rng stays in step
    assert rng_new.standard_normal() == rng_old.standard_normal()


def test_frame_derivative_data_matches_one_point_stencils(cmc_ehs):
    grid = cmc_ehs.patch.grid((2, 2, 2), margin=0.2)
    sd = shape_data(cmc_ehs.patch, grid)
    for n in (0, 7):
        fr, scalars, nabla = frame_derivative_data(cmc_ehs.patch, sd, n)
        fr_old, scalars_old, nabla_old, _ = scalar_frame_derivative_data(cmc_ehs.patch, sd, n)
        assert np.array_equal(fr.A, fr_old.A)
        assert scalars.keys() == scalars_old.keys() and nabla.keys() == nabla_old.keys()
        for key in scalars:
            assert abs(scalars[key] - scalars_old[key]) < 1e-10
        for key in nabla:
            assert np.abs(nabla[key] - nabla_old[key]).max() < 1e-10


def test_hopf_cmc_relation(sphere_entry):
    # r = pi/4 sphere in CP^2(4): alpha=0, beta=gamma=1 -> 0 - 4 + 4 = 0
    entry = get_entry("geodesic-sphere", r=np.pi / 4)
    assert hopf_cmc_relation_check(entry.patch, [0.7, 0.8, 0.6]) < 1e-6
    horo = get_entry("horosphere")
    assert hopf_cmc_relation_check(horo.patch, [0.1, -0.1, 0.2]) < 1e-6


def test_hopf_cmc_relation_rejects_non_hopf(lohnherr_entry):
    p = lohnherr_entry.patch.grid((3, 3, 3), margin=0.2)[13]
    with pytest.raises(GeometryError):
        hopf_cmc_relation_check(lohnherr_entry.patch, p)


def test_shape_spectrum_structure(sphere_entry):
    spec, xi = shape_operator(sphere_entry.patch, [0.7, 0.8, 0.6])
    assert spec.multiplicities in ((2, 1), (1, 2))
    assert len(spec.eigenvalues) == 3
    sp = sphere_entry.space
    assert abs(sp.g(xi.vec, xi.vec) - 1.0) < 1e-9
