import re
import warnings

import numpy as np
import pytest

import hopflab.hypersurface as hypersurface
from hopflab.actions import LABELS
from hopflab.ambient import GeometryError, SpaceForm
from hopflab.catalog import get_entry
from hopflab.catalog import CATALOG_NAMES
from hopflab.hypersurface import (
    FrameError,
    HypersurfacePatch,
    ImmersionError,
    PointFrames,
    ShapeData,
    adapted_frames,
    bracket_by_flows,
    classify,
    frame_derivative_data,
    hopf_cmc_relation_check,
    levi_form,
    shape_data,
    verify_connection_formulas,
    verify_gauss_codazzi,
)
from hopflab.hypersurface import _NESTED_INDEX, _central_offsets, _nested_stencil
import oracles
from oracles import (
    nested_49_verify_gauss_codazzi,
    two_call_shape_data,
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
    vals = shape_data(entry.patch, np.array([[0.7, 0.8, 0.6]])).eigvals[0]
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
    # a "patch" that ignores one of its parameters is not an immersion;
    # ignoring t makes v1 = 0 exactly, and the unit normal's 0/0 there must
    # surface as the immersion failure, not as a NumPy floating-point error
    e1 = np.eye(3, dtype=complex)[1]
    e2 = np.eye(3, dtype=complex)[2]
    origin = cp2.normalize_rep(np.eye(3, dtype=complex)[0])
    params = np.array([[0.1, 0.2, 0.0]])
    message = re.escape(f"immersion fails at params {params[0]} (gram det <= 1e-10)")
    for ignored in (2, 0):
        def chart(params):
            p = np.delete(params, ignored, axis=1)
            v = p[:, 0, None] * e1 + p[:, 1, None] * e2
            return cp2.exp(origin[None, :], v, 1.0)

        patch = HypersurfacePatch(cp2, chart, ((-0.5, 0.5), (-0.5, 0.5), (-0.5, 0.5)))
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            for call in (hypersurface.frames_at, shape_data):
                with pytest.raises(ImmersionError, match=f"^{message}$"):
                    call(patch, params)


# -- frames: unit normal against the frozen cofactor route ------------------------


def _assert_unit_normal_matches_cofactor_route(patch, params):
    frames = hypersurface.frames_at(patch, params)
    sp = patch.space
    xi, gram = hypersurface._unit_normal(sp, frames.z, frames.v, patch.orientation)
    xi_ref, gram_ref = oracles.cofactor_unit_normal(sp, frames.z, frames.v, patch.orientation)
    assert np.array_equal(xi, frames.xi)
    # the cofactor route leaves xi off the horizontal space by up to 6e-15
    # (<z, xi> on the cp2-torus and ch2-k0-g2a patches); the cross product
    # stays within 1e-15, and the two agree once that vertical part is removed
    assert np.abs(sp.herm(frames.z, xi)).max() <= 1e-15
    assert np.abs(xi - sp.project_horizontal(frames.z, xi_ref)).max() <= 4e-15
    assert np.all(gram_ref > hypersurface.IMMERSION_TOL)
    assert np.abs(gram / gram_ref - 1.0).max() <= 1e-13
    assert np.all(sp.g(xi, xi_ref) > 0.999)   # the same orientation


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_unit_normal_matches_cofactor_route_on_catalog(name):
    patch = get_entry(name).patch
    _assert_unit_normal_matches_cofactor_route(patch, patch.grid((6, 5, 5), margin=0.05))


@pytest.mark.parametrize("label", LABELS)
def test_unit_normal_matches_cofactor_route_on_cmc_patches(label, suite_ws):
    patch = suite_ws.cmc_patch(label).patch
    _assert_unit_normal_matches_cofactor_route(patch, patch.grid((6, 5, 5), margin=0.05))


# -- Hopf projection count and adapted frame -----------------------------------


def test_h_is_one_on_sphere(sphere_entry):
    sd = shape_data(sphere_entry.patch, np.array([[0.7, 0.7, 0.7]]))
    assert adapted_frames(sd).h[0] == 1


def test_h_is_two_with_a_eq_b_on_lohnherr(lohnherr_entry):
    patch = lohnherr_entry.patch
    p = patch.grid((3, 3, 3), margin=0.2)[13]
    af = adapted_frames(shape_data(patch, p[None]))
    assert af.h[0] == 2
    assert abs(af.a[0] - 1 / np.sqrt(2)) < 1e-6
    assert abs(af.b[0] - 1 / np.sqrt(2)) < 1e-6


def test_adapted_frame_identities(cmc_ehs):
    patch = cmc_ehs.patch
    af = adapted_frames(shape_data(patch, patch.grid((3, 2, 2), margin=0.1)))
    assert af.mask.all()
    assert np.all(af.a > 0) and np.all(af.b > 0)
    assert np.max(af.worst_residual) < 1e-6


def test_adapted_frame_rejects_hopf_input(sphere_entry):
    af = adapted_frames(shape_data(sphere_entry.patch, np.array([[0.7, 0.7, 0.7]])))
    assert not af.mask[0] and np.isnan(af.U[0]).all()
    with pytest.raises(FrameError, match="found h = 1"):
        hypersurface._require_h2(af.h)


def test_frame_derivative_data_rejects_hopf_input(sphere_entry):
    sd = shape_data(sphere_entry.patch, np.array([[0.7, 0.7, 0.7]]))
    with pytest.raises(FrameError, match="adapted frame needs h = 2, found h = 1"):
        frame_derivative_data(sphere_entry.patch, sd, [0])


# -- adapted_frames against the frozen per-point helpers ------------------------


_FRAME_SCALARS = ("a", "b", "alpha", "beta", "gamma")


def assert_matches_pointwise(sd, af):
    """adapted_frames agrees with the frozen per-point copies at every point:
    h exactly, U, V, A bit for bit, scalars to 1e-15, NaN frames where h != 2."""
    for n in range(len(sd.eigvals)):
        assert af.h[n] == oracles.pointwise_h_of(sd, n)
        assert abs(af.levi[n] - oracles.pointwise_levi_scalar(sd, n)) <= 1e-15
        assert abs(af.ruled[n] - oracles.pointwise_ruled_residual(sd, n)) <= 1e-15
        if af.h[n] != 2:
            assert not af.mask[n]
            assert np.isnan(af.U[n]).all() and np.isnan(af.gamma[n])
            assert np.isnan(af.worst_residual[n])
            with pytest.raises(FrameError, match=f"found h = {af.h[n]}"):
                oracles.pointwise_frame_of(sd, n)
            with pytest.raises(FrameError, match=f"found h = {af.h[n]}"):
                hypersurface._require_h2(af.h[[n]])
            continue
        old = oracles.pointwise_frame_of(sd, n)
        for key in ("U", "V", "A", "xi"):
            assert np.array_equal(getattr(af, key)[n], getattr(old, key)), key
        for key in _FRAME_SCALARS:
            assert abs(getattr(af, key)[n] - getattr(old, key)) <= 1e-15, key
        assert af.residuals.keys() == old.residuals.keys()
        for key in old.residuals:
            assert abs(af.residuals[key][n] - old.residuals[key]) <= 1e-15, key


# h on each catalog entry's 4x4x4 grid: the Hopf entries and the h = 2 ones
CATALOG_H = {"geodesic-sphere": 1, "horosphere": 1, "tube-rp2": 1, "tube-ch1": 1,
             "lohnherr": 2, "bisector": 2, "clifford-cone-cp2": 2, "clifford-cone-ch2": 2}


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_adapted_frames_match_pointwise_copies_on_catalog(name):
    patch = get_entry(name).patch
    sd = shape_data(patch, patch.grid((4, 4, 4), margin=0.05))
    af = adapted_frames(sd)
    assert set(af.h.tolist()) == {CATALOG_H[name]}
    assert_matches_pointwise(sd, af)


def _synthetic_shape_data(cases, seed=3):
    """One-point ShapeData per (descending eigenvalues, J xi coordinates) case.

    All points share z, xi and a randomly rotated tangent basis E; the
    eigenvectors carry the prescribed J xi coordinates.
    """
    sp = SpaceForm(4.0)
    rng = np.random.default_rng(seed)
    z = sp.random_point(rng)
    xi = sp.random_tangent(rng, z)
    xi = xi / sp.norm(xi)
    w = sp.random_tangent(rng, z)
    x = w - sp.herm(xi, w) * xi
    x = x / sp.norm(x)
    base = np.stack([1j * xi, x, 1j * x])                    # orthonormal tangents, J xi first
    rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    E = rot @ base
    vals, vecs, S = [], [], []
    for eig, c in cases:
        c = np.asarray(c, dtype=float) / np.linalg.norm(c)
        q, _ = np.linalg.qr(np.column_stack([c, rng.standard_normal((3, 2))]))
        P = (q * np.sign(q[:, 0] @ c)).T                      # orthogonal, first row c
        Q = rot @ P                                           # eigenvectors in the E basis
        vals.append(eig)
        vecs.append(P.T @ base)
        S.append(Q @ np.diag(eig) @ Q.T)
    n = len(cases)
    frames = PointFrames(params=np.zeros((n, 3)), z=np.tile(z, (n, 1)),
                         v=np.tile(E, (n, 1, 1)), xi=np.tile(xi, (n, 1)))
    return ShapeData(space=sp, frames=frames, E=np.tile(E, (n, 1, 1)), S=np.array(S),
                     eigvals=np.array(vals, dtype=float), eigvecs=np.array(vecs),
                     asym=np.zeros(n))


def test_adapted_frames_match_pointwise_copies_on_synthetic_spectra():
    near = 3e-4   # a few clustering thresholds (1e-4 times a spread of 0.7 to 1.3)
    cases = [
        # J xi on eigenvalues 0 and 1; eigenvalue 2 nearly crosses 1, so
        # cluster 0 is the better isolated: U is its projection, V the complement
        ((1.0, 0.3, 0.3 - near), (0.6, 0.8, 0.0)),
        # J xi on eigenvalues 1 and 2; eigenvalue 0 nearly crosses 1:
        # cluster 2 is the better isolated, V is its projection, U the complement
        ((0.3 + near, 0.3, -1.0), (0.0, 0.6, 0.8)),
        # eigenvalues 1 and 2 merged into one cluster that carries J xi
        ((1.0, 0.3, 0.3 - 1e-7), (0.6, 0.48, 0.64)),
        # h = 1 inside the batch: J xi is an eigenvector
        ((1.0, 0.3, -0.2), (1.0, 0.0, 0.0)),
        # fully merged spectrum: one cluster, h = 1
        ((0.5, 0.5, 0.5), (0.6, 0.48, 0.64)),
        # h = 3: J xi projects on three distinct eigenvalues
        ((1.0, 0.3, -0.2), (0.6, 0.48, 0.64)),
    ]
    sd = _synthetic_shape_data(cases)
    af = adapted_frames(sd)
    assert af.h.tolist() == [2, 2, 2, 1, 1, 3]
    assert af.labels.tolist() == [[0, 1, 2], [0, 1, 2], [0, 1, 1], [0, 1, 2],
                                  [0, 0, 0], [0, 1, 2]]
    assert_matches_pointwise(sd, af)
    # the isolation choice: J xi = a U + b V with U the projection on the upper
    # cluster, whichever of the two vectors is built as a complement
    for n in (0, 1):
        c = np.asarray(cases[n][1])
        upper = c[:2] if n == 0 else c[1:]
        assert abs(af.a[n] - upper[0]) < 1e-12 and abs(af.b[n] - upper[1]) < 1e-12
        assert af.worst_residual[n] < 1e-12
    # the result at a point does not depend on the rest of the batch
    shuffled = sd.take([5, 3, 0, 4, 1, 2])
    assert_matches_pointwise(shuffled, adapted_frames(shuffled))


# -- Levi form ------------------------------------------------------------------


def test_levi_form_frame_formula(cmc_ehs):
    patch = cmc_ehs.patch
    sd = shape_data(patch, patch.grid((3, 2, 2), margin=0.1))
    fr = adapted_frames(sd)
    laa = levi_form(sd, fr.A, fr.A)
    assert np.max(np.abs(laa - (fr.gamma + fr.b ** 2 * fr.alpha + fr.a ** 2 * fr.beta))) < 1e-6
    # at each point it reads only that point's data, bit for bit
    for n in (0, 4):
        one = sd.take([n])
        assert np.array_equal(levi_form(one, fr.A[[n]], fr.A[[n]]), laa[[n]])


def test_levi_form_symmetry_and_domain(cmc_ehs):
    patch = cmc_ehs.patch
    sd = shape_data(patch, patch.grid((3, 2, 2), margin=0.1)[[4]])
    fr = adapted_frames(sd)
    ja = 1j * fr.A
    assert abs(levi_form(sd, fr.A, ja) - levi_form(sd, ja, fr.A))[0] < 1e-8
    jxi = 1j * fr.xi
    with pytest.raises(GeometryError):
        levi_form(sd, jxi, fr.A)   # J xi is not in the complex distribution


def test_lohnherr_levi_flat(lohnherr_entry):
    patch = lohnherr_entry.patch
    sd = shape_data(patch, patch.grid((3, 2, 2), margin=0.15))
    fr = adapted_frames(sd)
    assert np.max(np.abs(levi_form(sd, fr.A, fr.A))) < 1e-4


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
    sd = shape_data(cmc_ehs.patch, p[None])
    derivs = frame_derivative_data(cmc_ehs.patch, sd, [0])
    strong = verify_connection_formulas(sd, derivs, "strong")
    assert strong["max_entry_residual"][0] < 1e-3
    assert strong["max_identity_residual"][0] < 1e-3
    generic = verify_connection_formulas(sd, derivs, "generic")
    if not generic["skipped_degenerate"][0]:
        assert generic["max_entry_residual"][0] < 1e-3
        assert generic["max_identity_residual"][0] < 1e-3


@pytest.mark.parametrize("label", ["cp2-torus", "ch2-g0"])
def test_connection_formulas_batch_matches_one_point_copy(label, suite_ws):
    """Over a batch of points, each table's residuals equal those of
    one-point batches bit for bit and the frozen one-point copy's to a few
    units in the last place: NumPy's array power may round x ** n
    differently from libm's pow, which the copy applies to Python floats."""
    patch = suite_ws.cmc_patch(label).patch
    grid = patch.grid((3, 2, 2), margin=0.2)[::4]
    sd = shape_data(patch, grid)
    derivs = frame_derivative_data(patch, sd, np.arange(len(grid)))
    for mode in ("strong", "generic"):
        rep = verify_connection_formulas(sd, derivs, mode)
        for n, p in enumerate(grid):
            one = verify_connection_formulas(sd.take([n]), frame_derivative_data(
                patch, sd, [n]), mode)
            for key in ("skipped_degenerate", "max_entry_residual", "max_identity_residual"):
                assert np.array_equal(one[key], rep[key][[n]], equal_nan=True), key
            entry, ident, skipped = oracles.pointwise_verify_connection_formulas(patch, p, mode)
            assert rep["skipped_degenerate"][n] == skipped
            if not skipped:
                assert rep["max_entry_residual"][n] == pytest.approx(entry, rel=1e-13, abs=0)
                assert rep["max_identity_residual"][n] == pytest.approx(ident, rel=1e-13, abs=0)
    with pytest.raises(GeometryError, match="every point of the shape data"):
        verify_connection_formulas(sd.take([1, 0, 2]), derivs, "strong")


def test_bracket_by_flows_matches_sequential_loops(cmc_ehs):
    p = np.array([0.04, 0.02, -0.05])
    got = bracket_by_flows(cmc_ehs.patch, p, "U", "V")
    assert np.array_equal(got, oracles.pointwise_bracket_by_flows(cmc_ehs.patch, p, "U", "V"))


@pytest.mark.parametrize("mode", ["auto", "Strong", ""])
def test_connection_formulas_reject_unknown_mode(mode, cmc_ehs):
    sd = shape_data(cmc_ehs.patch, np.array([[0.04, 0.02, -0.05]]))
    with pytest.raises(GeometryError, match="unknown connection table"):
        verify_connection_formulas(sd, None, mode)


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
    af, scalars, nabla = frame_derivative_data(cmc_ehs.patch, sd, [0, 7])
    for k, n in enumerate((0, 7)):
        fr_old, scalars_old, nabla_old, _ = scalar_frame_derivative_data(cmc_ehs.patch, sd, n)
        assert np.array_equal(af.A[k], fr_old.A)
        assert scalars.keys() == scalars_old.keys() and nabla.keys() == nabla_old.keys()
        for key in scalars:
            assert abs(scalars[key][k] - scalars_old[key]) < 1e-10
        for key in nabla:
            assert np.abs(nabla[key][k] - nabla_old[key]).max() < 1e-10


@pytest.mark.parametrize("name", ["bisector", "clifford-cone-ch2", "cmc"])
def test_batched_frame_derivative_data_equals_per_index_calls(name, cmc_ehs):
    patch = cmc_ehs.patch if name == "cmc" else get_entry(name).patch
    sd = shape_data(patch, patch.grid((3, 3, 3), margin=0.1))
    idx = np.flatnonzero(adapted_frames(sd).mask)[::4]
    assert len(idx) >= 5
    af, scalars, nabla = frame_derivative_data(patch, sd, idx)
    for k, n in enumerate(idx):
        one, scalars1, nabla1 = frame_derivative_data(patch, sd, [n])
        for attr in ("U", "V", "A", "xi") + _FRAME_SCALARS:
            assert np.array_equal(getattr(af, attr)[k], getattr(one, attr)[0])
        assert all(np.array_equal(scalars[key][k], scalars1[key][0]) for key in scalars)
        assert all(np.array_equal(nabla[key][k], nabla1[key][0]) for key in nabla)


def test_hopf_cmc_relation(sphere_entry):
    # r = pi/4 sphere in CP^2(4): alpha=0, beta=gamma=1 -> 0 - 4 + 4 = 0
    entry = get_entry("geodesic-sphere", r=np.pi / 4)
    assert hopf_cmc_relation_check(shape_data(entry.patch, [[0.7, 0.8, 0.6]]))[0] < 1e-6
    horo = get_entry("horosphere")
    assert hopf_cmc_relation_check(shape_data(horo.patch, [[0.1, -0.1, 0.2]]))[0] < 1e-6


def test_hopf_cmc_relation_rejects_non_hopf(lohnherr_entry):
    p = lohnherr_entry.patch.grid((3, 3, 3), margin=0.2)[13]
    with pytest.raises(GeometryError, match=r"requires Hopf points \(h = 2\)"):
        hopf_cmc_relation_check(shape_data(lohnherr_entry.patch, p[None]))


@pytest.mark.parametrize("name", ["geodesic-sphere", "horosphere", "tube-rp2", "tube-ch1"])
def test_hopf_cmc_relation_matches_one_point_copy(name):
    patch = get_entry(name).patch
    sd = shape_data(patch, patch.grid((3, 3, 3), margin=0.1))
    rel = hopf_cmc_relation_check(sd)
    assert rel.shape == (27,) and np.max(rel) < 1e-6
    for n in range(27):
        assert rel[n] == oracles.pointwise_hopf_cmc_relation(sd, n)


def test_shape_spectrum_structure(sphere_entry):
    sd = shape_data(sphere_entry.patch, np.array([[0.7, 0.8, 0.6]]))
    labels = adapted_frames(sd).labels[0]
    assert tuple(np.bincount(labels)) in ((2, 1), (1, 2))
    assert sd.eigvals.shape == (1, 3)
    xi = sd.frames.xi[0]
    sp = sphere_entry.space
    assert abs(sp.g(xi, xi) - 1.0) < 1e-9


# -- nested stencils: each distinct point evaluated once --------------------------

NESTED_PATCHES = CATALOG_NAMES + ("cmc",)


def _patch(name, cmc_ehs):
    return cmc_ehs.patch if name == "cmc" else get_entry(name).patch


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _signed_zero_probe(patch):
    """Interior grid points, the box centre, and centres whose in-box zero
    coordinates are set to -0.0 and +0.0, one axis at a time and all at once."""
    box = np.array(patch.box, dtype=float)
    mid = box.mean(axis=1)
    zero_ok = np.flatnonzero((box[:, 0] <= 0.0) & (box[:, 1] >= 0.0))
    rows = [mid]
    for zero in (-0.0, 0.0):
        every = mid.copy()
        every[zero_ok] = zero
        rows.append(every)
        for k in zero_ok:
            one = mid.copy()
            one[k] = zero
            rows.append(one)
    return np.vstack([patch.grid((2, 2, 2), margin=0.2)] + rows)


def test_nested_stencil_layout_matches_full_stencil():
    rng = np.random.default_rng(11)
    p = rng.uniform(-1.0, 1.0, (200, 3))
    p[rng.random(p.shape) < 0.3] = -0.0
    p[rng.random(p.shape) < 0.1] = 0.0
    assert _NESTED_INDEX.shape == (7, 7)
    assert sorted(set(_NESTED_INDEX.ravel().tolist())) == list(range(31))
    for h in (1e-4, 1.5e-4, 4e-4, 1e-3):
        off = _central_offsets(h)
        full = (p[:, None, None, :] + off[None, :, None, :]) + off[None, None, :, :]
        full[:, 0] = p[:, None, :] + off   # the base stencil is p + o_b
        assert _same_bits(_nested_stencil(p, h)[:, _NESTED_INDEX], full)


@pytest.mark.parametrize("name", NESTED_PATCHES)
def test_chart_rows_are_independent(name, cmc_ehs):
    patch = _patch(name, cmc_ehs)
    probe = _signed_zero_probe(patch)
    rows = np.vstack([probe, _nested_stencil(probe[-3:], patch.diff_step).reshape(-1, 3)])
    batch = patch.chart(rows)
    assert all(_same_bits(batch[i], patch.chart(rows[i:i + 1])[0]) for i in range(len(rows)))


@pytest.mark.parametrize("name", NESTED_PATCHES)
def test_shape_data_equals_two_call_route(name, cmc_ehs):
    patch = _patch(name, cmc_ehs)
    probe = _signed_zero_probe(patch)
    new, old = shape_data(patch, probe), two_call_shape_data(patch, probe)
    for attr in ("params", "z", "v", "xi"):
        assert _same_bits(getattr(new.frames, attr), getattr(old.frames, attr)), attr
    for attr in ("E", "S", "eigvals", "eigvecs", "asym"):
        assert _same_bits(getattr(new, attr), getattr(old, attr)), attr


@pytest.mark.parametrize("name", NESTED_PATCHES)
def test_gauss_codazzi_equals_49_point_route(name, cmc_ehs):
    patch = _patch(name, cmc_ehs)
    pert = np.zeros((3, 3))
    pert[0, 1] = pert[1, 0] = 0.05
    for p in _signed_zero_probe(patch)[[0, 8, -1]]:
        for shape_perturbation in (None, pert):
            rng_new, rng_old = np.random.default_rng(3), np.random.default_rng(3)
            new = verify_gauss_codazzi(patch, p, rng=rng_new, n_random=5,
                                       shape_perturbation=shape_perturbation)
            old = nested_49_verify_gauss_codazzi(patch, p, rng=rng_old, n_random=5,
                                                 shape_perturbation=shape_perturbation)
            assert new == old
            assert [np.signbit(x) for x in new["params"]] == [np.signbit(x) for x in p]


def test_nested_stencils_evaluate_each_distinct_point_once(monkeypatch, lohnherr_entry):
    base = lohnherr_entry.patch
    chart_rows, frame_points = [], []

    def chart(params):
        chart_rows.append(len(params))
        return base.chart(params)

    patch = HypersurfacePatch(base.space, chart, base.box, diff_step=base.diff_step,
                              orientation=base.orientation)
    frames_at = hypersurface.frames_at

    def counting_frames_at(*args, **kwargs):
        out = frames_at(*args, **kwargs)
        frame_points.append(len(out.params))
        return out

    monkeypatch.setattr(hypersurface, "frames_at", counting_frames_at)
    n = 5
    shape_data(patch, patch.grid((n, 1, 1), margin=0.2))
    assert chart_rows == [31 * n]            # one call; 49 n rows in two calls before
    assert frame_points == [n + 6 * n]       # the base points and their 6 n displaced ones
    chart_rows.clear()
    frame_points.clear()
    verify_gauss_codazzi(patch, patch.grid((2, 2, 2), margin=0.25)[3], n_random=2)
    assert sum(chart_rows) == 434            # 686 before
    assert frame_points == [31, 7 + 42]


# -- bad input ---------------------------------------------------------------------


def test_classify_rejects_empty_grid():
    with pytest.raises(GeometryError, match="empty classification grid"):
        classify(get_entry("horosphere").patch, np.zeros((0, 3)))


def test_gauss_codazzi_rejects_point_outside_box():
    with pytest.raises(GeometryError, match="leaves the parameter box"):
        verify_gauss_codazzi(get_entry("horosphere").patch, [5.0, 0.0, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_parameters_raise_one_geometry_error(bad):
    patch = get_entry("horosphere").patch
    params = np.array([[0.1, 0.2, 0.0], [0.0, bad, 0.1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: hypersurface.frames_at(patch, params),
                     lambda: shape_data(patch, params),
                     lambda: classify(patch, params),
                     lambda: verify_gauss_codazzi(patch, params[1])):
            with pytest.raises(GeometryError, match="^parameters must be finite numbers$"):
                call()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_contains_reads_non_finite_parameters_as_outside(bad, axis):
    patch = get_entry("horosphere").patch
    inside = patch.grid((2, 2, 2), margin=0.25)
    assert patch.contains(inside)
    params = inside.copy()
    params[3, axis] = bad
    assert patch.contains(params) is False
    assert patch.contains(np.roll([bad, 0.0, 0.0], axis)) is False
