import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopflab.actions import (
    EIG_DEGENERATE_TOL,
    LABELS,
    InconclusiveDegeneracyError,
    SingularOrbitError,
    _eig2,
    hopf_directions,
    killing_field,
    load_action,
    mean_curvature_field,
    orbit_geometry,
    orbit_shape_operator,
    phi_map,
    phi_profile,
    rotate90,
)
from hopflab.ambient import AmbientPoint, GeometryError
import oracles


@pytest.mark.parametrize("label", LABELS)
def test_generators_are_infinitesimal_isometries(label):
    spec = load_action(label)
    h = spec.hermitian_matrix
    for g in spec.generators:
        assert np.abs(g.conj().T @ h + h @ g).max() < 1e-14
    # the two generators commute for every shipped action
    g1, g2 = spec.generators
    assert np.abs(g1 @ g2 - g2 @ g1).max() < 1e-14


@pytest.mark.parametrize("label", LABELS)
def test_group_elements_preserve_metric(label, rng):
    spec = load_action(label)
    sp = spec.space
    for _ in range(5):
        m = spec.group_element(rng.uniform(-1.5, 1.5, 2))
        z = sp.random_point(rng)
        v = sp.random_tangent(rng, z)
        w = sp.random_tangent(rng, z)
        assert abs(sp.g(m @ v, m @ w) - sp.g(v, w)) < 1e-10


def test_killing_fields_vanish_at_torus_fixed_points():
    cp = load_action("cp2-torus")
    for axis in range(3):
        fp = cp.space.normalize_rep(np.eye(3, dtype=complex)[axis])
        for idx in range(2):
            assert cp.space.norm(cp.killing_vec(idx, fp)) < 1e-13
    ch = load_action("ch2-torus")
    fp = ch.space.normalize_rep(np.eye(3, dtype=complex)[0])
    for idx in range(2):
        assert ch.space.norm(ch.killing_vec(idx, fp)) < 1e-13


@pytest.mark.parametrize("label", LABELS)
def test_killing_field_matches_flow_velocity(label):
    spec = load_action(label)
    sp = spec.space
    z0 = spec.section.point(np.array([0.18, -0.11]))
    p0 = AmbientPoint(sp, z0)
    h = 1e-6
    for idx in range(2):
        s = np.eye(2)[idx]
        zp, zm = spec.translate(s * h, z0), spec.translate(-s * h, z0)
        up, um = sp.phase_align(z0, zp), sp.phase_align(z0, zm)
        vel = sp.project_horizontal(z0, (up * zp - um * zm) / (2 * h))
        assert sp.norm(vel - killing_field(spec, idx, p0).vec) < 1e-6


def test_killing_field_index_error():
    spec = load_action("cp2-torus")
    p = spec.section.ambient_point([0.1, 0.1])
    with pytest.raises(IndexError):
        killing_field(spec, 5, p)


def test_orbit_shape_operator_symmetric_and_normalized(rng):
    for label in LABELS:
        spec = load_action(label)
        sp = spec.space
        z = spec.section.point(np.array([0.21, 0.13]))
        f1, _ = spec.section.tangent_frame(z)
        od = orbit_shape_operator(spec, AmbientPoint(sp, z), f1)
        assert abs(od.shape[0, 1] - od.shape[1, 0]) < 1e-10
        a, b = od.hopf_components
        assert abs(a * a + b * b - 1.0) < 1e-10
        assert od.residuals["jxi_tangency"] < 1e-10
        assert od.residuals["mean_curvature_normality"] < 1e-10


def test_orbit_shape_operator_rejects_bad_normal():
    spec = load_action("cp2-torus")
    sp = spec.space
    z = spec.section.point(np.array([0.2, 0.1]))
    p = AmbientPoint(sp, z)
    f1, _ = spec.section.tangent_frame(z)
    with pytest.raises(GeometryError):
        orbit_shape_operator(spec, p, 2.0 * f1)           # not unit
    k = spec.killing_vec(0, z)
    with pytest.raises(GeometryError):
        orbit_shape_operator(spec, p, k / sp.norm(k))      # tangent, not normal


@pytest.mark.parametrize("label", LABELS)
def test_batched_orbit_geometry_matches_scalar_copy(label):
    spec = load_action(label)
    qs = np.array([[0.12, 0.07], [-0.2, 0.15], [0.25, -0.1], [0.0, 0.3]])
    zs = spec.section.point(qs)
    batch = orbit_geometry(spec, zs)
    assert batch.second_fundamental.shape == (4, 2, 2, 3) and batch.gram_det.shape == (4,)
    for k, z in enumerate(zs):
        basis, ii, mean, det = oracles.scalar_orbit_geometry(spec, z)
        one = orbit_geometry(spec, z)
        assert one.second_fundamental.shape == (2, 2, 3) and isinstance(one.gram_det, float)
        for geo in (one, batch):
            idx = () if geo is one else (k,)
            assert np.abs(geo.basis[idx] - basis).max() < 1e-12
            assert np.abs(geo.second_fundamental[idx] - ii).max() < 1e-12
            assert np.abs(geo.mean_curvature[idx] - mean).max() < 1e-12
            assert abs(np.asarray(geo.gram_det)[idx] - det) < 1e-12
        _, f2 = spec.section.tangent_frame(z)
        ref = np.real(np.einsum("abk,k->ab", np.conj(ii) * spec.space._sig, f2))
        assert np.abs(one.shape_matrix(f2) - ref).max() < 1e-12
        assert np.abs(batch.shape_matrix(np.broadcast_to(f2, (4, 3)))[k] - ref).max() < 1e-12


def test_batched_orbit_geometry_rejects_any_singular_point():
    spec = load_action("cp2-torus")
    fp = spec.space.normalize_rep(np.eye(3, dtype=complex)[0])
    zs = np.stack([spec.section.point(np.array([0.12, 0.07])), fp])
    with pytest.raises(SingularOrbitError):
        orbit_geometry(spec, zs)
    with np.errstate(all="ignore"):   # the singular point's data is meaningless
        dets = orbit_geometry(spec, zs, require_regular=False).gram_det
    assert dets[0] > 1e-10 >= dets[1]


def _check_eig2(s):
    (lam1, lam2), vecs = _eig2(s)
    ref_vals, ref_vecs = np.linalg.eigh(s, UPLO="U")
    scale = np.abs(s).max(axis=(-2, -1))
    assert np.all(np.abs(lam1 - ref_vals[..., 1]) <= 1e-14 * scale)
    assert np.all(np.abs(lam2 - ref_vals[..., 0]) <= 1e-14 * scale)
    # orthonormal columns, the second the +90 degree rotation of the first
    assert np.abs(np.einsum("...ki,...kj->...ij", vecs, vecs) - np.eye(2)).max() < 1e-14
    assert np.array_equal(vecs[..., 0, 1], -vecs[..., 1, 0])
    assert np.array_equal(vecs[..., 1, 1], vecs[..., 0, 0])
    # each column is an eigenvector: compare with eigh up to sign
    for col, ref_col in ((0, 1), (1, 0)):
        overlap = np.abs(np.sum(vecs[..., :, col] * ref_vecs[..., :, ref_col], axis=-1))
        assert np.abs(overlap - 1.0).max() < 1e-12
    return (lam1, lam2), vecs


def test_eig2_matches_eigh_on_random_batches():
    rng = np.random.default_rng(5)
    s = rng.standard_normal((4000, 2, 2))
    s = 0.5 * (s + np.swapaxes(s, -1, -2))
    d = 0.5 * (s[:, 0, 0] - s[:, 1, 1])
    s01 = s[:, 0, 1]
    # every sign of d against both orderings of |s01| and |d| is sampled
    for big_off in (True, False):
        for neg in (True, False):
            assert np.any(((np.abs(s01) > np.abs(d)) == big_off) & ((d < 0) == neg))
    _check_eig2(s)


def test_eig2_strongly_anisotropic_and_diagonal():
    # |s01| << |d| for either sign of d, down to exactly diagonal
    for s01 in (1e-3, 1e-9, 0.0):
        for s00, s11 in ((-478.0, -29.0), (-29.0, -478.0), (1.0, 3.0), (3.0, 1.0)):
            s = np.array([[s00, s01], [s01, s11]])
            (lam1, lam2), vecs = _check_eig2(s)
            assert vecs.shape == (2, 2) and np.ndim(lam1) == 0


def test_eig2_degenerate_spectrum_gives_identity():
    s = np.array([[[2.0, 0.0], [0.0, 2.0]],
                  [[1.5, 0.25 * EIG_DEGENERATE_TOL], [0.25 * EIG_DEGENERATE_TOL, 1.5]],
                  [[-3.0, 0.0], [0.0, -3.0 + EIG_DEGENERATE_TOL]]])
    (lam1, lam2), vecs = _eig2(s)
    assert np.array_equal(vecs, np.broadcast_to(np.eye(2), (3, 2, 2)))
    assert np.allclose(lam1, [2.0, 1.5, -3.0 + 0.5 * EIG_DEGENERATE_TOL], rtol=0, atol=1e-14)
    assert np.all(lam1 >= lam2)


def test_singular_point_rejected():
    spec = load_action("cp2-torus")
    fp = spec.space.normalize_rep(np.eye(3, dtype=complex)[0])
    with pytest.raises(SingularOrbitError):
        orbit_geometry(spec, fp)


def test_clifford_orbit_is_minimal():
    # the center of the cp2-torus section chart is the minimal Clifford torus
    spec = load_action("cp2-torus")
    h = mean_curvature_field(spec, [0.0, 0.0])
    assert spec.space.norm(h.vec) < 1e-10


def test_mean_curvature_field_smooth_on_grid():
    spec = load_action("ch2-g0")
    sp = spec.space
    uu = np.linspace(-0.3, 0.3, 10)
    vals = np.array([[sp.norm(mean_curvature_field(spec, [u, v]).vec)
                      for v in uu] for u in uu])
    # no jumps beyond step-consistent bounds on a smooth field
    assert np.abs(np.diff(vals, axis=0)).max() < 1.0
    assert np.abs(np.diff(vals, axis=1)).max() < 1.0


@pytest.mark.parametrize("label", LABELS)
def test_phi_odd_and_not_identically_zero(label):
    spec = load_action(label)
    z = spec.section.point(np.array([0.17, 0.09]))
    thetas = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    vals = phi_profile(spec, z, thetas)
    assert np.abs(vals).max() > 1e-6
    assert np.abs(vals + phi_profile(spec, z, thetas + np.pi)).max() < 1e-12


@given(theta=st.floats(0, 2 * np.pi))
@settings(max_examples=20, deadline=None)
def test_phi_map_matches_profile(theta):
    spec = load_action("cp2-torus")
    z = spec.section.point(np.array([0.15, 0.05]))
    f1, f2 = spec.section.tangent_frame(z)
    w = np.cos(theta) * f1 + np.sin(theta) * f2
    assert abs(phi_map(spec, z, w) - phi_profile(spec, z, [theta])[0]) < 1e-12


@pytest.mark.parametrize("label", LABELS)
def test_hopf_directions_postconditions(label):
    spec = load_action(label)
    p = spec.section.ambient_point([0.12, 0.07])
    zeros_360 = hopf_directions(spec, p, n_samples=360, tol=1e-12)
    zeros_720 = hopf_directions(spec, p, n_samples=720, tol=1e-12)
    assert len(zeros_720) % 2 == 0 and len(zeros_720) >= 2
    assert len(zeros_360) == len(zeros_720)
    for d in zeros_720:
        assert d["phi"] < 1e-10
        # each zero produces a Hopf direction: phi vanishes there
        assert abs(phi_map(spec, p.rep, d["direction"])) < 1e-9


def test_hopf_directions_requires_samples():
    spec = load_action("cp2-torus")
    p = spec.section.ambient_point([0.12, 0.07])
    with pytest.raises(GeometryError):
        hopf_directions(spec, p, n_samples=30)


def test_rotate90_is_orientation_consistent():
    spec = load_action("ch2-g0")
    sp = spec.space
    z = spec.section.point(np.array([0.1, -0.2]))
    f1, f2 = spec.section.tangent_frame(z)
    assert sp.norm(rotate90(spec, z, f1) - f2) < 1e-12
    assert sp.norm(rotate90(spec, z, f2) + f1) < 1e-12


@pytest.mark.parametrize("label", LABELS)
def test_orbit_curvatures_equivariant(label, rng):
    spec = load_action(label)
    sp = spec.space
    z = spec.section.point(np.array([0.2, 0.12]))
    f1, _ = spec.section.tangent_frame(z)
    base = orbit_shape_operator(spec, AmbientPoint(sp, z), f1)
    for _ in range(5):
        m = spec.group_element(rng.uniform(-1, 1, 2))
        zt = sp.normalize_rep(m @ z)
        od = orbit_shape_operator(spec, AmbientPoint(sp, zt),
                                  sp.project_horizontal(zt, m @ f1))
        assert np.allclose(od.orbit_principal_curvatures,
                           base.orbit_principal_curvatures, atol=1e-8)


def test_load_action_validates_sign():
    with pytest.raises(GeometryError):
        load_action("cp2-torus", c=-4.0)
    with pytest.raises(KeyError):
        load_action("nonsense")
