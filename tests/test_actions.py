import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopflab.actions import (
    EIG_DEGENERATE_TOL,
    LABELS,
    REGULARITY_TOL,
    InconclusiveDegeneracyError,
    PolarActionSpec,
    SingularOrbitError,
    _eig2,
    _killing_gram,
    _orbit_body,
    _orbit_invariants,
    hopf_directions,
    load_action,
    mean_curvature_field,
    orbit_geometry,
    phi_coefficients,
    phi_profile,
    rotate90,
)
from hopflab import actions
from hopflab.ambient import GeometryError, SectionChart
from hopflab.suites import Workspace, launch_angle
import oracles


@pytest.mark.parametrize("label", LABELS)
def test_generators_are_infinitesimal_isometries(label):
    spec = load_action(label)
    h = np.diag(spec.space.hermitian_signature)
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
    h = 1e-6
    for idx in range(2):
        s = np.eye(2)[idx]
        zp, zm = spec.translate(s * h, z0), spec.translate(-s * h, z0)
        up, um = sp.phase_align(z0, zp), sp.phase_align(z0, zm)
        vel = sp.project_horizontal(z0, (up * zp - um * zm) / (2 * h))
        assert sp.norm(vel - spec.killing_vec(idx, z0)) < 1e-6


@pytest.mark.parametrize("label", LABELS)
def test_section_II_residual_batch_equals_pointwise_copy(label):
    sec = load_action(label).section
    rr = 0.45 if sec.space.c > 0 else 0.6
    pts = np.random.default_rng(11).uniform(-rr, rr, size=(4, 5, 2))
    batch = sec.second_fundamental_form_residual(pts)
    assert batch.shape == (4, 5)
    ref = [[oracles.pointwise_section_II_residual(sec, q) for q in row] for row in pts]
    assert np.array_equal(batch, ref)
    assert batch.max() < 1e-6


def test_killing_field_index_error():
    spec = load_action("cp2-torus")
    z = spec.section.point(np.array([0.1, 0.1]))
    with pytest.raises(IndexError):
        spec.killing_vec(5, z)


def test_orbit_shape_operator_symmetric_and_normalized():
    for label in LABELS:
        spec = load_action(label)
        sp = spec.space
        z = spec.section.point(np.array([0.21, 0.13]))
        f1, _ = spec.section.tangent_frame(z)
        geo = orbit_geometry(spec, z)
        s = geo.shape_matrix(f1)
        assert abs(s[0, 1] - s[1, 0]) < 1e-10
        # J xi lies in the orbit and the mean curvature vector is normal to it
        jxi = 1j * f1
        assert sp.norm(jxi - sp.g(jxi, geo.basis) @ geo.basis) < 1e-10
        assert np.abs(sp.g(geo.mean_curvature, geo.basis)).max() < 1e-10
        # the batched invariants on the real route: alpha >= beta are the
        # eigenvalues of S_xi and (a, b) is a unit vector
        x, v = spec.frame_coords(z)[:, None], spec.frame_coords(f1)[:, None]
        alpha, beta, a, b, mean, det = _orbit_invariants(spec, x, v)
        assert np.abs(np.array([beta[0], alpha[0]])
                      - np.linalg.eigvalsh(0.5 * (s + s.T))).max() < 1e-12
        assert abs(a[0] ** 2 + b[0] ** 2 - 1.0) < 1e-10
        assert np.abs(spec.phases * mean[:, 0] - geo.mean_curvature).max() < 1e-12
        assert det[0] == geo.gram_det


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
    assert h.shape == (3,)
    assert spec.space.norm(h) < 1e-10


def test_mean_curvature_field_smooth_on_grid():
    spec = load_action("ch2-g0")
    sp = spec.space
    uu = np.linspace(-0.3, 0.3, 10)
    vals = np.array([[sp.norm(mean_curvature_field(spec, [u, v]))
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


def phi_from_orbit_geometry(spec, z, w):
    """Phi(w) = <S_xi J xi, J w> for a unit section-tangent w at z, with xi
    the +90 degree rotation of w, from the complex route of the orbit algebra."""
    sp = spec.space
    geo = orbit_geometry(spec, z)
    xi = rotate90(spec, z, w)
    return float(sp.g(1j * w, geo.basis) @ geo.shape_matrix(xi) @ sp.g(1j * xi, geo.basis))


@given(theta=st.floats(0, 2 * np.pi))
@settings(max_examples=20, deadline=None)
def test_phi_map_matches_profile(theta):
    spec = load_action("cp2-torus")
    z = spec.section.point(np.array([0.15, 0.05]))
    f1, f2 = spec.section.tangent_frame(z)
    w = np.cos(theta) * f1 + np.sin(theta) * f2
    assert abs(phi_from_orbit_geometry(spec, z, w) - phi_profile(spec, z, [theta])[0]) < 1e-12


# multiplicities of the zero lines of Phi at every regular section point
MULTIPLICITY_PATTERNS = {"cp2-torus": [1, 1, 1], "ch2-torus": [1, 1, 1], "ch2-g0": [1],
                         "ch2-k0-g2a": [1, 2], "ch2-line-g2a": [3]}
SECTION_POINTS = [(0.12, 0.07), (-0.2, 0.1), (0.25, -0.15), (0.0, 0.3), (-0.1, -0.25),
                  (0.3, 0.2)]


def line_pattern(zeros):
    """Sorted multiplicities of the zero lines: theta and theta + pi count once."""
    return sorted(d["multiplicity"] for d in zeros)[::2]


@pytest.mark.parametrize("label", LABELS)
def test_hopf_directions_postconditions(label):
    spec = load_action(label)
    z = spec.section.point([0.12, 0.07])
    zeros = hopf_directions(spec, z)
    thetas = np.array([d["theta"] for d in zeros])
    assert np.all(np.diff(thetas) > 0) and 0.0 <= thetas[0] and thetas[-1] < 2 * np.pi
    # the zero set is symmetric under theta -> theta + pi, multiplicities included
    half = len(zeros) // 2
    assert np.allclose(thetas[half:], thetas[:half] + np.pi, rtol=0, atol=1e-14)
    assert [d["multiplicity"] for d in zeros[half:]] == [d["multiplicity"] for d in zeros[:half]]
    assert line_pattern(zeros) == MULTIPLICITY_PATTERNS[label]
    for d in zeros:
        assert d["phi"] < 1e-12
        # each zero produces a Hopf direction: phi vanishes there
        assert abs(phi_from_orbit_geometry(spec, z, d["direction"])) < 1e-9


@pytest.mark.parametrize("label", LABELS)
def test_hopf_directions_match_sampled_oracle(label):
    spec = load_action(label)
    for q in SECTION_POINTS:
        z = spec.section.point(q)
        zeros = hopf_directions(spec, z)
        assert line_pattern(zeros) == MULTIPLICITY_PATTERNS[label], q
        roots = np.array([d["theta"] for d in zeros])
        scale = np.max(np.abs(phi_coefficients(spec, z)))
        assert np.max(np.abs(phi_profile(spec, z, roots))) < 1e-12 * scale
        # the scan sees the zeros of odd multiplicity; it places a triple zero
        # only to about the cube root of its tolerance, so compare simple ones
        sampled = np.array([d["theta"] for d in oracles.sampled_hopf_directions(
            spec, z, tol=1e-12)])
        simple = roots[[d["multiplicity"] == 1 for d in zeros]]
        triple = roots[[d["multiplicity"] == 3 for d in zeros]]
        far = np.all(np.abs(sampled[:, None] - triple[None, :]) > 1e-3, axis=1)
        assert len(simple) == np.count_nonzero(far), q
        assert np.max(np.abs(sampled[far] - simple), initial=0.0) < 1e-9, q


def test_phi_coefficients_reproduce_profile():
    spec = load_action("ch2-k0-g2a")
    z = spec.section.point([-0.2, 0.1])
    a, b, c, d = phi_coefficients(spec, z)
    th = np.linspace(0.0, 2 * np.pi, 97)
    ct, st = np.cos(th), np.sin(th)
    cubic = a * ct ** 3 + b * ct ** 2 * st + c * ct * st ** 2 + d * st ** 3
    assert np.max(np.abs(cubic - phi_profile(spec, z, th))) < 1e-14 * np.max(np.abs([a, b, c, d]))


@pytest.mark.parametrize("label", LABELS)
def test_hopf_directions_scale_invariant(label):
    # the homothety c -> c / lam^2, q -> lam q scales Phi by 1/lam and keeps
    # its zero set; the degeneracy floor scales with it
    spec = load_action(label)
    for lam in (10.0, 1e6):
        scaled = load_action(label, c=spec.space.c / lam ** 2)
        for q in SECTION_POINTS[:3]:
            zeros = hopf_directions(spec, spec.section.point(q))
            zs = hopf_directions(scaled, scaled.section.point(lam * np.array(q)))
            assert [d["multiplicity"] for d in zs] == [d["multiplicity"] for d in zeros]
            assert np.max(np.abs([a["theta"] - b["theta"] for a, b in zip(zs, zeros)])) < 1e-13


def test_hopf_directions_degenerate_profile_raises(monkeypatch):
    spec = load_action("cp2-torus")
    z = spec.section.point([0.12, 0.07])
    monkeypatch.setattr(actions, "phi_profile",
                        lambda spec, z, thetas: 1e-9 * phi_profile(spec, z, thetas))
    with pytest.raises(InconclusiveDegeneracyError):
        hopf_directions(spec, z)


def test_launch_angle_is_tie_free():
    ws = Workspace(7)
    for label in LABELS:
        angles = np.array([d["theta"] for d in ws.launch_data(label)[2]])
        theta0 = launch_angle(angles)
        assert 0.0 <= theta0 < np.pi
        for shift in (1e-12, -1e-12):
            # all zeros move, or the two halves theta and theta + pi move
            # apart, as when they come from separate computations
            for moved in (angles + shift, np.where(angles < np.pi, shift, -shift) + angles):
                assert launch_angle(moved) == theta0, (label, shift)


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
    # z and five translates, with the translated normal, in one batch
    ms = spec.group_element(rng.uniform(-1, 1, (5, 2)))
    zs = np.concatenate([z[None], sp.normalize_rep(ms @ z)])
    xis = np.concatenate([f1[None], sp.project_horizontal(zs[1:], ms @ f1)])
    s = orbit_geometry(spec, zs).shape_matrix(xis)
    curvatures = np.linalg.eigvalsh(0.5 * (s + np.swapaxes(s, -1, -2)))
    assert np.allclose(curvatures, curvatures[0], atol=1e-8)


def test_load_action_validates_sign():
    with pytest.raises(GeometryError):
        load_action("cp2-torus", c=-4.0)
    with pytest.raises(KeyError):
        load_action("nonsense")


# -- the section's real frame D.R^3 --------------------------------------------------


@pytest.mark.parametrize("label", LABELS)
def test_section_real_frame(label):
    spec = load_action(label)
    d, q = spec.phases, spec.frame_generators
    assert np.all((d == 1) | (d == 1j))
    assert q.dtype == float and q.shape == (2, 3, 3)
    # G_j = i D Q_j conj(D) holds exactly, and the section basis lies in D.R^3
    assert np.array_equal(1j * d[:, None] * q * np.conj(d), spec.generators)
    sec = spec.section
    basis = np.stack([sec.origin, sec.e1, sec.e2])
    assert np.array_equal(d * spec.frame_coords(basis), basis)


def test_section_real_frame_negative_controls():
    spec = load_action("cp2-torus")
    sec = spec.section
    # a generator table with a real part no longer maps D.R^3 into i D.R^3
    with pytest.raises(GeometryError, match="do not map the section's real frame") as err:
        PolarActionSpec(spec.label, spec.space, spec.generators + 0.1 * np.eye(3), sec)
    assert "\n" not in str(err.value)
    # the same section turned by a phase is totally real but lies in no D.R^3
    u = np.exp(0.3j)
    turned = SectionChart(spec.space, u * sec.origin, u * sec.e1, u * sec.e2)
    with pytest.raises(GeometryError, match="lies in no real frame") as err:
        PolarActionSpec(spec.label, spec.space, spec.generators, turned)
    assert "\n" not in str(err.value)
    with pytest.raises(GeometryError, match="off the section's real frame"):
        spec.frame_coords(u * sec.origin)


# finite floats, with both signed zeros drawn often
FRAME_FLOATS = st.one_of(st.sampled_from([0.0, -0.0]),
                         st.floats(allow_nan=False, allow_infinity=False))
FRAME_SPECS = {label: load_action(label) for label in LABELS}


@settings(max_examples=200, deadline=None)
@given(label=st.sampled_from(LABELS), data=st.data(),
       rows=st.lists(st.lists(FRAME_FLOATS, min_size=3, max_size=3), min_size=1, max_size=4))
def test_frame_conversions_are_exact_inverses(label, data, rows):
    spec = FRAME_SPECS[label]
    x = np.array(rows)
    on_i = spec.phases == 1j
    # D x built entry by entry: complex() keeps the sign of each part
    z = np.array([[complex(0.0, v) if i else complex(v, 0.0) for v, i in zip(row, on_i)]
                  for row in rows])
    assert spec.from_frame(x).tobytes() == z.tobytes()
    assert spec.frame_coords(z).tobytes() == x.tobytes()
    assert spec.frame_coords(spec.from_frame(x)).tobytes() == x.tobytes()
    assert spec.from_frame(spec.frame_coords(z)).tobytes() == z.tobytes()
    # a part off the frame above the round-off bound raises; a NaN there
    # makes the coordinate NaN, and leaves the others
    row, col = data.draw(st.integers(0, len(x) - 1)), data.draw(st.integers(0, 2))
    bad = z.copy()
    bad[row, col] = complex(np.nan, x[row, col]) if on_i[col] else complex(x[row, col], np.nan)
    nan_at = np.zeros(x.shape, dtype=bool)
    nan_at[row, col] = True
    assert np.array_equal(np.isnan(spec.frame_coords(bad)), nan_at)
    assert spec.frame_coords(bad)[~nan_at].tobytes() == x[~nan_at].tobytes()
    off = 2 * actions.FRAME_TOL * max(1.0, np.abs(x).max())
    bad[row, col] = complex(off, x[row, col]) if on_i[col] else complex(x[row, col], off)
    with pytest.raises(GeometryError, match="off the section's real frame"):
        spec.frame_coords(bad)


@pytest.mark.parametrize("label", LABELS)
def test_orbit_body_matches_scalar_copy_on_and_off_section(label, rng):
    spec = load_action(label)
    d = spec.phases
    zs = spec.section.point(rng.uniform(-0.25, 0.25, (6, 2)))
    # off the section: group translates, with a phase that takes them out of D.R^3
    off = spec.translate(rng.uniform(-0.5, 0.5, (6, 2)), zs) * np.exp(2j * np.pi * rng.random((6, 1)))
    with pytest.raises(GeometryError):
        spec.frame_coords(off)
    k, b, ii, mean, det = _orbit_body(spec, spec.frame_coords(zs).T)
    # the real route stands for K = i D k, X = i D b, II = D ii, H = D mean
    real = {"killing": (1j * d[:, None, None] * k).transpose(2, 1, 0),
            "basis": (1j * d[:, None, None] * b).transpose(2, 1, 0),
            "second_fundamental": (d[:, None, None, None] * ii).transpose(3, 1, 2, 0),
            "mean_curvature": (d[:, None] * mean).T, "gram_det": det}
    on = orbit_geometry(spec, zs)
    for name, val in real.items():
        # the complex route gives the same bits on the section
        assert np.array_equal(getattr(on, name), val), name
    for geo, pts in ((on, zs), (orbit_geometry(spec, off), off)):
        for n, z in enumerate(pts):
            basis, ii_ref, mean_ref, det_ref = oracles.scalar_orbit_geometry(spec, z)
            assert np.abs(geo.killing[n] - spec.killing_basis(z)).max() < 1e-12
            assert np.abs(geo.basis[n] - basis).max() < 1e-12
            assert np.abs(geo.second_fundamental[n] - ii_ref).max() < 1e-12
            assert np.abs(geo.mean_curvature[n] - mean_ref).max() < 1e-12
            assert abs(geo.gram_det[n] - det_ref) < 1e-12


@pytest.mark.parametrize("label", LABELS)
def test_killing_gram_det_is_the_orbit_body_det(label, rng):
    spec = load_action(label)
    xs = spec.frame_coords(spec.section.point(rng.uniform(-0.25, 0.25, (6, 2))))
    # frame point (1, 0, 0) is a zero of a Killing field, so on a singular
    # orbit, of every action but ch2-line-g2a, whose orbits through the
    # section are all principal; the NaN row stands for a dying lane
    xs = np.concatenate([xs, [[1.0, 0.0, 0.0], [np.nan, 0.1, 0.2]]])
    off = spec.translate(rng.uniform(-0.5, 0.5, (8, 2)), spec.phases * xs) \
        * np.exp(2j * np.pi * rng.random((8, 1)))
    for z in (xs.T, off.T):
        with np.errstate(all="ignore"):
            det = _killing_gram(spec, z)[-1]
            ref = _orbit_body(spec, z, require_regular=False)[4]
        assert np.array_equal(det, ref, equal_nan=True)
        assert np.array_equal(np.isnan(det), np.arange(8) == 7)
        assert np.all(det[:6] > REGULARITY_TOL)
        assert (det[6] <= REGULARITY_TOL) == (label != "ch2-line-g2a")
    assert np.array_equal(spec.gram_det(off), det, equal_nan=True)
