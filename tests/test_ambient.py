import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopflab.ambient import GeometryError, SectionChart, SpaceForm, cross3
from oracles import geodesic_rk4, scalar_parallel_transport

BOTH = [4.0, -4.0]


def point_and_tangents(sp, rng, n=2):
    z = sp.random_point(rng)
    return z, [sp.random_tangent(rng, z) for _ in range(n)]


def covariant_derivative(sp, curve, fld, t0, step=1e-5):
    """Central covariant difference of the field fld(t) along curve(t) at t0."""
    return sp.covariant_difference(curve(t0), fld(t0), curve(t0 + step), fld(t0 + step),
                                   curve(t0 - step), fld(t0 - step), step)


@pytest.mark.parametrize("c", BOTH)
def test_metric_symmetric_and_zero(c, rng):
    sp = SpaceForm(c)
    p, (v, w) = point_and_tangents(sp, rng)
    assert abs(sp.g(v, w) - sp.g(w, v)) < 1e-12
    zero = np.zeros(3, dtype=complex)
    assert sp.g(zero, zero) == 0.0
    assert abs(sp.g(v, 1j * v)) < 1e-12


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_complex_structure_properties(seed):
    rng = np.random.default_rng(seed)
    sp = SpaceForm(4.0 if seed % 2 else -4.0)
    p, (v, w) = point_and_tangents(sp, rng)
    jv = 1j * v
    assert np.allclose(1j * jv, -v)
    assert abs(sp.g(jv, 1j * w) - sp.g(v, w)) < 1e-12


@pytest.mark.parametrize("c", BOTH)
def test_holomorphic_and_totally_real_sectional_curvature(c, rng):
    sp = SpaceForm(c)
    for _ in range(10):
        p, (x, y) = point_and_tangents(sp, rng)
        jx = 1j * x
        assert abs(sp.g(sp.curvature(x, jx, jx), x) - c) < 1e-10
        # orthonormalize y against x, Jx: totally real plane, curvature c/4
        yv = y - sp.g(y, x) * x - sp.g(y, jx) * jx
        yt = yv / sp.norm(yv)
        assert abs(sp.g(sp.curvature(x, yt, yt), x) - c / 4) < 1e-10


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_curvature_symmetries(seed):
    rng = np.random.default_rng(seed)
    sp = SpaceForm(4.0 if seed % 2 else -4.0)
    p, (x, y, z, w) = point_and_tangents(sp, rng, 4)
    r_xy_z = sp.curvature(x, y, z)
    assert np.max(np.abs(r_xy_z + sp.curvature(y, x, z))) < 1e-10
    assert abs(sp.g(r_xy_z, w) + sp.g(sp.curvature(x, y, w), z)) < 1e-10
    bianchi = r_xy_z + sp.curvature(y, z, x) + sp.curvature(z, x, y)
    assert np.max(np.abs(bianchi)) < 1e-10


@pytest.mark.parametrize("c", BOTH)
def test_curvature_antisymmetry_degenerate(c, rng):
    sp = SpaceForm(c)
    p, (x, z) = point_and_tangents(sp, rng)
    assert np.max(np.abs(sp.curvature(x, x, z))) < 1e-14


@pytest.mark.parametrize("c", BOTH)
def test_exp_map_basics(c, rng):
    sp = SpaceForm(c)
    p, (v,) = point_and_tangents(sp, rng, 1)
    zero = np.zeros(3, dtype=complex)
    assert sp.dist(sp.exp(p, zero, 0.7), p) < 1e-12
    assert sp.dist(sp.exp(p, v, 0.0), p) < 1e-12
    # d/dt exp at 0 is v
    h = 1e-6
    fd = (sp.exp(p, v, h) - sp.exp(p, v, -h)) / (2 * h)
    assert sp.norm(sp.project_horizontal(p, fd) - v) < 1e-6
    assert abs(sp.dist(p, sp.exp(p, v, 0.8)) - 0.8) < 1e-10


@pytest.mark.parametrize("c", BOTH)
def test_exp_map_matches_rk_oracle(c, rng):
    sp = SpaceForm(c)
    p, (v,) = point_and_tangents(sp, rng, 1)
    z_oracle, _ = geodesic_rk4(sp, p, v, 1.0)
    assert sp.dist(sp.exp(p, v, 1.0), z_oracle) < 1e-6


@pytest.mark.parametrize("c", BOTH)
def test_covariant_derivative_on_geodesics(c, rng):
    sp = SpaceForm(c)
    p, (v,) = point_and_tangents(sp, rng, 1)

    def curve(t):
        return sp.exp(p, v, t)

    def velocity(t):
        return sp.exp_velocity(p, v, t)

    # tangent field of a geodesic is parallel
    assert sp.norm(covariant_derivative(sp, curve, velocity, 0.3)) < 1e-6
    # parallel-transported field differentiates to zero
    w0 = sp.random_tangent(rng, p)

    def par(t):
        return sp.parallel_transport_along_geodesic(p, v, t, w0, n_steps=60)

    assert sp.norm(covariant_derivative(sp, curve, par, 0.25)) < 1e-6


@pytest.mark.parametrize("c", BOTH)
def test_covariant_difference_batch_matches_rows_and_derivative(c, rng):
    sp = SpaceForm(c)
    # a (4, 3) batch of unrelated samples: every row stands alone
    z0, zp, zm = (np.stack([sp.random_point(rng) for _ in range(4)]) for _ in range(3))
    w0, wp, wm = (np.stack([sp.random_tangent(rng, z) for z in zs]) for zs in (z0, zp, zm))
    batch = sp.covariant_difference(z0, w0, zp, wp, zm, wm, 1e-3)
    assert batch.shape == (4, 3)
    for n in range(4):
        row = sp.covariant_difference(z0[n], w0[n], zp[n], wp[n], zm[n], wm[n], 1e-3)
        assert np.array_equal(batch[n], row)
    # a batch of geodesics: every velocity field differentiates to zero
    v = np.stack([sp.random_tangent(rng, z) for z in z0])
    t0, h = 0.3, 1e-5
    samples = [(sp.exp(z0, v, t), sp.exp_velocity(z0, v, t)) for t in (t0, t0 + h, t0 - h)]
    direct = sp.covariant_difference(*(a for pair in samples for a in pair), h)
    assert direct.shape == (4, 3)
    assert sp.norm(direct).max() < 1e-6


@pytest.mark.parametrize("c", BOTH)
def test_central_difference_shares_phases_and_ignores_them(c, rng):
    sp = SpaceForm(c)
    z0 = np.stack([sp.random_point(rng) for _ in range(3)])
    v = np.stack([sp.random_tangent(rng, z) for z in z0])
    h = 1e-5
    zp, zm = sp.exp(z0, v, h), sp.exp(z0, v, -h)
    fp, fm = sp.exp_velocity(z0, v, h), sp.exp_velocity(z0, v, -h)
    zdot, fdot = sp.central_difference(z0, zp, zm, h, (zp, zm), (fp, fm))
    (alone,) = sp.central_difference(z0, zp, zm, h, (fp, fm))
    assert np.array_equal(fdot, alone)
    # the velocity representative of the geodesic exp_z0(t v) at t = 0 is v
    assert sp.norm(sp.project_horizontal(z0, zdot) - v).max() < 1e-8
    # any unit phase on a displaced representative (and the field computed
    # there) leaves the differences unchanged up to rounding
    up, um = (np.exp(2j * np.pi * rng.uniform(size=(3, 1))) for _ in range(2))
    turned = sp.central_difference(z0, up * zp, um * zm, h, (up * zp, um * zm),
                                   (up * fp, um * fm))
    for new, old in zip(turned, (zdot, fdot)):
        assert np.abs(new - old).max() < 1e-9


@pytest.mark.parametrize("c", BOTH)
def test_kahler_identity_along_curve(c, rng):
    sp = SpaceForm(c)
    p, (v, w) = point_and_tangents(sp, rng)

    def curve(t):
        return sp.exp(p, v, t)

    def fld(t):
        return sp.project_horizontal(curve(t), w * np.cos(t) + 1j * w * t)

    def jfld(t):
        return 1j * fld(t)

    d1 = covariant_derivative(sp, curve, jfld, 0.2)
    d2 = covariant_derivative(sp, curve, fld, 0.2)
    assert sp.norm(d1 - 1j * d2) < 1e-6


@pytest.mark.parametrize("c", BOTH)
def test_parallel_transport_commutes_with_J(c, rng):
    sp = SpaceForm(c)
    p, (d, v) = point_and_tangents(sp, rng)
    tv = sp.parallel_transport_along_geodesic(p, d, 0.5, v)
    jtv = sp.parallel_transport_along_geodesic(p, d, 0.5, 1j * v)
    assert sp.norm(1j * tv - jtv) < 1e-6
    # transport is an isometry
    assert abs(sp.g(tv, tv) - sp.g(v, v)) < 1e-8


@pytest.mark.parametrize("c", BOTH)
def test_parallel_transport_matches_scalar_oracle(c, rng):
    # the array transport keeps the bits of the loop it replaced, at the
    # suite's step count and at the default
    sp = SpaceForm(c)
    for n_steps in (100, 200):
        p, (d, v) = point_and_tangents(sp, rng)
        for w0 in (v, 1j * v):
            new = sp.parallel_transport_along_geodesic(p, d, 0.5, w0, n_steps=n_steps)
            ref = scalar_parallel_transport(sp, p, d, 0.5, w0, n_steps=n_steps)
            assert np.array_equal(new, ref)


@pytest.mark.parametrize("c", BOTH)
def test_batched_parallel_transport_matches_scalar_oracle_lane_by_lane(c, rng):
    # a (2, 6) batch, as the ambient suite runs it: six geodesics, each with
    # v and Jv, the points and directions broadcast over the leading axis;
    # every lane keeps the bits of the one-vector loop
    sp = SpaceForm(c)
    draws = [point_and_tangents(sp, rng) for _ in range(6)]
    p = np.array([z for z, _ in draws])
    d, v = (np.array([tangents[k] for _, tangents in draws]) for k in range(2))
    w0 = np.array([v, 1j * v])
    batch = sp.parallel_transport_along_geodesic(p, d, 0.5, w0, n_steps=100)
    assert batch.shape == (2, 6, 3)
    for j in range(2):
        for n in range(6):
            ref = scalar_parallel_transport(sp, p[n], d[n], 0.5, w0[j, n], n_steps=100)
            assert np.array_equal(batch[j, n], ref)


def test_section_chart_real_plane_cp2(cp2):
    sp = cp2
    p = sp.normalize_rep(np.array([1.0, 0.0, 0.0], dtype=complex))
    e1 = np.array([0, 1, 0], dtype=complex)
    e2 = np.array([0, 0, 1], dtype=complex)
    chart = SectionChart(sp, p, e1, e2)
    assert chart.curvature == sp.c / 4
    for u in ([0.3, -0.2], [0.7, 0.4], [-0.5, 0.1]):
        z = chart.point(np.asarray(u))
        f1, f2 = chart.tangent_frame(z)
        assert abs(sp.g(1j * f1, f2)) < 1e-12
        assert chart.second_fundamental_form_residual(np.asarray(u)) < 1e-6
        # the chart is a radial isometry from the origin
        assert abs(sp.dist(p, z) - np.hypot(*u)) < 1e-12


def test_section_chart_rejects_complex_plane(cp2, rng):
    sp = cp2
    p = sp.random_point(rng)
    v = sp.random_tangent(rng, p)
    with pytest.raises(GeometryError):
        SectionChart(sp, p, v, 1j * v)


def test_section_chart_rejects_nonorthonormal(cp2, rng):
    sp = cp2
    p = sp.random_point(rng)
    v = sp.random_tangent(rng, p)
    with pytest.raises(GeometryError):
        SectionChart(sp, p, v, 0.5 * v)


@pytest.mark.parametrize("c", BOTH)
def test_section_chart_rejects_unnormalized_origin(c, rng):
    sp = SpaceForm(c)
    p = sp.random_point(rng)
    e1 = sp.random_tangent(rng, p)
    e2 = sp.random_tangent(rng, p)
    e2 = e2 - sp.g(e2, e1) * e1 - sp.g(e2, 1j * e1) * (1j * e1)
    e2 = e2 / sp.norm(e2)
    SectionChart(sp, p, e1, e2)
    with pytest.raises(GeometryError, match="not normalized"):
        SectionChart(sp, 1.01 * p, e1, e2)


@pytest.mark.parametrize("c", BOTH)
def test_point_phase_equality(c, rng):
    sp = SpaceForm(c)
    z = sp.random_point(rng)
    assert sp.dist(z, np.exp(1j * 1.234) * z) < 1e-7


@pytest.mark.parametrize("c", BOTH)
def test_signature_array_cached_read_only(c):
    sp = SpaceForm(c)
    sig = sp._sig
    assert sp._sig is sig
    assert not sig.flags.writeable
    assert sig.tolist() == list(sp.hermitian_signature)
    with pytest.raises(ValueError):
        sig[0] = 0.0
    # the cache is not a field: equality and hash still see only c
    fresh = SpaceForm(c)
    assert fresh == sp and hash(fresh) == hash(sp)
    assert SpaceForm(-c) != sp


@pytest.mark.parametrize("c", BOTH)
def test_dist_vanishes_between_scalings_of_one_point(c, rng):
    # arccos(|<z,w>|/kappa) needs <z,z> = kappa and turns a round-off eps
    # there into sqrt(eps) (1.5e-8 and more); in the wedge form the scale
    # cancels
    sp = SpaceForm(c)
    for _ in range(20):
        z = sp.random_point(rng)
        zs = (0.3 + 3.0 * rng.random()) * z
        assert sp.dist(zs, zs) == 0.0
        lam = 3.0 * (rng.standard_normal() + 1j * rng.standard_normal())
        assert sp.dist(z, lam * z) < 1e-12
    pts = np.stack([sp.random_point(rng) for _ in range(4)])
    assert np.array_equal(sp.dist(2.5 * pts, 2.5 * pts), np.zeros(4))


@pytest.mark.parametrize("c", [4.0, -4.0, 1.3, -0.7])
def test_dist_matches_arccos_formula_on_separated_points(c, rng):
    sp = SpaceForm(c)
    z = np.stack([sp.random_point(rng) for _ in range(100)])
    w = np.stack([sp.random_point(rng) for _ in range(100)])
    ratio = np.abs(sp.herm(z, w)) / abs(sp.kappa)
    if c > 0:
        ref = sp.radius * np.arccos(np.clip(ratio, 0.0, 1.0))
    else:
        ref = sp.radius * np.arccosh(np.maximum(ratio, 1.0))
    assert ref.min() > 1e-2
    assert np.abs(sp.dist(z, w) - ref).max() < 1e-12
    # and batched against one point, at any scale of the representatives
    assert np.abs(sp.dist(3.0 * z, 0.5j * w[0]) - sp.dist(z, w[0])).max() < 1e-12


def _special_rows(rng, n, complex_=False):
    """(n, 3) rows, about a third of whose entries are signed zeros, NaN,
    infinities or extreme magnitudes; complex rows get such parts too."""
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, 1e300])
    rows = rng.standard_normal((2 if complex_ else 1, n, 3))
    pick = rng.random(rows.shape) < 0.3
    rows[pick] = rng.choice(special, size=pick.sum())
    if not complex_:
        return rows[0]
    out = np.empty((n, 3), dtype=complex)
    out.real, out.imag = rows
    return out


@pytest.mark.parametrize("kinds", [(False, False), (True, True), (True, False)],
                         ids=["real", "complex", "mixed"])
def test_cross3_is_bit_identical_to_np_cross(kinds, rng):
    a, b = (_special_rows(rng, 400, kind) for kind in kinds)
    with np.errstate(all="ignore"):
        for x, y in ((a, b), (a[:7], b[:7]), (a[0], b[0]), (a[:5, None], b[None, :4])):
            out, ref = cross3(x, y), np.cross(x, y)
            assert out.dtype == ref.dtype and out.shape == ref.shape
            assert out.tobytes() == ref.tobytes()
