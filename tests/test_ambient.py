import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopflab.ambient import (
    AmbientPoint,
    AmbientTangent,
    GeometryError,
    SpaceForm,
    complex_structure,
    covariant_derivative,
    curvature_tensor,
    distance,
    exp_map,
    metric,
    parallel_transport_along_geodesic,
    section_chart,
)
from oracles import geodesic_rk4

BOTH = [4.0, -4.0]


def point_and_tangents(sp, rng, n=2):
    p = AmbientPoint(sp, sp.random_point(rng))
    return p, [AmbientTangent(p, sp.random_tangent(rng, p.rep)) for _ in range(n)]


@pytest.mark.parametrize("c", BOTH)
def test_metric_symmetric_and_zero(c, rng):
    sp = SpaceForm(c)
    p, (v, w) = point_and_tangents(sp, rng)
    assert abs(metric(v, w) - metric(w, v)) < 1e-12
    zero = AmbientTangent(p, np.zeros(3, dtype=complex))
    assert metric(zero, zero) == 0.0
    assert abs(metric(v, complex_structure(v))) < 1e-12


@pytest.mark.parametrize("c", BOTH)
def test_metric_base_point_mismatch(c, rng):
    sp = SpaceForm(c)
    p1, (v,) = point_and_tangents(sp, rng, 1)
    p2, (w,) = point_and_tangents(sp, rng, 1)
    with pytest.raises(GeometryError):
        metric(v, w)


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_complex_structure_properties(seed):
    rng = np.random.default_rng(seed)
    sp = SpaceForm(4.0 if seed % 2 else -4.0)
    p, (v, w) = point_and_tangents(sp, rng)
    jv = complex_structure(v)
    assert np.allclose(complex_structure(jv).vec, -v.vec)
    assert abs(metric(jv, complex_structure(w)) - metric(v, w)) < 1e-12


@pytest.mark.parametrize("c", BOTH)
def test_holomorphic_and_totally_real_sectional_curvature(c, rng):
    sp = SpaceForm(c)
    for _ in range(10):
        p, (x, y) = point_and_tangents(sp, rng)
        jx = complex_structure(x)
        assert abs(metric(curvature_tensor(x, jx, jx), x) - c) < 1e-10
        # orthonormalize y against x, Jx: totally real plane, curvature c/4
        yv = y.vec - sp.g(y.vec, x.vec) * x.vec - sp.g(y.vec, jx.vec) * jx.vec
        yt = AmbientTangent(p, yv / sp.norm(yv))
        assert abs(metric(curvature_tensor(x, yt, yt), x) - c / 4) < 1e-10


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_curvature_symmetries(seed):
    rng = np.random.default_rng(seed)
    sp = SpaceForm(4.0 if seed % 2 else -4.0)
    p, (x, y, z, w) = point_and_tangents(sp, rng, 4)
    r_xy_z = curvature_tensor(x, y, z)
    assert np.max(np.abs(r_xy_z.vec + curvature_tensor(y, x, z).vec)) < 1e-10
    assert abs(metric(r_xy_z, w) + metric(curvature_tensor(x, y, w), z)) < 1e-10
    bianchi = (r_xy_z.vec + curvature_tensor(y, z, x).vec
               + curvature_tensor(z, x, y).vec)
    assert np.max(np.abs(bianchi)) < 1e-10


@pytest.mark.parametrize("c", BOTH)
def test_curvature_antisymmetry_degenerate(c, rng):
    sp = SpaceForm(c)
    p, (x, z) = point_and_tangents(sp, rng)
    assert np.max(np.abs(curvature_tensor(x, x, z).vec)) < 1e-14


@pytest.mark.parametrize("c", BOTH)
def test_exp_map_basics(c, rng):
    sp = SpaceForm(c)
    p, (v,) = point_and_tangents(sp, rng, 1)
    zero = AmbientTangent(p, np.zeros(3, dtype=complex))
    assert exp_map(p, zero, 0.7).same_point(p)
    assert exp_map(p, v, 0.0).same_point(p)
    # d/dt exp at 0 is v
    h = 1e-6
    fd = (exp_map(p, v, h).rep - exp_map(p, v, -h).rep) / (2 * h)
    assert sp.norm(sp.project_horizontal(p.rep, fd) - v.vec) < 1e-6
    assert abs(distance(p, exp_map(p, v, 0.8)) - 0.8) < 1e-10


@pytest.mark.parametrize("c", BOTH)
def test_exp_map_matches_rk_oracle(c, rng):
    sp = SpaceForm(c)
    p, (v,) = point_and_tangents(sp, rng, 1)
    z_oracle, _ = geodesic_rk4(sp, p.rep, v.vec, 1.0)
    assert sp.dist(exp_map(p, v, 1.0).rep, z_oracle) < 1e-6


@pytest.mark.parametrize("c", BOTH)
def test_covariant_derivative_on_geodesics(c, rng):
    sp = SpaceForm(c)
    p, (v,) = point_and_tangents(sp, rng, 1)

    def curve(t):
        return exp_map(p, v, t)

    def velocity(t):
        q = curve(t)
        return AmbientTangent(q, sp.exp_velocity(p.rep, v.vec, t))

    # tangent field of a geodesic is parallel
    res = covariant_derivative(curve, velocity, 0.3)
    assert sp.norm(res.vec) < 1e-6
    # parallel-transported field differentiates to zero
    w0 = AmbientTangent(p, sp.random_tangent(rng, p.rep))

    def par(t):
        return parallel_transport_along_geodesic(p, v, t, w0, n_steps=60)

    res2 = covariant_derivative(curve, par, 0.25)
    assert sp.norm(res2.vec) < 1e-6


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
    # covariant_derivative is the primitive applied to curve/field samples
    p, (v,) = point_and_tangents(sp, rng, 1)

    def curve(t):
        return exp_map(p, v, t)

    def velocity(t):
        return AmbientTangent(curve(t), sp.exp_velocity(p.rep, v.vec, t))

    t0, h = 0.3, 1e-5
    res = covariant_derivative(curve, velocity, t0, step=h)
    direct = sp.covariant_difference(curve(t0).rep, velocity(t0).vec,
                                     curve(t0 + h).rep, velocity(t0 + h).vec,
                                     curve(t0 - h).rep, velocity(t0 - h).vec, h)
    # covariant_derivative also phase-aligns fld(t0), a no-op here up to rounding
    assert np.abs(res.vec - direct).max() < 1e-15
    assert sp.norm(direct) < 1e-6


@pytest.mark.parametrize("c", BOTH)
def test_kahler_identity_along_curve(c, rng):
    sp = SpaceForm(c)
    p, (v, w) = point_and_tangents(sp, rng)

    def curve(t):
        return exp_map(p, v, t)

    def fld(t):
        q = curve(t)
        u = sp.project_horizontal(q.rep, w.vec * np.cos(t) + 1j * w.vec * t)
        return AmbientTangent(q, u)

    def jfld(t):
        f = fld(t)
        return AmbientTangent(f.point, 1j * f.vec)

    d1 = covariant_derivative(curve, jfld, 0.2)
    d2 = covariant_derivative(curve, fld, 0.2)
    assert sp.norm(d1.vec - 1j * d2.vec) < 1e-6


@pytest.mark.parametrize("c", BOTH)
def test_parallel_transport_commutes_with_J(c, rng):
    sp = SpaceForm(c)
    p, (d, v) = point_and_tangents(sp, rng)
    tv = parallel_transport_along_geodesic(p, d, 0.5, v)
    jtv = parallel_transport_along_geodesic(p, d, 0.5, AmbientTangent(p, 1j * v.vec))
    assert sp.norm(1j * tv.vec - jtv.vec) < 1e-6
    # transport is an isometry
    assert abs(sp.g(tv.vec, tv.vec) - sp.g(v.vec, v.vec)) < 1e-8


def test_section_chart_real_plane_cp2(cp2):
    sp = cp2
    p = AmbientPoint.of(sp, [1.0, 0.0, 0.0])
    e1 = AmbientTangent(p, np.array([0, 1, 0], dtype=complex))
    e2 = AmbientTangent(p, np.array([0, 0, 1], dtype=complex))
    chart = section_chart(p, e1, e2)
    assert chart.curvature == sp.c / 4
    for u in ([0.3, -0.2], [0.7, 0.4], [-0.5, 0.1]):
        z = chart.point(np.asarray(u))
        f1, f2 = chart.tangent_frame(z)
        assert abs(sp.g(1j * f1, f2)) < 1e-12
        assert chart.second_fundamental_form_residual(np.asarray(u)) < 1e-6
        # inverse chart
        assert np.max(np.abs(chart.coordinates(z) - u)) < 1e-9


def test_section_chart_rejects_complex_plane(cp2, rng):
    sp = cp2
    p = AmbientPoint(sp, sp.random_point(rng))
    v = sp.random_tangent(rng, p.rep)
    e1 = AmbientTangent(p, v)
    e2 = AmbientTangent(p, 1j * v)
    with pytest.raises(GeometryError):
        section_chart(p, e1, e2)


def test_section_chart_rejects_nonorthonormal(cp2, rng):
    sp = cp2
    p = AmbientPoint(sp, sp.random_point(rng))
    v = sp.random_tangent(rng, p.rep)
    with pytest.raises(GeometryError):
        section_chart(p, AmbientTangent(p, v), AmbientTangent(p, 0.5 * v))


@pytest.mark.parametrize("c", BOTH)
def test_point_phase_equality(c, rng):
    sp = SpaceForm(c)
    z = sp.random_point(rng)
    p = AmbientPoint(sp, z)
    q = AmbientPoint(sp, np.exp(1j * 1.234) * z)
    assert p.same_point(q)
    assert distance(p, q) < 1e-7


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
