import numpy as np
import pytest

from hopflab.ambient import GeometryError, SpaceForm
from hopflab.catalog import (
    CATALOG_NAMES,
    bisector,
    clifford_cone,
    clifford_cone_distances,
    geodesic_sphere,
    get_entry,
    horosphere,
    sphere_spectrum,
    tube_spectrum,
)
from hopflab.hypersurface import classify, hopf_cmc_relation_check, shape_data
from oracles import (
    pointwise_one_sided_hausdorff,
    sphere_spectrum_oracle,
    tube_spectrum_oracle,
)


def test_catalog_registry_complete():
    for name in CATALOG_NAMES:
        entry = get_entry(name)
        assert entry.patch.contains(entry.patch.grid((2, 2, 2), margin=0.1))
    with pytest.raises(KeyError):
        get_entry("nonsense")


def test_closed_form_spectra_match_jacobi_oracle():
    # the closed forms used for expectations, checked against integration
    for c, r in ((4.0, 0.3), (4.0, 0.6), (-4.0, 0.5)):
        assert np.allclose(sorted(sphere_spectrum(c, r), reverse=True),
                           sphere_spectrum_oracle(c, r), atol=1e-9)
    assert np.allclose(sorted(tube_spectrum(4.0, 0.3, "rp2"), reverse=True),
                       tube_spectrum_oracle(4.0, 0.3, "rp2"), atol=1e-9)
    assert np.allclose(sorted(tube_spectrum(-4.0, 0.4, "ch1"), reverse=True),
                       tube_spectrum_oracle(-4.0, 0.4, "ch1"), atol=1e-9)


def test_sphere_focal_radius_validation(cp2, ch2):
    with pytest.raises(GeometryError):
        geodesic_sphere(cp2, r=np.pi / 2)   # focal radius for c = 4
    with pytest.raises(GeometryError):
        geodesic_sphere(cp2, r=-0.1)
    # no focal obstruction in the hyperbolic plane
    assert geodesic_sphere(ch2, r=2.0).patch is not None


def test_horosphere_requires_negative_curvature(cp2):
    with pytest.raises(GeometryError):
        horosphere(cp2)


def test_horosphere_expectations():
    entry = get_entry("horosphere")
    rep = classify(entry.patch, entry.patch.grid((3, 3, 3), margin=0.1),
                   derivative_subsample=2)
    assert rep.hopf
    assert not rep.austere
    assert rep.residuals["mean_curvature_spread"] < 1e-4


def test_bisector_equidistance_defect(ch2):
    entry = bisector(ch2)
    sp = ch2
    p1, p2 = entry.extras["p1"], entry.extras["p2"]
    grid = entry.patch.grid((4, 4, 4), margin=0.05)
    pts = entry.patch.eval(grid)
    defect = np.abs(sp.dist(pts, p1[None, :]) - sp.dist(pts, p2[None, :]))
    assert defect.max() < 1e-6


def test_bisector_of_rescaled_points(ch2):
    # representatives of any scale name the same two points
    e = np.eye(3, dtype=complex)
    m0 = ch2.normalize_rep(e[0])
    p1, p2 = ch2.exp(m0, e[1], -0.4), ch2.exp(m0, e[1], 0.4)
    entry = bisector(ch2, 2.0 * p1, 0.5j * p2)
    pts = entry.patch.eval(entry.patch.grid((3, 3, 3), margin=0.05))
    assert np.abs(ch2.dist(pts, p1) - ch2.dist(pts, p2)).max() < 1e-6
    assert abs(entry.parameters["distance"] - 0.8) < 1e-12


def test_bisector_requires_distinct_points(ch2):
    p = ch2.normalize_rep(np.array([1.0, 0, 0], dtype=complex))
    with pytest.raises(GeometryError):
        bisector(ch2, p, p)


def test_bisector_classification(ch2):
    entry = bisector(ch2)
    rep = classify(entry.patch, entry.patch.grid((4, 4, 4), margin=0.05),
                   derivative_subsample=2)
    assert rep.austere and rep.ruled and rep.levi_flat
    assert abs(rep.mean_curvature) < 1e-3


def test_clifford_cone_vertex_validation(cp2):
    with pytest.raises(GeometryError):
        clifford_cone(cp2, vertex=np.array([1.0, 1.0, 1.0]) / np.sqrt(3))


def test_clifford_cone_minimal_and_austere(cp2):
    entry = clifford_cone(cp2)
    rep = classify(entry.patch, entry.patch.grid((4, 3, 3), margin=0.08),
                   derivative_subsample=2)
    assert rep.austere and rep.ruled and rep.levi_flat and rep.strongly_two_hopf
    assert abs(rep.mean_curvature) < 1e-3


def test_lohnherr_expectations(lohnherr_entry):
    grid = lohnherr_entry.patch.grid((6, 3, 3), margin=0.05)
    sd = shape_data(lohnherr_entry.patch, grid)
    assert np.abs(sd.eigvals - np.array([1.0, 0.0, -1.0])).max() < 1e-4
    rep = classify(lohnherr_entry.patch, grid, derivative_subsample=2)
    assert rep.austere and rep.ruled and rep.levi_flat and rep.strongly_two_hopf
    assert abs(rep.mean_curvature) < 1e-3


def test_hopf_entries_satisfy_relation():
    for name, kwargs in (("geodesic-sphere", {"r": 0.5}), ("horosphere", {}),
                         ("tube-rp2", {"r": 0.3}), ("tube-ch1", {"r": 0.4})):
        entry = get_entry(name, **kwargs)
        sd = shape_data(entry.patch, entry.patch.grid((2, 2, 2), margin=0.2)[[1]])
        assert hopf_cmc_relation_check(sd)[0] < 1e-6


def nearest_cone_params(sp, z, iv):
    """Chart parameters (t, th1, th2) of the point nearest to z on the cone of e_iv.

    With phases aligned to z, the nearest point keeps |z_iv| and gives both
    other coordinates the mean of their moduli.
    """
    i, j = [k for k in range(3) if k != iv]
    m = np.abs(z)
    rise = (m[:, i] + m[:, j]) / np.sqrt(2)
    t = sp.radius * (np.arctan2(rise, m[:, iv]) if sp.c > 0 else np.arctanh(rise / m[:, iv]))
    phase = np.conj(z[:, iv])
    return np.stack([t, np.angle(z[:, i] * phase), np.angle(z[:, j] * phase)], axis=-1)


@pytest.mark.parametrize("label, cone_name", [
    ("ch2-torus", "clifford-cone-ch2"),
    ("cp2-torus", "clifford-cone-cp2"),
])
def test_clifford_cone_distance_matches_nelder_mead_search(label, cone_name):
    # an austere curve, on a cone (in CP^2 not the catalog's), and a CMC curve
    # off every cone, probed as the Nelder-Mead search over the catalog cone's
    # box probes them: the closed form is attained at the nearest cone point,
    # never exceeds the search, and equals it, as every nearest point lies
    # inside the box
    from hopflab.actions import load_action
    from hopflab.constructor import CurveLaw, austere_search, build_hypersurface, integrate_sigma

    spec = load_action(label)
    sp = spec.space
    cone = get_entry(cone_name)
    iv = int(np.argmax(np.abs(cone.parameters["vertex"])))
    z0 = spec.section.point(np.array([0.2, -0.1]))
    f1, f2 = spec.section.tangent_frame(z0)
    cmc = integrate_sigma(spec, z0, np.cos(1.2) * f1 + np.sin(1.2) * f2,
                          CurveLaw("cmc", eta=0.5), n_steps=100)
    austere = austere_search(spec, [[-0.3, 0.0]], n_steps=120)[0].curve
    for sigma, n_probe, on_cone in ((austere, 5, True), (cmc, 3, False)):
        ehs = build_hypersurface(spec, sigma, s_extent=0.15)
        probes = ehs.patch.eval(ehs.patch.grid((n_probe, 1, 1), margin=0.2))
        every_vertex = clifford_cone_distances(sp, probes)
        dist = every_vertex[:, iv if sp.c > 0 else 0]
        nearest = nearest_cone_params(sp, probes, iv)
        assert np.allclose(sp.dist(cone.patch.eval(nearest), probes), dist,
                           rtol=1e-12, atol=1e-15)
        searched = pointwise_one_sided_hausdorff(ehs, cone, n_probe)
        assert dist.max() <= searched * (1 + 1e-12) + 1e-15
        assert cone.patch.contains(nearest)
        assert np.isclose(dist.max(), searched, rtol=1e-12, atol=1e-15)
        assert (np.max(np.min(every_vertex, axis=1)) < 1e-15) == on_cone


@pytest.mark.parametrize("c", [4.0, -4.0, 1.0, -9.0])
def test_clifford_cone_distance_bounded_by_dense_chart_scan(c):
    # every torus-fixed vertex's cone, scanned along its chart well past the
    # catalog box; the scan's angular grid coarsens with sinh(t/r) in CH^2
    sp = SpaceForm(c)
    rng = np.random.default_rng(5)
    pts = np.array([sp.random_point(rng) for _ in range(6)])
    closed = clifford_cone_distances(sp, pts)
    t_max = np.pi / 2 * sp.radius if c > 0 else 3.0 * sp.radius
    ts = np.linspace(0.0, t_max, 61)
    ths = np.linspace(-np.pi, np.pi, 72, endpoint=False)
    mesh = np.stack([m.ravel() for m in np.meshgrid(ts, ths, ths, indexing="ij")], axis=-1)
    vertices = np.eye(3) if c > 0 else np.eye(3)[:1]
    assert closed.shape == (len(pts), len(vertices))
    for k, vertex in enumerate(vertices):
        cone = clifford_cone(sp, vertex=vertex).patch.eval(mesh)
        scan = sp.dist(cone[None], pts[:, None]).min(axis=1)
        assert np.all(closed[:, k] <= scan * (1 + 1e-12))
        assert np.all(scan - closed[:, k] < 0.2 * sp.radius)
