import numpy as np
import pytest

from hopflab.ambient import GeometryError, SpaceForm
from hopflab.catalog import (
    CATALOG_NAMES,
    bisector,
    clifford_cone,
    geodesic_sphere,
    get_entry,
    horosphere,
    sphere_spectrum,
    tube_spectrum,
)
from hopflab.hypersurface import classify, hopf_cmc_relation_check, shape_data
from hopflab.suites import _one_sided_hausdorff, _seed_distances
from oracles import (
    pointwise_one_sided_hausdorff,
    pointwise_seed_distances,
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
        p = entry.patch.grid((2, 2, 2), margin=0.2)[1]
        assert hopf_cmc_relation_check(entry.patch, p) < 1e-6


def test_one_sided_hausdorff_matches_per_seed_scan():
    # the cross-construction of the austere suite (distance 0 to the cone)
    # and a CMC patch off the cone, whose probes start from different seeds
    from hopflab.actions import load_action
    from hopflab.constructor import CurveLaw, austere_search, build_hypersurface, integrate_sigma

    spec = load_action("ch2-torus")
    cone = get_entry("clifford-cone-ch2")
    z0 = spec.section.point(np.array([0.2, -0.1]))
    f1, f2 = spec.section.tangent_frame(z0)
    cmc = integrate_sigma(spec, z0, np.cos(1.2) * f1 + np.sin(1.2) * f2,
                          CurveLaw("cmc", eta=0.5), n_steps=100)
    austere = austere_search(spec, [[-0.3, 0.0]], n_steps=120)[0].curve
    nearest = set()
    for sigma, n_probe in ((austere, 5), (cmc, 3)):
        ehs = build_hypersurface(spec, sigma, s_extent=0.15)
        probes = ehs.patch.eval(ehs.patch.grid((n_probe, 1, 1), margin=0.2))
        seeds, dists = _seed_distances(ehs.space, cone.patch, probes)
        ref_seeds, ref_dists = pointwise_seed_distances(ehs.space, cone.patch, probes)
        assert np.array_equal(seeds, ref_seeds) and np.array_equal(dists, ref_dists)
        nearest.update(np.argmin(dists, axis=1).tolist())
        assert _one_sided_hausdorff(ehs, cone, n_probe) == \
            pointwise_one_sided_hausdorff(ehs, cone, n_probe)
    assert len(nearest) > 1
