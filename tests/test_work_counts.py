"""Work counts of the verify suites' h = 2 checks, of the section curves, of
one construct benchmark cycle, its L0 kernel calls included, and of the orbit
evaluations of one austere benchmark cycle.

Counts are deterministic, so work that grows without an announcement fails
here on any host, whatever the timing noise. Each suite test builds the
workspace patches first, so that only the checks' own calls are counted.
"""

import sys
import weakref
from collections import Counter
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

import hopflab._kernels as kernels
import hopflab.constructor as constructor
import hopflab.hypersurface as hypersurface
from hopflab.actions import LABELS, load_action
from hopflab.constructor import CurveLaw, integrate_sigma
from hopflab.suites import suite_cmc, suite_connection

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

CONNECTION_LABELS = ("cp2-torus", "ch2-g0")
HOPF_ENTRIES = ("geodesic-sphere", "horosphere", "tube-rp2", "tube-ch1")


def rebind(monkeypatch, fn_name, wrap):
    """Replace hypersurface.<fn_name> by wrap(it), wherever a hopflab module binds it."""
    original = getattr(hypersurface, fn_name)
    wrapped = wrap(original)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hopflab" and getattr(module, fn_name, None) is original:
            monkeypatch.setattr(module, fn_name, wrapped)


def count_calls(monkeypatch, fn_name):
    """Record every call of hypersurface.<fn_name>, wherever a hopflab module binds it.

    Returns the list that collects the positional arguments of each call.
    """
    calls = []

    def wrap(original):
        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        return counted

    rebind(monkeypatch, fn_name, wrap)
    return calls


def test_suite_connection_work_per_label(suite_ws, monkeypatch):
    for label in CONNECTION_LABELS:
        suite_ws.cmc_patch(label)
    shape_calls = count_calls(monkeypatch, "shape_data")
    derivative_calls = count_calls(monkeypatch, "frame_derivative_data")
    res = suite_connection(suite_ws)
    assert res.passed
    # per label: one derivative call feeds both tables and the Prop 4.2
    # checks; shape data at the probe point, inside that derivative call,
    # and 1 + 4 legs x 2 RK4 steps x 4 stages for the two-lane bracket flow
    assert len(derivative_calls) == len(CONNECTION_LABELS) * 1
    assert len(shape_calls) == len(CONNECTION_LABELS) * (1 + 1 + 1 + 4 * 2 * 4)
    assert [list(idx) for _, _, idx in derivative_calls] == [[0], [0]]
    # the bracket's stages evaluate its two lanes at once
    assert sorted({len(params) for _, params in shape_calls}) == [1, 2, 6]


def test_suite_cmc_hopf_relation_reuses_grid_shape_data(suite_ws, monkeypatch):
    for label in LABELS:
        suite_ws.cmc_patch(label)
        suite_ws.wp_patch(label)
    for name in HOPF_ENTRIES:
        suite_ws.catalog_entry(name)
    shape_calls = count_calls(monkeypatch, "shape_data")
    res = suite_cmc(suite_ws)
    assert res.passed
    # the only one-point calls are the w_p launch probes, one per action;
    # the Hopf relation reads the catalog grids' shape data
    catalog = {id(suite_ws.catalog_entry(name).patch) for name in HOPF_ENTRIES}
    assert [len(params) for patch, params in shape_calls if id(patch) in catalog] == [27] * 5
    one_point = [patch for patch, params in shape_calls if len(params) == 1]
    assert len(one_point) == len(LABELS)
    wp_patches = {id(suite_ws.wp_patch(label).patch) for label in LABELS}
    assert {id(patch) for patch in one_point} == wp_patches



@pytest.mark.parametrize("action, calls, points", [
    # one start call on 2 points, 10 and 9 Picard iterations on the 2 nodes
    # of each of the 200 steps of the 2 lanes, and the gram det and orbit
    # columns of the window's 2 x 200 rows, which the curve is built from
    ("cp2-torus", 12, 2 + 10 * 800 + 400),
    ("ch2-k0-g2a", 11, 2 + 9 * 800 + 400),
], ids=["cmc", "levi-flat"])
def test_orbit_reading_curve_work(action, calls, points, tmp_path, monkeypatch):
    # the construct benchmark's seed-3 launch of this action, as construct makes it
    cfg = next(c for c in WORKLOADS["construct"](3, str(tmp_path)).configs
               if c["action"] == action)
    spec = load_action(action)
    z0 = spec.section.point(np.array([0.12, 0.07]))
    f1, f2 = spec.section.tangent_frame(z0)
    w0 = np.cos(cfg["theta"]) * f1 + np.sin(cfg["theta"]) * f2
    sizes = []
    original = constructor._orbit_invariants

    def counted(spec, x, xi):
        sizes.append(x.shape[1])
        return original(spec, x, xi)

    monkeypatch.setattr(constructor, "_orbit_invariants", counted)
    sigma = integrate_sigma(spec, z0, w0, CurveLaw(cfg["law"], eta=cfg["eta"]), n_steps=200)
    assert not sigma.truncated
    assert (len(sizes), sum(sizes)) == (calls, points)


def count_orbit_points(monkeypatch, fn_names):
    """Record the points (3, N) of every call of each constructor.<fn_name>, by name."""
    sizes = {fn_name: [] for fn_name in fn_names}

    def counting(fn_name):
        fn = getattr(constructor, fn_name)

        def counted(spec, x, *args, **kwargs):
            sizes[fn_name].append(x.shape[1])
            return fn(spec, x, *args, **kwargs)

        return counted

    for fn_name in sizes:
        monkeypatch.setattr(constructor, fn_name, counting(fn_name))
    return sizes


def test_construct_geodesic_item_runs_its_lanes_in_one_block(tmp_path, monkeypatch):
    # the geodesic law's lanes read the orbit data at their rows, for the
    # regularity test and the curve's columns at once: the start's 2 points,
    # then one block of both lanes' 50 rows, since a block holds
    # ORBIT_BATCH // 2 = 400 rows of 2 live lanes. The curve built from the
    # lanes evaluates nothing again. The certificate reads the exact shape
    # data on the 20 distinct t of its grid, then the law's target at the
    # two Gauss points and the midpoint of the curve's 100 steps
    # (curve_defect); the last call is the exact shape data's on the 12
    # distinct t of the mesh.
    sizes = count_orbit_points(monkeypatch, ("_orbit_invariants",))
    workload = WORKLOADS["construct"](3, str(tmp_path))
    item = next(k for k, cfg in enumerate(workload.configs) if cfg["law"] == "geodesic")
    ok, digest = workload.run(item)
    assert ok, digest
    assert sizes == {"_orbit_invariants": [2, 2 * 50, 20, 3 * 100, 12]}


# the functions whose shape data a construct cycle reads, by the nearest one on the stack
CONSTRUCT_SITES = ("strongly_2hopf_certify", "leviflat_cmc_certify", "classify",
                   "_cmd_construct")


def call_site(frame):
    """(calling function, nearest CONSTRUCT_SITES function above it) of a frame."""
    caller = frame.f_code.co_name
    while frame is not None and frame.f_code.co_name not in CONSTRUCT_SITES:
        frame = frame.f_back
    return caller, frame.f_code.co_name if frame is not None else None


def count_frame_parts(monkeypatch):
    """Count the points on which each part of an AdaptedFrames is built, by
    the call site of the adapted_frames call that made it.

    Returns a Counter of ((caller, site), part) -> points, the part being
    "cluster" (built with the object), "_frame" or "_levi" (built on first read).
    """
    points, made_at = Counter(), weakref.WeakKeyDictionary()

    def wrap(original):
        def counted(sd):
            af = original(sd)
            made_at[af] = call_site(sys._getframe(1))
            points[made_at[af], "cluster"] += len(af.h)
            return af
        return counted

    rebind(monkeypatch, "adapted_frames", wrap)
    for part in ("_frame", "_levi"):
        build = getattr(hypersurface.AdaptedFrames, part).func

        def counted_part(af, build=build, part=part):
            # a part built inside adapted_frames itself counts under None
            points[made_at.get(af), part] += len(af.h)
            return build(af)

        prop = cached_property(counted_part)
        prop.__set_name__(hypersurface.AdaptedFrames, part)
        monkeypatch.setattr(hypersurface.AdaptedFrames, part, prop)
    return points


def test_construct_cycle_work_per_call_site(tmp_path, monkeypatch):
    fd_points = Counter()

    def wrap(original):
        def counted(patch, params):
            sd = original(patch, params)
            fd_points[call_site(sys._getframe(1))] += len(sd.E)
            return sd
        return counted

    rebind(monkeypatch, "shape_data", wrap)
    part_points = count_frame_parts(monkeypatch)
    orbit_points = {"_orbit_invariants": [], "orbit_geometry": []}

    def counting(fn_name):
        fn = getattr(constructor, fn_name)

        def wrapper(spec, z, *args, **kwargs):
            if sys._getframe(1).f_code.co_name == "equivariant_shape_data":
                orbit_points[fn_name].append(z.size // 3)
            return fn(spec, z, *args, **kwargs)

        return wrapper

    for fn_name in orbit_points:
        monkeypatch.setattr(constructor, fn_name, counting(fn_name))
    workload = WORKLOADS["construct"](3, str(tmp_path))
    for item in workload.cycle():
        ok, digest = workload.run(item)
        assert ok, digest
    # the 20 x 5 x 5 h-grid and the 12 x 4 x 4 mesh read exact shape data, so
    # neither the certificate's grid nor _cmd_construct's mesh has a site here
    assert dict(fd_points) == {
        ("leviflat_cmc_certify", "leviflat_cmc_certify"): 4 * 160,     # cmc and levi-flat items
        ("strongly_2hopf_certify", "strongly_2hopf_certify"): 5 * 6,   # derivative sample
        ("frame_derivative_data", "strongly_2hopf_certify"): 5 * 36,   # its displaced frames
        ("classify", "classify"): 72,                                  # the geodesic item
        ("frame_derivative_data", "classify"): 18,
    }
    assert sum(fd_points.values()) == 940
    # each adapted-frame part is built only where it is read: the h-grid reads
    # h alone, the Levi-flat/CMC certificate only levi, the mesh and the
    # derivative data only frame fields; classify reads all three
    assert dict(part_points) == {
        (("strongly_2hopf_certify", "strongly_2hopf_certify"), "cluster"): 5 * 500,
        (("frame_derivative_data", "strongly_2hopf_certify"), "cluster"): 5 * (6 + 36),
        (("frame_derivative_data", "strongly_2hopf_certify"), "_frame"): 5 * (6 + 36),
        (("leviflat_cmc_certify", "leviflat_cmc_certify"), "cluster"): 4 * 160,
        (("leviflat_cmc_certify", "leviflat_cmc_certify"), "_levi"): 4 * 160,
        (("classify", "classify"), "cluster"): 72,
        (("classify", "classify"), "_frame"): 72,
        (("classify", "classify"), "_levi"): 72,
        (("frame_derivative_data", "classify"), "cluster"): 3 + 18,
        (("frame_derivative_data", "classify"), "_frame"): 3 + 18,
        (("mesh_rows", "_cmd_construct"), "cluster"): 5 * 192,
        (("mesh_rows", "_cmd_construct"), "_frame"): 5 * 192,
    }
    # the exact route evaluates the orbit once per distinct t of each grid
    assert orbit_points == {"_orbit_invariants": [20, 12] * 5, "orbit_geometry": []}


def count_kernel_calls(monkeypatch):
    """Record the size of every L0 kernel call: the points of each
    ``group_orbit_apply`` call and the matrices of each ``expm3_batch`` call."""
    sizes = {"group_orbit_apply": [], "expm3_batch": []}

    def counting(fn_name, size):
        fn = getattr(kernels, fn_name)

        def counted(*args):
            out = fn(*args)
            sizes[fn_name].append(size(out))
            return out

        return counted

    for fn_name, size in (("group_orbit_apply", len), ("expm3_batch", lambda r: r.size // 9)):
        monkeypatch.setattr(kernels, fn_name, counting(fn_name, size))
    # group_orbit_apply reaches expm3_batch through its own module's global
    monkeypatch.setattr(kernels.pure, "expm3_batch", kernels.expm3_batch)
    return sizes


def test_construct_cycle_kernel_work(tmp_path, monkeypatch):
    sizes = count_kernel_calls(monkeypatch)
    workload = WORKLOADS["construct"](3, str(tmp_path))
    for item in workload.cycle():
        ok, digest = workload.run(item)
        assert ok, digest
    # every exponential goes through group_orbit_apply's per-pair dedupe;
    # 5,221 distinct pairs in all (the frame_derivative_data stencils of the
    # cp2-torus and ch2-g0 items hold a few pairs that coincide bit for bit
    # or not, depending on the kernel's rounding)
    assert (len(sizes["group_orbit_apply"]), sum(sizes["group_orbit_apply"])) == (46, 67360)
    assert (len(sizes["expm3_batch"]), sum(sizes["expm3_batch"])) == (46, 5221)


def test_austere_cycle_orbit_work(tmp_path, monkeypatch):
    # the orbit evaluations of one seed-3 austere benchmark cycle, by the
    # constructor's bindings: the search grids' bodies, the lanes' rows and
    # the orbit columns of every curve that stays aligned
    sizes = count_orbit_points(monkeypatch, ("_orbit_body", "_orbit_invariants"))
    kernel_sizes = count_kernel_calls(monkeypatch)
    workload = WORKLOADS["austere"](3, str(tmp_path))
    for item in workload.cycle():
        ok, digest = workload.run(item)
        assert ok, digest
    # the search grids' 25 points per action take the only _orbit_body calls.
    # A pregeodesic lane reads its rows' regularity, alignment and orbit
    # columns from one _orbit_invariants call per block, a block holding
    # about ORBIT_BATCH points over its live lanes, so the 9,058 row points
    # are evaluated once and the 24 curves that stay aligned (241 rows each,
    # 5,784 points) are built from them with no call of their own. The
    # 4 + 4 + 4 + 4 launches that follow a surviving mirror-line or
    # ch2-line-g2a launch onto its geodesic are never integrated
    assert constructor.ORBIT_BATCH == 800
    assert {name: (len(s), sum(s)) for name, s in sizes.items()} == {
        "_orbit_body": (5, 125), "_orbit_invariants": (19, 9058)}
    assert sizes["_orbit_body"] == [25] * 5
    # every orbit-body point of the cycle, those inside _orbit_invariants included
    assert sum(sizes["_orbit_body"]) + sum(sizes["_orbit_invariants"]) == 9183
    assert max(sizes["_orbit_invariants"]) == constructor.ORBIT_BATCH
    # the search moves no point through the group, and its dedupe reads
    # only the launches' start rows
    assert kernel_sizes == {"group_orbit_apply": [], "expm3_batch": []}
