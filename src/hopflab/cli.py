"""Command-line front end.

Subcommands: construct, classify, hopf-directions, verify, sample.
Configuration comes from flags, optionally merged over a JSON config file
(flags win). verify's seed defaults to 7; construct draws no random numbers
and takes no seed. Certificate and classification tolerances are fixed.
Exit codes: 0 success/pass, 1 validation error or unwritable output, 2
certification/verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import numbers
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .actions import LABELS, hopf_directions, load_action, phi_profile
from .ambient import GeometryError
from .catalog import CATALOG_NAMES, get_entry
from .constructor import (
    LAW_KINDS,
    CurveLaw,
    build_hypersurface,
    equivariant_shape_data,
    integrate_sigma,
    leviflat_cmc_certify,
    strongly_2hopf_certify,
)
from .hypersurface import classify, shape_data
from .scene import (
    C_MAGNITUDE,
    SceneError,
    _is_finite,
    load_scene,
    mesh_rows,
    patch_from_scene,
    save_scene,
    scene_document,
    write_mesh_csv,
)
from .suites import SUITE_NAMES, report_json, run_suites

# upper bounds on size-like inputs, checked before anything is allocated
MAX_N_STEPS = 10 ** 5        # construct n_steps, per side of the curve
MAX_GRID_POINTS = 10 ** 6    # product of a --grid (construct, classify, sample)
# beyond 4 r from the section origin CH^2 representatives (growing like
# cosh(d/r)) lose the digits that keep repeated Hopf zeros together
MAX_POINT_RADII = 4.0           # construct point, hopf-directions --point


class ConfigError(ValueError):
    def __init__(self, fld, message):
        self.field = fld
        super().__init__(f"config field '{fld}': {message}")


def _number_problem(value):
    """Why a config value is not a usable real number (None when it is)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return "must be a number"
    return None if _is_finite(value) else "must be finite"


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass
class RunConfig:
    action: str = "cp2-torus"
    c: float | None = None
    point: tuple = (0.12, 0.07)
    theta: float = 0.45
    law: str = "cmc"
    eta: float = 1.0
    step: float = 1.6e-3
    n_steps: int = 125
    grid: tuple = (20, 5, 5)
    s_extent: float = 0.15
    out_scene: str | None = None
    out_csv: str | None = None

    def validate(self):
        reals = {"step": [self.step], "eta": [self.eta], "theta": [self.theta],
                 "s_extent": [self.s_extent], "c": [] if self.c is None else [self.c],
                 "point": list(self.point)}
        for key, vals in reals.items():
            for val in vals:
                problem = _number_problem(val)
                if problem:
                    raise ConfigError(key, problem)
        if not _is_int(self.n_steps):
            raise ConfigError("n_steps", "must be an integer")
        for key in ("out_scene", "out_csv"):
            if not isinstance(getattr(self, key), (str, type(None))):
                raise ConfigError(key, "must be a file path")
        if self.action not in LABELS:
            raise ConfigError("action", f"must be one of {LABELS}")
        if self.law not in LAW_KINDS:
            raise ConfigError("law", f"must be one of {LAW_KINDS}")
        if self.step <= 0:
            raise ConfigError("step", "must be positive")
        if self.n_steps <= 4:
            raise ConfigError("n_steps", "must exceed 4")
        if self.n_steps > MAX_N_STEPS:
            raise ConfigError("n_steps", f"must be at most {MAX_N_STEPS}")
        if not 0 < self.s_extent <= math.pi:   # pi: half the torus actions' angle period
            raise ConfigError("s_extent", f"must be positive and at most pi, got {self.s_extent!r}")
        if len(self.grid) != 3 or not all(_is_int(g) and g >= 2 for g in self.grid):
            raise ConfigError("grid", "needs three integer sizes, each at least 2")
        _check_grid_points(self.grid)
        if len(self.point) != 2:
            raise ConfigError("point", "needs two section coordinates")
        _check_scale(self.c, self.point)

    def to_dict(self):
        """The stored config, without the output paths: they say where a scene
        was written, not what it holds."""
        d = asdict(self)
        del d["out_scene"], d["out_csv"]
        d["point"] = list(self.point)
        d["grid"] = [int(g) for g in self.grid]
        return d


def _check_grid_points(shape):
    if math.prod(shape) > MAX_GRID_POINTS:
        raise ConfigError("grid", f"must have at most {MAX_GRID_POINTS} points in all")


def _check_c(c):
    """Bound the curvature c (None: the default |c| = 4)."""
    lo, hi = C_MAGNITUDE
    if c is not None and not lo <= abs(c) <= hi:
        raise ConfigError("c", f"|c| must lie in [{lo:g}, {hi:g}], got {c!r}")


def _check_scale(c, point):
    """Bound the curvature c (None: the default |c| = 4) and a section point."""
    _check_c(c)
    radius, dist = 1.0 if c is None else 2.0 / math.sqrt(abs(c)), math.hypot(*point)
    if dist > MAX_POINT_RADII * radius:
        raise ConfigError("point", f"{list(point)} lies {dist / radius:.3g} model radii "
                                   f"r = 2/sqrt|c| = {radius:.3g} from the section origin; "
                                   f"at most {MAX_POINT_RADII:g} are allowed")


def _merge_config(args) -> RunConfig:
    """Defaults < config file < command-line flags."""
    cfg = RunConfig()
    file_vals = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as f:
                file_vals = json.load(f)
        except UnicodeDecodeError as exc:
            raise ConfigError("config", f"{args.config} is not UTF-8 text ({exc.reason} "
                                        f"at byte {exc.start})")
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError("config", str(exc))
        if not isinstance(file_vals, dict):
            raise ConfigError("config", "must be a JSON object")
    for key, val in file_vals.items():
        if not hasattr(cfg, key):
            raise ConfigError(key, "unknown config key")
        if isinstance(getattr(cfg, key), tuple):
            if not isinstance(val, list):
                raise ConfigError(key, "must be a list")
            val = tuple(val)
        setattr(cfg, key, val)
    for key in (f.name for f in fields(RunConfig)):
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, tuple(val) if isinstance(val, list) else val)
    cfg.validate()
    return cfg


def _cmd_construct(args) -> int:
    cfg = _merge_config(args)
    spec = load_action(cfg.action, cfg.c)
    z0 = spec.section.point(np.asarray(cfg.point, dtype=float))
    f1, f2 = spec.section.tangent_frame(z0)
    w0 = np.cos(cfg.theta) * f1 + np.sin(cfg.theta) * f2
    law = CurveLaw(cfg.law, eta=cfg.eta)
    sigma = integrate_sigma(spec, z0, w0, law, step=cfg.step, n_steps=cfg.n_steps)
    ehs = build_hypersurface(spec, sigma, s_extent=cfg.s_extent)
    cert = strongly_2hopf_certify(ehs, grid_shape=tuple(int(g) for g in cfg.grid))
    extra = {}
    if cfg.law == "cmc":
        extra["cmc"] = leviflat_cmc_certify(ehs, cfg.eta).residuals
    if cfg.law == "levi-flat":
        extra["levi_flat"] = leviflat_cmc_certify(ehs, 0.0).residuals
    if cfg.law in ("geodesic", "austere"):
        rep = classify(ehs.patch, ehs.patch.grid((8, 3, 3), margin=0.05),
                       derivative_subsample=3)
        extra["classification"] = rep.to_dict()
    doc = scene_document(cfg.to_dict(), sigma=sigma, ehs=ehs,
                         certification=cert.to_dict(), residual_tables=extra)
    if cfg.out_scene:
        save_scene(cfg.out_scene, doc)
        print(f"scene -> {cfg.out_scene}")
    if cfg.out_csv:
        write_mesh_csv(cfg.out_csv, mesh_rows(
            equivariant_shape_data(ehs, ehs.patch.grid((12, 4, 4), margin=0.03))))
        print(f"mesh  -> {cfg.out_csv}")
    print(f"construct {cfg.action} law={cfg.law} eta={cfg.eta}: "
          f"certified={'yes' if cert.passed else 'no'}")
    for key, val in sorted(cert.residuals.items()):
        print(f"  {key}: {val}")
    if "classification" in extra:
        flags = {k: extra["classification"][k]
                 for k in ("austere", "levi_flat", "ruled", "mean_curvature")}
        print(f"  classification: {flags}")
    return 0 if cert.passed else 2


def _plain(value):
    if isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, float, np.integer, np.floating)):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return None


def _load_patch_for(args):
    """(patch, meta, ehs) of the --catalog or --scene input; ehs is None for a catalog entry."""
    if getattr(args, "catalog", None):
        _check_c(args.c)
        try:
            entry = get_entry(args.catalog, c=args.c, r=args.r)
        except FloatingPointError as exc:   # its box is an absolute length
            raise ConfigError("c", f"{args.c!r} overflows the {args.catalog} chart: {exc}")
        return entry.patch, {"catalog": entry.name,
                             "parameters": {k: _plain(v) for k, v in entry.parameters.items()
                                            if _plain(v) is not None},
                             "expected": {k: _plain(v) for k, v in entry.expected.items()
                                          if _plain(v) is not None}}, None
    if getattr(args, "scene", None):
        doc = load_scene(args.scene)
        ehs = patch_from_scene(doc)
        return ehs.patch, {"scene": args.scene}, ehs
    raise ConfigError("input", "need --catalog NAME or --scene FILE")


def _grid_shape(args, default):
    """The --grid of classify or sample, else ``default``; bounded before any use."""
    shape = tuple(args.grid) if args.grid else default
    _check_grid_points(shape)
    return shape


def _cmd_classify(args) -> int:
    shape = _grid_shape(args, (6, 4, 4))
    patch, meta, _ = _load_patch_for(args)
    grid = patch.grid(shape, margin=0.05)
    report = classify(patch, grid)
    print(f"classification of {meta}")
    d = report.to_dict()
    for key in ("h", "hopf", "two_hopf", "strongly_two_hopf", "austere",
                "levi_flat", "ruled", "mean_curvature"):
        print(f"  {key:18s} {d[key]}")
    print("  residuals:")
    for key, val in d["residuals"].items():
        print(f"    {key}: {val}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"input": meta, "classification": d}, f, sort_keys=True, indent=1)
        print(f"report -> {args.out}")
    return 0


def _cmd_hopf_directions(args) -> int:
    _check_scale(args.c, args.point)
    spec = load_action(args.action, args.c)
    z0 = spec.section.point(np.asarray(args.point, dtype=float))
    if not spec.is_regular(z0):
        print("error: point is not regular", file=sys.stderr)
        return 1
    zeros = hopf_directions(spec, z0)
    print(f"{len(zeros)} Hopf directions at point {list(args.point)} ({args.action}):")
    for d in zeros:
        print(f"  theta = {d['theta']:.12f}   multiplicity {d['multiplicity']}"
              f"   |Phi| = {d['phi']:.3e}")
    if args.out:
        thetas = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)
        vals = phi_profile(spec, z0, thetas)
        with open(args.out, "w") as f:
            f.write("# hopflab phi profile schema 1\ntheta,phi\n")
            for t, v in zip(thetas, vals):
                f.write(f"{t!r},{v!r}\n")
        print(f"profile -> {args.out}")
    return 0


def _cmd_verify(args) -> int:
    seed = args.seed
    try:
        results = run_suites(args.suite, seed=seed)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    all_pass = True
    lines = []
    for suite in results:
        for chk in suite.checks:
            mark = "PASS" if chk.passed else "FAIL"
            lines.append(f"[{mark}] {suite.name:13s} {chk.name:55s} "
                         f"value={chk.value:.3e} tol={chk.tol:.1e}")
        all_pass &= suite.passed
    print("\n".join(lines))
    n = sum(len(s.checks) for s in results)
    print(f"{'OK' if all_pass else 'FAILED'}: {n} checks in {len(results)} suite(s), seed {seed}")
    if args.out:
        with open(args.out, "w") as f:
            f.write(report_json(results, seed))
        print(f"report -> {args.out}")
    return 0 if all_pass else 2


def _cmd_sample(args) -> int:
    shape = _grid_shape(args, (10, 4, 4))
    patch, meta, ehs = _load_patch_for(args)
    grid = patch.grid(shape, margin=0.03)
    # a scene's patch is a sweep H.sigma: it reads the exact shape data of construct's CSV
    rows = mesh_rows(shape_data(patch, grid) if ehs is None else equivariant_shape_data(ehs, grid))
    write_mesh_csv(args.out, rows)
    print(f"{len(rows)} samples of {meta} -> {args.out}")
    return 0


def _arg_type(convert, ok, requirement):
    """argparse type: convert(text), rejected with one line unless ok(value)."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value
    return parse


_finite_float = _arg_type(float, math.isfinite, "a finite number")
_positive_int = _arg_type(int, lambda n: n >= 1, "a positive integer")
_seed = _arg_type(int, lambda n: n >= 0, "a non-negative integer")


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors print one line and exit with code 1 (not 2).

    Exit code 2 is reserved for certification/verification failures.
    """

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    ap = _Parser(prog="hopflab", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("construct", help="integrate a curve and sweep it by the group")
    pc.add_argument("--config", help="JSON config file (flags override)")
    pc.add_argument("--action", choices=LABELS)
    pc.add_argument("--c", type=float)
    pc.add_argument("--point", type=float, nargs=2)
    pc.add_argument("--theta", type=float)
    pc.add_argument("--law", choices=LAW_KINDS)
    pc.add_argument("--eta", type=float)
    pc.add_argument("--step", type=float)
    pc.add_argument("--n-steps", dest="n_steps", type=int)
    pc.add_argument("--grid", type=int, nargs=3)
    pc.add_argument("--s-extent", dest="s_extent", type=float)
    pc.add_argument("--out-scene", dest="out_scene")
    pc.add_argument("--out-csv", dest="out_csv")
    pc.set_defaults(func=_cmd_construct)

    pl = sub.add_parser("classify", help="classify a scene or catalog patch")
    pl.add_argument("--catalog", choices=CATALOG_NAMES)
    pl.add_argument("--scene")
    pl.add_argument("--c", type=_finite_float)
    pl.add_argument("--r", type=_finite_float, help="radius for sphere/tube entries")
    pl.add_argument("--grid", type=_positive_int, nargs=3)
    pl.add_argument("--out")
    pl.set_defaults(func=_cmd_classify)

    ph = sub.add_parser("hopf-directions", help="zero set of the Phi obstruction")
    ph.add_argument("--action", choices=LABELS, required=True)
    ph.add_argument("--c", type=_finite_float)
    ph.add_argument("--point", type=_finite_float, nargs=2, default=(0.12, 0.07))
    ph.add_argument("--out", help="CSV profile output")
    ph.set_defaults(func=_cmd_hopf_directions)

    pv = sub.add_parser("verify", help="run a named invariant suite")
    pv.add_argument("suite", nargs="?", default="all",
                    help=f"one of {SUITE_NAMES + ('all',)}")
    pv.add_argument("--seed", type=_seed, default=7)
    pv.add_argument("--out", help="JSON report output")
    pv.set_defaults(func=_cmd_verify)

    ps = sub.add_parser("sample", help="export a CSV mesh of samples")
    ps.add_argument("--catalog", choices=CATALOG_NAMES)
    ps.add_argument("--scene")
    ps.add_argument("--c", type=_finite_float)
    ps.add_argument("--r", type=_finite_float)
    ps.add_argument("--grid", type=_positive_int, nargs=3)
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=_cmd_sample)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # an overflow, invalid operation or division by zero is an input the
        # geometry cannot carry: it stops the command like any bad input
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except (ConfigError, SceneError, GeometryError, OSError, FloatingPointError) as exc:
        # OSError: an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
