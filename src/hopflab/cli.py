"""Command-line front end.

Subcommands: construct, classify, hopf-directions, verify, sample.
Configuration comes from flags, optionally merged over a JSON config file
(flags win); the seed falls back to the HOPFLAB_SEED environment variable.
Exit codes: 0 success/pass, 1 validation error, 2 certification/verification
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .actions import LABELS, hopf_directions, load_action
from .ambient import AmbientPoint, GeometryError
from .catalog import CATALOG_NAMES, get_entry
from .constructor import (
    CurveLaw,
    build_hypersurface,
    integrate_sigma,
    leviflat_cmc_certify,
    strongly_2hopf_certify,
)
from .hypersurface import classify
from .scene import (
    SceneError,
    load_scene,
    mesh_rows,
    patch_from_scene,
    save_scene,
    scene_document,
    write_mesh_csv,
)
from .suites import SUITE_NAMES, run_suites

LAW_KINDS = ("geodesic", "cmc", "levi-flat", "austere")


class ConfigError(ValueError):
    def __init__(self, fld, message):
        self.field = fld
        super().__init__(f"config field '{fld}': {message}")


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except TypeError:
        return False


@dataclass
class RunConfig:
    action: str = "cp2-torus"
    c: float | None = None
    point: tuple = (0.12, 0.07)
    theta: float = 0.45
    law: str = "cmc"
    eta: float = 1.0
    step: float = 1e-3
    n_steps: int = 200
    grid: tuple = (20, 5, 5)
    s_extent: float = 0.15
    tolerances: dict = field(default_factory=dict)
    out_scene: str | None = None
    out_csv: str | None = None
    seed: int = 7

    def validate(self):
        numbers = {"step": [self.step], "eta": [self.eta], "theta": [self.theta],
                   "s_extent": [self.s_extent], "c": [] if self.c is None else [self.c],
                   "point": list(self.point)}
        for key, vals in numbers.items():
            if not all(_finite(v) for v in vals):
                raise ConfigError(key, "must be finite")
        if self.action not in LABELS:
            raise ConfigError("action", f"must be one of {LABELS}")
        if self.law not in LAW_KINDS:
            raise ConfigError("law", f"must be one of {LAW_KINDS}")
        if self.step <= 0:
            raise ConfigError("step", "must be positive")
        if self.n_steps <= 4:
            raise ConfigError("n_steps", "must exceed 4")
        if self.s_extent <= 0:
            raise ConfigError("s_extent", "must be positive")
        if len(self.grid) != 3 or any(int(g) < 2 for g in self.grid):
            raise ConfigError("grid", "needs three sizes, each at least 2")
        if len(self.point) != 2:
            raise ConfigError("point", "needs two section coordinates")
        for key, val in self.tolerances.items():
            if not val > 0:
                raise ConfigError("tolerances", f"{key} must be positive")

    def to_dict(self):
        d = asdict(self)
        d["point"] = list(self.point)
        d["grid"] = [int(g) for g in self.grid]
        return d


def _merge_config(args) -> RunConfig:
    """Defaults < config file < command-line flags."""
    cfg = RunConfig()
    file_vals = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as f:
                file_vals = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError("config", str(exc))
    for key, val in file_vals.items():
        if not hasattr(cfg, key):
            raise ConfigError(key, "unknown config key")
        setattr(cfg, key, tuple(val) if isinstance(getattr(cfg, key), tuple) else val)
    for key in ("action", "c", "point", "theta", "law", "eta", "step", "n_steps",
                "grid", "s_extent", "out_scene", "out_csv", "seed"):
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, tuple(val) if isinstance(val, list) else val)
    if getattr(args, "seed", None) is None and "seed" not in file_vals:
        cfg.seed = int(os.environ.get("HOPFLAB_SEED", cfg.seed))
    cfg.validate()
    return cfg


def _cmd_construct(args) -> int:
    cfg = _merge_config(args)
    spec = load_action(cfg.action, cfg.c)
    sp = spec.space
    z0 = spec.section.point(np.asarray(cfg.point, dtype=float))
    if not spec.is_regular(z0):
        print("error: initial point is not regular", file=sys.stderr)
        return 1
    f1, f2 = spec.section.tangent_frame(z0)
    w0 = np.cos(cfg.theta) * f1 + np.sin(cfg.theta) * f2
    law = CurveLaw(cfg.law, eta=cfg.eta)
    sigma = integrate_sigma(spec, AmbientPoint(sp, z0), w0, law,
                            step=cfg.step, n_steps=cfg.n_steps)
    ehs = build_hypersurface(spec, sigma, s_extent=cfg.s_extent)
    cert = strongly_2hopf_certify(ehs, tol=cfg.tolerances or None,
                                  grid_shape=tuple(int(g) for g in cfg.grid))
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
        write_mesh_csv(cfg.out_csv, mesh_rows(ehs.patch, ehs.patch.grid((12, 4, 4), margin=0.03)))
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
    if getattr(args, "catalog", None):
        params = {}
        if getattr(args, "r", None) is not None:
            params["r"] = args.r
        entry = get_entry(args.catalog, c=getattr(args, "c", None), **params)
        return entry.patch, {"catalog": entry.name,
                             "parameters": {k: _plain(v) for k, v in entry.parameters.items()
                                            if _plain(v) is not None},
                             "expected": {k: _plain(v) for k, v in entry.expected.items()
                                          if _plain(v) is not None}}
    if getattr(args, "scene", None):
        doc = load_scene(args.scene)
        ehs = patch_from_scene(doc)
        return ehs.patch, {"scene": args.scene}
    raise ConfigError("input", "need --catalog NAME or --scene FILE")


def _cmd_classify(args) -> int:
    patch, meta = _load_patch_for(args)
    shape = tuple(args.grid) if args.grid else (6, 4, 4)
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
    spec = load_action(args.action, args.c)
    z0 = spec.section.point(np.asarray(args.point, dtype=float))
    if not spec.is_regular(z0):
        print("error: point is not regular", file=sys.stderr)
        return 1
    p0 = AmbientPoint(spec.space, z0)
    zeros = hopf_directions(spec, p0, n_samples=args.samples)
    print(f"{len(zeros)} Hopf directions at point {list(args.point)} ({args.action}):")
    for d in zeros:
        print(f"  theta = {d['theta']:.12f}   |Phi| = {d['phi']:.3e}")
    if args.out:
        from .actions import phi_profile

        thetas = np.linspace(0.0, 2 * np.pi, args.samples, endpoint=False)
        vals = phi_profile(spec, z0, thetas)
        with open(args.out, "w") as f:
            f.write("# hopflab phi profile schema 1\ntheta,phi\n")
            for t, v in zip(thetas, vals):
                f.write(f"{t!r},{v!r}\n")
        print(f"profile -> {args.out}")
    return 0


def _cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else int(os.environ.get("HOPFLAB_SEED", 7))
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
        doc = {"schema_version": 1, "seed": seed,
               "suites": [s.to_dict() for s in results]}
        with open(args.out, "w") as f:
            json.dump(doc, f, sort_keys=True, indent=1)
            f.write("\n")
        print(f"report -> {args.out}")
    return 0 if all_pass else 2


def _cmd_sample(args) -> int:
    patch, meta = _load_patch_for(args)
    shape = tuple(args.grid) if args.grid else (10, 4, 4)
    rows = mesh_rows(patch, patch.grid(shape, margin=0.03))
    write_mesh_csv(args.out, rows)
    print(f"{len(rows)} samples of {meta} -> {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1 (not 2).

    Exit code 2 is reserved for certification/verification failures.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
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
    pc.add_argument("--seed", type=int)
    pc.set_defaults(func=_cmd_construct)

    pl = sub.add_parser("classify", help="classify a scene or catalog patch")
    pl.add_argument("--catalog", choices=CATALOG_NAMES)
    pl.add_argument("--scene")
    pl.add_argument("--c", type=float)
    pl.add_argument("--r", type=float, help="radius for sphere/tube entries")
    pl.add_argument("--grid", type=int, nargs=3)
    pl.add_argument("--out")
    pl.set_defaults(func=_cmd_classify)

    ph = sub.add_parser("hopf-directions", help="zero set of the Phi obstruction")
    ph.add_argument("--action", choices=LABELS, required=True)
    ph.add_argument("--c", type=float)
    ph.add_argument("--point", type=float, nargs=2, default=(0.12, 0.07))
    ph.add_argument("--samples", type=int, default=720)
    ph.add_argument("--out", help="CSV profile output")
    ph.set_defaults(func=_cmd_hopf_directions)

    pv = sub.add_parser("verify", help="run a named invariant suite")
    pv.add_argument("suite", nargs="?", default="all",
                    help=f"one of {SUITE_NAMES + ('all',)}")
    pv.add_argument("--seed", type=int)
    pv.add_argument("--out", help="JSON report output")
    pv.set_defaults(func=_cmd_verify)

    ps = sub.add_parser("sample", help="export a CSV mesh of samples")
    ps.add_argument("--catalog", choices=CATALOG_NAMES)
    ps.add_argument("--scene")
    ps.add_argument("--c", type=float)
    ps.add_argument("--r", type=float)
    ps.add_argument("--grid", type=int, nargs=3)
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=_cmd_sample)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SceneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
