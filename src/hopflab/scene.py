"""JSON scene documents and CSV mesh export.

Scenes round-trip losslessly: floats are serialized with Python's shortest
round-trip repr, keys are sorted, and no timestamps or environment data are
embedded, so identical runs give byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np

from .actions import LABELS, load_action
from .ambient import GeometryError
from .constructor import CurveLaw, EquivariantHypersurface, SigmaCurve, build_hypersurface
from .hypersurface import TAU_MULT, TAU_PROJ, adapted_frames, shape_data

SCHEMA_VERSION = 1
MESH_COLUMNS = ("t", "s1", "s2", "re0", "im0", "re1", "im1", "re2", "im2",
                "alpha", "beta", "gamma", "a", "b", "residual")


class SceneError(GeometryError):
    """Malformed scene document."""


def scene_document(config: dict, sigma: SigmaCurve | None = None,
                   ehs: EquivariantHypersurface | None = None,
                   classification: dict | None = None,
                   certification: dict | None = None,
                   residual_tables: dict | None = None) -> dict:
    doc = {"schema_version": SCHEMA_VERSION, "config": config}
    if sigma is not None:
        doc["sigma"] = sigma.to_dict()
    if ehs is not None:
        doc["patch"] = dict(_patch_fields(ehs), s_extent=ehs.s_extent)
    if classification is not None:
        doc["classification"] = classification
    if certification is not None:
        doc["certification"] = certification
    if residual_tables is not None:
        doc["residual_tables"] = residual_tables
    return doc


_PATCH_FIELDS = ("box", "orientation", "diff_step", "action", "c")


def _patch_fields(ehs: EquivariantHypersurface) -> dict:
    """The stored patch fields that a rebuild from sigma must reproduce."""
    return {
        "box": [list(b) for b in ehs.patch.box],
        "orientation": ehs.patch.orientation,
        "diff_step": ehs.patch.diff_step,
        "action": ehs.spec.label,
        "c": ehs.space.c,
    }


def dumps_scene(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1)


def save_scene(path, doc: dict):
    with open(path, "w") as f:
        f.write(dumps_scene(doc))
        f.write("\n")


def load_scene(path) -> dict:
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise SceneError(f"cannot read scene {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise SceneError(f"invalid scene JSON at {path}: line {exc.lineno} col {exc.colno}: {exc.msg}")
    if not isinstance(doc, dict) or "schema_version" not in doc:
        raise SceneError(f"{path} is not a scene document (missing schema_version)")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise SceneError(f"unsupported scene schema {doc['schema_version']!r}")
    return doc


_SIGMA_FIELDS = ("action", "c", "law", "step", "truncated", "ts", "zs", "ws", "xis",
                 "gammas", "alphas", "betas", "hopf_a", "hopf_b", "mean_align")


def _require(d, keys, where):
    """Raise SceneError naming the first of ``keys`` missing from ``d``."""
    if not isinstance(d, dict):
        raise SceneError(f"scene field '{where}' must be an object")
    for key in keys:
        if key not in d:
            raise SceneError(f"scene field '{where}.{key}' is missing")


def sigma_from_dict(d: dict) -> SigmaCurve:
    _require(d, _SIGMA_FIELDS, "sigma")
    _require(d["law"], ("kind", "eta"), "sigma.law")
    if d["action"] not in LABELS:
        raise SceneError(f"scene field 'sigma.action': unknown action label {d['action']!r}")
    spec = load_action(d["action"], d["c"])

    def arr(key):
        return np.array([[complex(re, im) for re, im in row] for row in d[key]])

    return SigmaCurve(
        spec=spec,
        law=CurveLaw(d["law"]["kind"], d["law"]["eta"]),
        ts=np.asarray(d["ts"], dtype=float),
        zs=arr("zs"), ws=arr("ws"), xis=arr("xis"),
        gammas=np.asarray(d["gammas"], dtype=float),
        alphas=np.asarray(d["alphas"], dtype=float),
        betas=np.asarray(d["betas"], dtype=float),
        hopf_a=np.asarray(d["hopf_a"], dtype=float),
        hopf_b=np.asarray(d["hopf_b"], dtype=float),
        mean_align=np.asarray(d["mean_align"], dtype=float),
        step=float(d["step"]),
        truncated=bool(d["truncated"]),
        truncation_reason=d.get("truncation_reason", ""),
    )


def patch_from_scene(doc: dict) -> EquivariantHypersurface:
    """Rebuild the swept patch of a scene (deterministic re-sweep)."""
    if "sigma" not in doc or "patch" not in doc:
        raise SceneError("scene has no construction to rebuild")
    sigma = sigma_from_dict(doc["sigma"])
    meta = doc["patch"]
    _require(meta, ("s_extent",) + _PATCH_FIELDS, "patch")
    ehs = build_hypersurface(sigma.spec, sigma, s_extent=float(meta["s_extent"]))
    # the rebuild is deterministic, so an unedited scene matches exactly
    rebuilt = _patch_fields(ehs)
    for key in _PATCH_FIELDS:
        if meta[key] != rebuilt[key]:
            raise SceneError(f"scene field 'patch.{key}': stored {meta[key]!r} "
                             f"does not match the rebuilt {rebuilt[key]!r}")
    return ehs


def mesh_rows(patch, params_grid, tau_proj=TAU_PROJ, tau_mult=TAU_MULT):
    """Per-sample rows for the CSV mesh export.

    alpha, beta are the two J xi-projected principal curvatures and gamma the
    remaining one when h = 2 (frame convention); otherwise the sorted
    spectrum is reported with a = b = nan. The residual column carries the
    worst adapted-frame identity defect (nan when no frame exists).
    """
    params_grid = np.atleast_2d(np.asarray(params_grid, dtype=float))
    sd = shape_data(patch, params_grid)
    af = adapted_frames(sd, tau_proj, tau_mult)
    spectrum = np.where(af.mask[:, None], np.stack([af.alpha, af.beta, af.gamma], axis=1),
                        sd.eigvals)
    z = sd.frames.z
    reim = np.stack([z.real, z.imag], axis=-1).reshape(len(z), 6)   # re0, im0, ..., im2
    return np.column_stack([params_grid, reim, spectrum, af.a, af.b,
                            af.worst_residual]).tolist()


def write_mesh_csv(path, rows):
    with open(path, "w") as f:
        f.write(f"# hopflab mesh schema {SCHEMA_VERSION}\n")
        f.write(",".join(MESH_COLUMNS) + "\n")
        for row in rows:
            f.write(",".join(repr(float(x)) for x in row) + "\n")
