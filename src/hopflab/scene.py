"""JSON scene documents and CSV mesh export.

Scenes are deterministic: keys are sorted, numbers outside a curve's rows
are serialized with Python's shortest round-trip repr, and no timestamps,
output paths or environment data are embedded, so identical runs give
byte-identical files wherever they are written. A curve's rows are real
frame coordinates x; format 4 stores D x (``from_frame``) as the base64 of
its little-endian bytes, and the loader's ``frame_coords`` reads x back bit
for bit, signed zeros included. Its orbit columns are not stored: the loader
recomputes them from its rows (``curve_from_rows``). Format 3 stored the
rows as lists of floats; formats 1 and 2 also stored the orbit columns, and
format 1 differs in indentation and its ``config`` block. Nothing reads
those columns back, and all three formats still load.
"""

from __future__ import annotations

import base64
import json
import math
import numbers

import numpy as np

from .actions import LABELS, load_action
from .ambient import NORMALIZATION_TOL, GeometryError
from .constructor import (
    LAW_KINDS,
    CurveLaw,
    EquivariantHypersurface,
    SigmaCurve,
    build_hypersurface,
    curve_from_rows,
)
from .hypersurface import adapted_frames

SCHEMA_VERSION = 4
MESH_COLUMNS = ("t", "s1", "s2", "re0", "im0", "re1", "im1", "re2", "im2",
                "alpha", "beta", "gamma", "a", "b", "residual")
# |c| within 100 decades of 1 keeps the powers of the model radius r = 2/sqrt|c|
# finite; it bounds construct c, hopf-directions --c and a scene's sigma.c
C_MAGNITUDE = (1e-100, 1e100)


class SceneError(GeometryError):
    """Malformed scene document."""


def scene_document(config: dict, sigma: SigmaCurve | None = None,
                   ehs: EquivariantHypersurface | None = None,
                   certification: dict | None = None,
                   residual_tables: dict | None = None) -> dict:
    doc = {"schema_version": SCHEMA_VERSION, "config": config}
    if sigma is not None:
        doc["sigma"] = sigma_to_dict(sigma)
    if ehs is not None:
        doc["patch"] = dict(_patch_fields(ehs), s_extent=ehs.s_extent)
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
    # no indent: json then uses its C encoder
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def save_scene(path, doc: dict):
    with open(path, "w") as f:
        f.write(dumps_scene(doc))
        f.write("\n")


def load_scene(path) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:
        raise SceneError(f"cannot read scene {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise SceneError(f"invalid scene JSON at {path}: not UTF-8 text ({exc.reason} "
                         f"at byte {exc.start})")
    except json.JSONDecodeError as exc:
        raise SceneError(f"invalid scene JSON at {path}: line {exc.lineno} col {exc.colno}: {exc.msg}")
    if not isinstance(doc, dict) or "schema_version" not in doc:
        raise SceneError(f"{path} is not a scene document (missing schema_version)")
    version = doc["schema_version"]
    # type() rather than ==, which would take true and 1.0 for 1
    if type(version) is not int or not 1 <= version <= SCHEMA_VERSION:
        raise SceneError(f"unsupported scene schema {version!r}")
    return doc


_SIGMA_FIELDS = ("action", "c", "law", "step", "truncation_reason", "ts", "zs", "ws", "xis")
# a curve's arrays in format 4: the dtype of their stored bytes and their
# shape after the row count
_ARRAYS = {"ts": ("<f8", []), "zs": ("<c16", [3]), "ws": ("<c16", [3]), "xis": ("<c16", [3])}
_ARRAY_KEYS = ("b64", "dtype", "shape")


def sigma_to_dict(sigma: SigmaCurve) -> dict:
    """The stored fields of a curve, _SIGMA_FIELDS; the loader recomputes the rest."""
    def array(key):
        arr = getattr(sigma, key)
        dtype = _ARRAYS[key][0]
        raw = np.asarray(arr, dtype).tobytes()
        return {"b64": base64.b64encode(raw).decode("ascii"),
                "dtype": dtype, "shape": list(arr.shape)}

    return {
        "action": sigma.spec.label,
        "c": sigma.spec.space.c,
        "law": {"kind": sigma.law.kind, "eta": sigma.law.eta},
        "step": float(sigma.step),
        "truncation_reason": sigma.truncation_reason,
        **{key: array(key) for key in _ARRAYS},
    }


def _require(d, keys, where):
    """Raise SceneError naming the first of ``keys`` missing from ``d``."""
    if not isinstance(d, dict):
        raise SceneError(f"scene field '{where}' must be an object")
    for key in keys:
        if key not in d:
            raise SceneError(f"scene field '{where}.{key}' is missing")


def _is_finite(value) -> bool:
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:   # an integer beyond the float range
        return False


def _finite(value, where) -> float:
    """value as a float; SceneError naming the field unless it is a finite number."""
    if not _is_finite(value):
        raise SceneError(f"scene field '{where}' must be a finite number")
    return float(value)


def _array_rows(d, key, n):
    """Format 4: the array ``d[key]`` of ``n`` rows (``ts``: n is None), as a
    writable native-order array; its byte count is checked before any allocation."""
    where = f"scene field 'sigma.{key}'"
    dtype, row = _ARRAYS[key]
    obj = d[key]
    if not (isinstance(obj, dict) and sorted(obj) == list(_ARRAY_KEYS)):
        raise SceneError(f"{where} must be an object with exactly the keys "
                         f"{', '.join(_ARRAY_KEYS)}")
    if obj["dtype"] != dtype:
        raise SceneError(f"{where} must be of dtype {dtype!r}, not {obj['dtype']!r}")
    shape = obj["shape"]
    # type() rather than isinstance, which would take true for 1
    if not (isinstance(shape, list) and all(type(k) is int for k in shape)
            and shape[1:] == row and len(shape) == 1 + len(row)
            and (shape[0] >= 1 if n is None else shape[0] == n)):
        want = "[n] with n >= 1" if n is None else f"{[n, *row]}, the rows of sigma.ts"
        raise SceneError(f"{where} must be of shape {want}, not {json.dumps(shape)}")
    if not isinstance(obj["b64"], str):
        raise SceneError(f"{where} must be base64 text in its b64 entry, not "
                         f"{type(obj['b64']).__name__}")
    try:
        # validate: only the base64 alphabet, with padding only at the end
        raw = base64.b64decode(obj["b64"], validate=True)
    except ValueError as exc:   # binascii.Error, or a non-ASCII string
        raise SceneError(f"{where} must be base64 text in its b64 entry ({exc})") from None
    size = math.prod(shape) * np.dtype(dtype).itemsize
    if len(raw) != size:
        raise SceneError(f"{where} must be {size} bytes, its shape {shape} of {dtype!r}; "
                         f"b64 holds {len(raw)}")
    arr = np.frombuffer(raw, dtype).astype(np.dtype(dtype).newbyteorder("=")).reshape(shape)
    finite = np.isfinite(arr).reshape(len(arr), -1).all(axis=1)
    if not finite.all():
        raise SceneError(f"{where} must be finite numbers; row {np.flatnonzero(~finite)[0]} "
                         f"is not")
    return arr


def _list_rows(d, key, n):
    """Formats 1-3: the list ``d[key]`` of ``n`` rows (``ts``: n is None) as an array."""
    rows = d[key]
    if n is None:
        if not (isinstance(rows, list) and rows and all(map(_is_finite, rows))):
            raise SceneError("scene field 'sigma.ts' must be a non-empty list of finite numbers")
        return np.array(rows, dtype=float)
    if not (isinstance(rows, list) and len(rows) == n and all(
            isinstance(row, list) and len(row) == 3 and all(
                isinstance(pair, list) and len(pair) == 2 and all(map(_is_finite, pair))
                for pair in row) for row in rows)):
        raise SceneError(f"scene field 'sigma.{key}' must be {n} rows of 3 finite "
                         f"[re, im] pairs")
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def sigma_from_dict(d: dict, schema_version: int) -> SigmaCurve:
    """The curve of a scene's ``sigma``, stored in format ``schema_version``."""
    _require(d, _SIGMA_FIELDS, "sigma")
    if schema_version >= 3:
        # formats 1 and 2 stored the orbit columns and a truncated flag; from
        # format 3 on such a key would be ignored, so it is rejected instead
        extra = sorted(set(d) - set(_SIGMA_FIELDS))
        if extra:
            raise SceneError(f"scene field 'sigma.{extra[0]}' must be absent: a "
                             f"format-{schema_version} sigma holds only "
                             f"{', '.join(_SIGMA_FIELDS)}")
    _require(d["law"], ("kind", "eta"), "sigma.law")
    if d["action"] not in LABELS:
        raise SceneError(f"scene field 'sigma.action': unknown action label {d['action']!r}")
    if d["law"]["kind"] not in LAW_KINDS:
        raise SceneError(f"scene field 'sigma.law.kind' must be one of {', '.join(LAW_KINDS)}")
    if not isinstance(d["truncation_reason"], str):
        raise SceneError("scene field 'sigma.truncation_reason' must be a string")
    c = _finite(d["c"], "sigma.c")
    lo, hi = C_MAGNITUDE
    if not lo <= abs(c) <= hi:
        raise SceneError(f"scene field 'sigma.c': |c| must lie in [{lo:g}, {hi:g}], got {c!r}")
    step = _finite(d["step"], "sigma.step")
    if not step > 0:
        raise SceneError("scene field 'sigma.step' must be a positive number")
    spec = load_action(d["action"], c)
    # only this decode depends on the format; every check after it is shared
    decode = _array_rows if schema_version >= 4 else _list_rows
    ts = decode(d, "ts", None)
    n = len(ts)
    # the step's own grid, as every launch writes it: SigmaCurve.swept spaces
    # its knots by ts[1] - ts[0], nearest_row, chart_tilt and curve_defect by the step
    with np.errstate(all="ignore"):
        grid = (np.rint(ts[0] / step) + np.arange(n)) * step
    if not np.array_equal(ts, grid):
        raise SceneError("scene field 'sigma.ts' must be k * step for consecutive integers k")

    def frame_rows(key):
        arr = decode(d, key, n)
        try:
            return spec.frame_coords(arr)
        except GeometryError:
            raise SceneError(f"scene field 'sigma.{key}' must be rows in the section's "
                             f"real frame D.R^3") from None

    # the curve's real rows: the frame coordinates x of the stored D x
    xs, us, vs = (frame_rows(key) for key in ("zs", "ws", "xis"))
    # the orbit columns are recomputed at every row: a z off the normalized
    # regular set would fail there, and a w or xi not a unit vector horizontal
    # at z would load or overflow, with no field named. w and xi are held
    # relative to the rows' sizes, their rounding scale far out in CH^2.
    # Under errstate a huge row's inf or NaN reads as failing instead of raising.
    sp, size = spec.space, lambda rows: np.linalg.norm(rows, axis=-1)
    with np.errstate(all="ignore"):
        unit = [np.abs(sp.g(w, w) - 1.0) / size(w) ** 2 for w in (us, vs)]
        off = [np.abs(sp.herm(a, b)) / (size(a) * size(b))
               for a, b in ((xs, us), (xs, vs), (us, vs))]
        usable = {"zs": ((np.abs(sp.herm(xs, xs) / sp.kappa - 1.0) <= NORMALIZATION_TOL)
                         & (spec.gram_det(xs) > spec.gram_floor())),
                  "ws": np.maximum(unit[0], off[0]) <= NORMALIZATION_TOL,
                  "xis": np.maximum.reduce([unit[1], *off[1:]]) <= NORMALIZATION_TOL}
    claims = {"zs": "regular points with <z,z> = kappa", "ws": "unit vectors horizontal at zs",
              "xis": "unit vectors horizontal at zs and orthogonal to ws"}
    for key, ok in usable.items():
        if not ok.all():
            raise SceneError(f"scene field 'sigma.{key}' must be {claims[key]}; "
                             f"row {np.flatnonzero(~ok)[0]} is not")
    law = CurveLaw(d["law"]["kind"], _finite(d["law"]["eta"], "sigma.law.eta"))
    return curve_from_rows(spec, law, step, grid, xs, us, vs, d["truncation_reason"])


def patch_from_scene(doc: dict) -> EquivariantHypersurface:
    """Rebuild the swept patch of a scene (deterministic re-sweep)."""
    if "sigma" not in doc or "patch" not in doc:
        raise SceneError("scene has no construction to rebuild")
    sigma = sigma_from_dict(doc["sigma"], doc["schema_version"])
    meta = doc["patch"]
    _require(meta, ("s_extent",) + _PATCH_FIELDS, "patch")
    s_extent = _finite(meta["s_extent"], "patch.s_extent")
    if not 0 < s_extent <= math.pi:   # construct's bound on its s_extent
        raise SceneError(f"scene field 'patch.s_extent' must be positive and at most pi, "
                         f"got {s_extent!r}")
    ehs = build_hypersurface(sigma.spec, sigma, s_extent=s_extent)
    # the rebuild is deterministic, so an unedited scene matches exactly
    rebuilt = _patch_fields(ehs)
    for key in _PATCH_FIELDS:
        if meta[key] != rebuilt[key]:
            raise SceneError(f"scene field 'patch.{key}': stored {meta[key]!r} "
                             f"does not match the rebuilt {rebuilt[key]!r}")
    return ehs


def mesh_rows(sd):
    """Per-sample rows for the CSV mesh export, from the ShapeData sd of the samples.

    alpha, beta are the two J xi-projected principal curvatures and gamma the
    remaining one when h = 2 (frame convention); otherwise the sorted
    spectrum is reported with a = b = nan. The residual column carries the
    worst adapted-frame identity defect (nan when no frame exists).
    """
    af = adapted_frames(sd)
    spectrum = np.where(af.mask[:, None], np.stack([af.alpha, af.beta, af.gamma], axis=1),
                        sd.eigvals)
    z = sd.frames.z
    reim = np.stack([z.real, z.imag], axis=-1).reshape(len(z), 6)   # re0, im0, ..., im2
    return np.column_stack([sd.frames.params, reim, spectrum, af.a, af.b,
                            af.worst_residual]).tolist()


def write_mesh_csv(path, rows):
    with open(path, "w") as f:
        f.write("# hopflab mesh schema 1\n")
        f.write(",".join(MESH_COLUMNS) + "\n")
        for row in rows:
            f.write(",".join(map(repr, row)) + "\n")
