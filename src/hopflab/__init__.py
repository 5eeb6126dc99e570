"""hopflab: real hypersurfaces of the complex projective and hyperbolic planes.

Construction of strongly 2-Hopf hypersurfaces by sweeping curves in polar
sections with a two-parameter isometry group, plus numeric classification
(Hopf, austere, Levi-flat, ruled, constant mean curvature) and verification
suites for the underlying tensor identities.
"""

from importlib import import_module

from .ambient import GeometryError, SectionChart, SpaceForm

__version__ = "0.1.0"


# the heavier subsystems are imported lazily to keep `import hopflab` light:
# each lazy export, by the submodule that defines it
_LAZY = {
    "load_action": "actions",
    "hopf_directions": "actions",
    "mean_curvature_field": "actions",
    "classify": "hypersurface",
    "levi_form": "hypersurface",
    "HypersurfacePatch": "hypersurface",
    "CurveLaw": "constructor",
    "integrate_sigma": "constructor",
    "build_hypersurface": "constructor",
    "austere_search": "constructor",
    "strongly_2hopf_certify": "constructor",
    "get_entry": "catalog",
    "run_suites": "suites",
}


def __getattr__(name):
    if name in _LAZY:
        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module 'hopflab' has no attribute {name!r}")


__all__ = ["GeometryError", "SectionChart", "SpaceForm", *_LAZY, "__version__"]
