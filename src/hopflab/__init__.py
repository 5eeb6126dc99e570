"""hopflab: real hypersurfaces of the complex projective and hyperbolic planes.

Construction of strongly 2-Hopf hypersurfaces by sweeping curves in polar
sections with a two-parameter isometry group, plus numeric classification
(Hopf, austere, Levi-flat, ruled, constant mean curvature) and verification
suites for the underlying tensor identities.
"""

from .ambient import GeometryError, SectionChart, SpaceForm

__version__ = "0.1.0"


def __getattr__(name):
    # heavier subsystems are imported lazily to keep `import hopflab` light
    if name in ("load_action", "hopf_directions", "mean_curvature_field"):
        from . import actions

        return getattr(actions, name)
    if name in ("classify", "levi_form", "HypersurfacePatch"):
        from . import hypersurface

        return getattr(hypersurface, name)
    if name in ("CurveLaw", "integrate_sigma", "build_hypersurface",
                "austere_search", "strongly_2hopf_certify"):
        from . import constructor

        return getattr(constructor, name)
    if name == "get_entry":
        from . import catalog

        return catalog.get_entry
    if name == "run_suites":
        from . import suites

        return suites.run_suites
    raise AttributeError(f"module 'hopflab' has no attribute {name!r}")


__all__ = [
    "GeometryError",
    "SectionChart",
    "SpaceForm",
    "load_action",
    "classify",
    "CurveLaw",
    "integrate_sigma",
    "build_hypersurface",
    "austere_search",
    "get_entry",
    "run_suites",
    "__version__",
]
