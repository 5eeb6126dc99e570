"""L0 kernels: batched 3x3 complex matrix exponentials (pure NumPy).

``BACKEND`` names the implementation for run records; there is only one.
"""

from .pure import expm3_batch, group_orbit_apply

BACKEND = "python"
