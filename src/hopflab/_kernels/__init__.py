"""L0 kernels: batched 3x3 complex matrix exponentials and a bitwise dedupe (pure NumPy).

``BACKEND`` names the implementation for run records; there is only one.
"""

from .pure import distinct, expm3_batch, group_orbit_apply

BACKEND = "python"
