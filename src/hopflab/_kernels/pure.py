"""Pure-NumPy kernels: batched 3x3 complex matrix exponentials.

Taylor scaling and squaring (Moler & Van Loan, SIAM Review 2003), pinned
against ``scipy.linalg.expm`` in tests/test_kernels.py.
"""

import numpy as np

_TAYLOR_ORDER = 12
_SCALE_LIMIT = 0.5
_IDENTITY = np.eye(3, dtype=np.complex128)
# one (s1, s2) float64 pair as a single opaque 16-byte value
_PAIR_KEY = np.dtype((np.void, 16))


def expm3_batch(ms):
    """exp(M) for a stack of 3x3 complex matrices, shape (..., 3, 3).

    Scaling-and-squaring with a fixed-order Taylor polynomial; exact enough
    (~1e-14 relative) for the moderate norms that arise from group sweeps.
    """
    ms = np.asarray(ms, dtype=np.complex128)
    norm = np.abs(ms).sum(axis=-1).max(axis=-1)
    k = np.zeros(norm.shape, dtype=np.int64)
    big = norm > _SCALE_LIMIT
    k[big] = np.ceil(np.log2(norm[big] / _SCALE_LIMIT)).astype(np.int64)
    a = ms / (2.0 ** k)[..., None, None]
    acc = _IDENTITY + a
    term = a
    for j in range(2, _TAYLOR_ORDER + 1):
        term = term @ a / j
        acc = acc + term
    kmax = int(k.max()) if k.size else 0
    for step in range(kmax):
        mask = k > step
        if mask.all():
            acc = acc @ acc
        else:
            acc[mask] = acc[mask] @ acc[mask]
    return acc


def group_orbit_apply(g1, g2, s1, s2, z):
    """exp(s1[i]*G1 + s2[i]*G2) @ z[i] for each i.

    g1, g2 : (3, 3) complex generators.
    s1, s2 : (N,) real parameters.
    z      : (N, 3) complex vectors.

    The group element depends on (s1, s2) only, and chart batches repeat
    each pair across many t-samples and stencil offsets, so each distinct
    pair is exponentiated once and the results are gathered back. Pairs are
    keyed by their raw bytes rather than by value: ``-0.0`` and ``0.0`` stay
    apart, so every output row is bit-identical to exponentiating it alone.
    Nothing is kept between calls.
    """
    s1 = np.asarray(s1, dtype=np.float64)
    s2 = np.asarray(s2, dtype=np.float64)
    z = np.asarray(z, dtype=np.complex128)
    keys = np.stack([s1, s2], axis=-1).view(_PAIR_KEY)[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    ms = s1[first, None, None] * np.asarray(g1) + s2[first, None, None] * np.asarray(g2)
    return np.einsum("nij,nj->ni", expm3_batch(ms)[inverse], z)
