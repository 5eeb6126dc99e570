"""Pure-NumPy kernels: batched 3x3 complex matrix exponentials and a bitwise dedupe.

exp(M) by scaling and squaring (Moler & Van Loan, SIAM Review 2003; Higham,
SIAM J. Matrix Anal. Appl. 2005): M is divided by 2**k until its largest row
1-norm is at most ``_SCALE_LIMIT``, the degree-12 Taylor polynomial of the
scaled matrix A is evaluated, and the result is squared k times.

The polynomial is evaluated by Paterson & Stockmeyer (SIAM J. Comput. 1973):
with A^2, A^3 and A^4 formed once, p = B0 + A^4 (B1 + A^4 B2), where each Bi
is a combination of I, A, A^2 and A^3 (B2 also takes the A^12 term as A^4).
That is 5 matrix products where Horner's rule takes 11.

A stack is held coordinates first, as a contiguous (3, 3, N) array, so one
product of two stacks is three broadcast multiplies summed, each a single
NumPy call over all N matrices; a stacked ``@`` dispatches one tiny product
per matrix. Every step is elementwise in N, so each matrix's result is
independent of the rest of its batch, bit for bit. Pinned against
``scipy.linalg.expm`` in tests/test_kernels.py.
"""

from math import factorial

import numpy as np

_TAYLOR_ORDER = 12
_SCALE_LIMIT = 0.5
_COEFFS = [1.0 / factorial(j) for j in range(_TAYLOR_ORDER + 1)]
_EYE = np.eye(3)[:, :, None]


def _mm(x, y):
    """x @ y for two stacks of 3x3 matrices held as (3, 3, N)."""
    return x[:, :1] * y[0] + x[:, 1:2] * y[1] + x[:, 2:] * y[2]


def _block(c, a, a2, a3):
    """c[0] I + c[1] A + c[2] A^2 + c[3] A^3 on (3, 3, N) stacks."""
    return c[0] * _EYE + c[1] * a + c[2] * a2 + c[3] * a3


def expm3_batch(ms):
    """exp(M) for a stack of 3x3 complex matrices, shape (..., 3, 3).

    Scaling-and-squaring with a fixed-order Taylor polynomial; exact enough
    (~1e-14 relative) for the moderate norms that arise from group sweeps.
    """
    ms = np.asarray(ms, dtype=np.complex128)
    norm = np.abs(ms).sum(axis=-1).max(axis=-1).reshape(-1)
    k = np.zeros(norm.shape, dtype=np.int64)
    big = norm > _SCALE_LIMIT
    k[big] = np.ceil(np.log2(norm[big] / _SCALE_LIMIT)).astype(np.int64)
    a = np.ascontiguousarray(ms.reshape(-1, 3, 3).transpose(1, 2, 0)) / 2.0 ** k
    a2 = _mm(a, a)
    a3 = _mm(a2, a)
    a4 = _mm(a2, a2)
    c = _COEFFS
    b2 = _block(c[8:12], a, a2, a3) + c[12] * a4
    acc = _block(c[0:4], a, a2, a3) + _mm(a4, _block(c[4:8], a, a2, a3) + _mm(a4, b2))
    for step in range(int(k.max(initial=0))):
        acc = np.where(k > step, _mm(acc, acc), acc)
    return np.ascontiguousarray(acc.transpose(2, 0, 1)).reshape(ms.shape)


def distinct(*keys):
    """(first, inverse) of the distinct rows (keys[0][i], keys[1][i], ...) of (N,) floats.

    ``key[first][inverse]`` is ``key``. Rows are compared by their bits (a
    stable ``lexsort`` of the int64 views), so -0.0 and 0.0 stay apart and
    each row keeps the bits of evaluating it alone.
    """
    bits = [np.ascontiguousarray(k, dtype=np.float64).view(np.int64) for k in keys]
    order = np.lexsort(bits[::-1])
    bits = [b[order] for b in bits]
    new = np.ones(len(order), dtype=bool)
    new[1:] = np.any([b[1:] != b[:-1] for b in bits], axis=0)
    first = order[new]
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(new) - 1
    return first, inverse


def group_orbit_apply(g1, g2, s1, s2, z):
    """exp(s1[i]*G1 + s2[i]*G2) @ z[i] for each i.

    g1, g2 : (3, 3) complex generators.
    s1, s2 : (N,) real parameters.
    z      : (N, 3) complex vectors.

    The group element depends on (s1, s2) only, and chart batches repeat
    each pair across many t-samples and stencil offsets: each ``distinct``
    pair is exponentiated once and the results are gathered back, so every
    output row is bit-identical to exponentiating it alone. Nothing is kept
    between calls.
    """
    s1 = np.asarray(s1, dtype=np.float64)
    s2 = np.asarray(s2, dtype=np.float64)
    z = np.asarray(z, dtype=np.complex128)
    first, inverse = distinct(s1, s2)
    ms = s1[first, None, None] * np.asarray(g1) + s2[first, None, None] * np.asarray(g2)
    return np.einsum("nij,nj->ni", expm3_batch(ms)[inverse], z)
