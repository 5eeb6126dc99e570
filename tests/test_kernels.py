import numpy as np
import pytest
import scipy.linalg as sla

from hopflab._kernels import expm3_batch, group_orbit_apply, pure
from hopflab.actions import LABELS, load_action
from oracles import pointwise_group_orbit_apply

_G1 = 1j * np.diag([1.0, 1.0, -2.0])
_G2 = 1j * np.array([[1, -1, 0], [1, -1, 0], [0, 0, 0]], dtype=complex)


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_expm3_matches_scipy(rng):
    for _ in range(20):
        m = _complex_normal(rng, (3, 3))
        assert np.abs(expm3_batch(m[None])[0] - sla.expm(m)).max() < 1e-12


def test_expm3_nilpotent_exact():
    # 2-step nilpotent: exp(N) = I + N + N^2/2 exactly
    n = np.array([[1, -1, 0], [1, -1, 0], [0, 0, 0]], dtype=complex)
    e = expm3_batch((1j * n)[None])[0]
    expected = np.eye(3) + 1j * n + (1j * n) @ (1j * n) / 2
    assert np.abs(e - expected).max() < 1e-15


def test_expm3_batch_consistent(rng):
    # rows that take 0, 1 and several squarings: each row is bit-identical
    # to exponentiating it alone, wherever it sits in the batch
    norms = np.geomspace(0.05, 40.0, 17)     # 0.05 to 0.5: none; 40: 7 squarings
    base = _complex_normal(rng, (17, 3, 3))
    ms = base * (norms / np.abs(base).sum(axis=-1).max(axis=-1))[:, None, None]
    assert np.count_nonzero(norms <= pure._SCALE_LIMIT) > 1
    batch = expm3_batch(ms)
    for i in range(17):
        assert np.array_equal(batch[i], expm3_batch(ms[i:i + 1])[0])
    assert np.array_equal(batch[5:12], expm3_batch(ms[5:12]))
    assert np.array_equal(batch[::-1], expm3_batch(ms[::-1]))


def _algebra_grid(family):
    """Matrices of one group family: an action's s1 G1 + s2 G2 over [-1.5, 1.5]^2,
    or the Iwasawa nilpotent algebra of catalog.horosphere's chart over [-0.5, 0.5]^3."""
    if family == "horosphere":
        gens = np.array([[[0, 0, 1], [0, 0, 1], [1, -1, 0]],
                         [[0, 0, -1j], [0, 0, -1j], [1j, -1j, 0]],
                         1j * np.array([[1, -1, 0], [1, -1, 0], [0, 0, 0]])], dtype=complex)
        axis = np.linspace(-0.5, 0.5, 9)
    else:
        gens = load_action(family).generators
        axis = np.linspace(-1.5, 1.5, 13)
    coords = np.stack(np.meshgrid(*[axis] * len(gens)), axis=-1).reshape(-1, len(gens))
    return np.einsum("nk,kij->nij", coords, gens)


@pytest.mark.parametrize("family", LABELS + ("horosphere",))
def test_expm3_batch_matches_scipy_on_group_families(family):
    ms = _algebra_grid(family)
    ref = sla.expm(ms)
    err = np.abs(expm3_batch(ms) - ref).max(axis=(-2, -1)) / np.abs(ref).max(axis=(-2, -1))
    assert err.max() < 1e-13


def test_expm3_batch_two_leading_axes(rng):
    ms = _complex_normal(rng, (2, 5, 3, 3))
    out = expm3_batch(ms)
    assert out.shape == (2, 5, 3, 3)
    assert np.abs(out - sla.expm(ms)).max() < 1e-12


def test_expm3_batch_mixed_norms_masked_squaring(rng):
    # rows below the 0.5 scaling limit take no squarings, the others take
    # different counts, so the squaring loop selects per matrix
    base = _complex_normal(rng, (6, 3, 3))
    base /= np.abs(base).sum(axis=-1).max(axis=-1)[:, None, None]
    ms = base * np.array([0.1, 0.3, 0.7, 1.5, 3.0, 6.0])[:, None, None]
    assert np.abs(expm3_batch(ms) - sla.expm(ms)).max() < 1e-12


def test_expm3_batch_empty_stack():
    ms = np.zeros((0, 3, 3), dtype=complex)
    out = expm3_batch(ms)
    assert out.dtype == np.complex128
    assert np.array_equal(out, sla.expm(ms))


def test_group_orbit_apply_group_law(rng):
    # commuting generators: applying (s, 0) then (0, t) equals (s, t)
    g1, g2 = _G1, _G2
    z = _complex_normal(rng, (5, 3))
    s = rng.uniform(-1, 1, 5)
    t = rng.uniform(-1, 1, 5)
    once = group_orbit_apply(g1, g2, s, t, z)
    twice = group_orbit_apply(g1, g2, np.zeros(5), t,
                              group_orbit_apply(g1, g2, s, np.zeros(5), z))
    assert np.abs(once - twice).max() < 1e-13


def _repeated_pairs(rng):
    # 4 distinct pairs over 12 rows, each with its own z
    s1 = np.array([0.3, -0.7, 0.3, 1.1, -0.7, 0.3, 1.1, 0.3, -0.7, 0.3, 1.1, 0.3])
    s2 = np.array([0.2, 0.5, 0.2, -0.4, 0.5, 0.9, -0.4, 0.2, 0.5, 0.9, -0.4, 0.2])
    return s1, s2, _complex_normal(rng, (12, 3))


def _signed_zeros(rng):
    # 0.0 and -0.0 are distinct keys: rows stay bit-identical to the copy
    s1 = np.array([0.0, -0.0, 0.0, -0.0, 0.4, 0.0])
    s2 = np.array([0.0, 0.0, -0.0, -0.0, -0.0, 0.4])
    return s1, s2, _complex_normal(rng, (6, 3))


def _one_row(rng):
    return np.array([0.8]), np.array([-1.3]), _complex_normal(rng, (1, 3))


def _empty(rng):
    return np.zeros(0), np.zeros(0), np.zeros((0, 3), dtype=complex)


@pytest.mark.parametrize("batch", [_repeated_pairs, _signed_zeros, _one_row, _empty])
def test_group_orbit_apply_matches_pointwise_copy(batch, rng):
    s1, s2, z = batch(rng)
    out = group_orbit_apply(_G1, _G2, s1, s2, z)
    ref = pointwise_group_orbit_apply(_G1, _G2, s1, s2, z)
    assert out.shape == z.shape
    assert np.array_equal(out, ref)
    assert out.tobytes() == ref.tobytes()


def test_group_orbit_apply_exponentiates_distinct_pairs_once(rng, monkeypatch):
    sizes = []

    def counting_expm3_batch(ms):
        sizes.append(len(ms))
        return expm3_batch(ms)

    monkeypatch.setattr(pure, "expm3_batch", counting_expm3_batch)
    s1, s2, z = _repeated_pairs(rng)
    group_orbit_apply(_G1, _G2, s1, s2, z)
    s1, s2, z = _signed_zeros(rng)
    group_orbit_apply(_G1, _G2, s1, s2, z)
    assert sizes == [4, 6]


def test_distinct_keys_rows_by_bits(rng):
    t = np.array([0.5, -0.0, 0.0, 0.5, -0.0, 1.0, 0.0])
    first, inverse = pure.distinct(t)
    # -0.0 and 0.0 are two values; one key reproduces np.unique on the int64 view
    assert len(first) == 4 and np.array_equal(t[first][inverse].view(np.int64), t.view(np.int64))
    _, u_first, u_inverse = np.unique(t.view(np.int64), return_index=True, return_inverse=True)
    assert np.array_equal(first, u_first) and np.array_equal(inverse, u_inverse)
    s = rng.choice([-1.0, -0.0, 0.0, 2.5], size=(2, 40))
    first, inverse = pure.distinct(*s)
    assert np.array_equal(s[:, first][:, inverse].view(np.int64), s.view(np.int64))
    assert len(first) == len({(a.tobytes(), b.tobytes()) for a, b in s.T})
