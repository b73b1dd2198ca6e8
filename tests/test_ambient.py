import numpy as np
import pytest

from thetabsde.ambient import (AmbientError, as_point, by_column, embed,
                               extract, frobenius_inner, matrix_dim, row_sq,
                               row_sum, sym_vec_dim)


def same_bits(a, b):
    """Equal shape and dtype, and bitwise equal values (signed zeros too)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_sym_vec_dim_roundtrip():
    for d in range(1, 10):
        assert matrix_dim(sym_vec_dim(d)) == d
    with pytest.raises(AmbientError):
        matrix_dim(4)  # not of the form d(d+1)/2


def test_embed_extract_roundtrip():
    rng = np.random.default_rng(0)
    for d in (1, 2, 3, 5):
        a = rng.standard_normal((d, d))
        m = a + a.T
        assert np.allclose(extract(embed(m)), m, atol=1e-14)


def test_embed_is_isometry():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 4))
    m = a + a.T
    # vector 2-norm equals Frobenius norm
    assert np.linalg.norm(embed(m)) == pytest.approx(np.linalg.norm(m), abs=1e-12)


def test_frobenius_inner_matches_trace():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    ma, mb = a + a.T, b + b.T
    assert frobenius_inner(embed(ma), embed(mb)) == pytest.approx(
        np.trace(ma.T @ mb), abs=1e-12)


def test_embed_rejects_nonsymmetric():
    with pytest.raises(AmbientError):
        embed(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_embed_and_extract_reject_bad_shapes():
    with pytest.raises(AmbientError, match="expected square matrix"):
        embed(np.zeros((2, 3)))
    with pytest.raises(AmbientError, match="exceeds supported size"):
        embed(np.eye(11))  # 66 ambient coordinates
    with pytest.raises(AmbientError, match="does not match matrix dim 3"):
        extract(np.zeros(3), d=3)


def test_as_point_validation():
    assert as_point(1.5).shape == (1,)
    with pytest.raises(AmbientError):
        as_point(np.zeros((2, 2)))
    with pytest.raises(AmbientError):
        as_point([np.nan])
    with pytest.raises(AmbientError):
        as_point(np.zeros(65))  # above the supported ambient dimension
    with pytest.raises(AmbientError):
        as_point([1.0, 2.0], dim=3)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 10, 64])
def test_row_kernels_are_bitwise_np_sum(d):
    rng = np.random.default_rng(d)
    # magnitudes spread over 16 decades, so any change of order shows
    x = rng.standard_normal((1001, d)) * 10.0 ** rng.integers(-8, 8, (1001, d))
    x[0] = -0.0  # np.sum starts from +0.0: an all -0.0 row sums to +0.0
    assert same_bits(row_sum(x), np.sum(x, axis=1))
    assert same_bits(row_sq(x), np.sum(x * x, axis=1))
    assert same_bits(np.sqrt(row_sq(x)), np.linalg.norm(x, axis=1))
    # a strided view (every other column of a wider array) reads the same
    wide = np.repeat(x, 2, axis=1)[:, ::2]
    assert same_bits(row_sum(wide), np.sum(x, axis=1))
    assert same_bits(row_sq(wide), np.sum(x * x, axis=1))


def copy_where(src, mask, out):
    np.copyto(out, src, where=mask)


@pytest.mark.parametrize("d", range(1, 11))
def test_by_column_is_bitwise_the_broadcast(d, special_batch):
    # column by column when a row or a column broadcasts over 2 or 3
    # columns, one call otherwise
    n = 300
    A, B = special_batch(n, d, d), special_batch(n, d, 100 + d)
    row = special_batch(1, d, 200 + d)[0]
    col = special_batch(n, 1, 300 + d)
    mask = np.random.default_rng(d).random((n, 1)) < 0.5
    cases = {
        "array minus row": (np.subtract, (A, row), lambda: A - row),
        "row plus array": (np.add, (row, A), lambda: row + A),
        "column times array": (np.multiply, (col, A), lambda: col * A),
        "array times column": (np.multiply, (A, col), lambda: A * col),
        "array over number": (np.divide, (A, 3.0), lambda: A / 3.0),
        "array plus array": (np.add, (A, B), lambda: A + B),
    }
    looped = {"array over number": 1, "array plus array": 1}
    with np.errstate(all="ignore"):
        for name, (fn, args, want) in cases.items():
            out = np.empty((n, d))
            calls = []
            by_column(lambda *a: calls.append(fn(*a)), *args, out)
            assert same_bits(out, want()), name
            assert len(calls) == looped.get(name, d if 1 < d < 4 else 1)
        # in place, through the output's own column views
        out = A.copy()
        by_column(np.multiply, out, col, out)
        assert same_bits(out, A * col)
        out = A.copy()
        by_column(copy_where, B, mask, out)
        want = A.copy()
        np.copyto(want, B, where=mask)
        assert same_bits(out, want)
