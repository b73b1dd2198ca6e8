import numpy as np
import pytest

from thetabsde.ambient import (AmbientError, as_point, col_product,
                               off_diagonal, row_sq, row_sum, sym_vec_dim)


def same_bits(a, b):
    """Equal shape and dtype, and bitwise equal values (signed zeros too)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_sym_vec_dim_roundtrip():
    # the flat length is the diagonal plus the strict upper triangle, and
    # it gives d back: no two d share a length
    lengths = [sym_vec_dim(d) for d in range(1, 10)]
    for d, n in enumerate(lengths, start=1):
        assert n == d + len(off_diagonal(d)[0]) == len(np.triu_indices(d)[0])
        assert lengths.index(n) == d - 1 and lengths.count(n) == 1


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


@pytest.mark.parametrize("d", range(1, 11))
def test_row_kernels_are_bitwise_across_layouts(d, special_batch):
    # a column-major batch reduces to the bits of the C-ordered one, past
    # _ROW_KERNEL_DIM too, where np.sum would sum its rows left to right
    x = special_batch(500, d, d)
    with np.errstate(all="ignore"):
        for kernel in (row_sum, row_sq):
            assert same_bits(kernel(np.asfortranarray(x)), kernel(x))


@pytest.mark.parametrize("k", [1, 2, 3, 9])
@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 31, 32, 40])
def test_col_product_is_column_major_with_the_c_ordered_bits(d, k):
    # one row of m (a matrix-vector kernel) and 32 columns of x or more
    # (the AVX-512 kernel) take a C-ordered copy of a column-major x
    rng = np.random.default_rng(10 * d + k)
    x = rng.normal(size=(300, d))
    m = rng.normal(size=(k, d))
    for batch in (x, np.asfortranarray(x)):
        got = col_product(batch, m)
        assert got.flags.f_contiguous
        assert same_bits(got, x @ m.T)


@pytest.mark.parametrize("k", [1, 2, 3, 9, 40])
def test_one_inner_column_product_has_the_blas_bits(k, special_batch):
    # each entry is one product, which BLAS adds to a zero: the plain
    # product plus 0.0 has its bits, -0.0 turned +0.0 included; only the
    # sign of a NaN is the BLAS kernel's own
    x = special_batch(301, 1, k)
    m = special_batch(k, 1, 100 + k)
    with np.errstate(all="ignore"):
        want = x @ m.T
        for batch in (x, np.asfortranarray(x), np.repeat(x, 2, axis=1)[:, ::2]):
            got = col_product(batch, m)
            assert got.flags.f_contiguous
            assert np.array_equal(np.isnan(got), np.isnan(want))
            assert same_bits(np.where(np.isnan(got), np.nan, got),
                             np.where(np.isnan(want), np.nan, want))
