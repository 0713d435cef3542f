"""Unit tests for GF(2^8) matrix algebra.

The pure-Python oracle (:mod:`repro.gf.scalar`) owns inversion and
Vandermonde construction; the numpy kernel (:mod:`repro.gf.vector`)
owns the bulk product and is checked against the oracle's field
multiplication here.
"""

import itertools

import numpy as np
import pytest

from repro.gf import scalar, vector


def random_matrix(rng, rows, cols):
    return rng.integers(0, 256, size=(rows, cols), dtype=np.uint8)


def matprod(a, b) -> list[list[int]]:
    """``a @ b`` over GF(2^8) through the oracle's row kernel."""
    rows = scalar.matmul_rows(a, [bytes(row) for row in b])
    return [list(row) for row in rows]


def eye(k: int) -> list[list[int]]:
    return [[1 if r == c else 0 for c in range(k)] for r in range(k)]


class TestMatMul:
    def test_identity(self):
        rng = np.random.default_rng(0)
        m = random_matrix(rng, 4, 4)
        identity = np.eye(4, dtype=np.uint8)
        assert (vector.matmul(m, identity) == m).all()
        assert (vector.matmul(identity, m) == m).all()

    def test_matches_scalar_definition(self):
        rng = np.random.default_rng(1)
        a = random_matrix(rng, 3, 5)
        b = random_matrix(rng, 5, 2)
        got = vector.matmul(a, b)
        for i in range(3):
            for j in range(2):
                acc = 0
                for k in range(5):
                    acc ^= scalar.mul(int(a[i, k]), int(b[k, j]))
                assert got[i, j] == acc

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            vector.matmul(np.zeros((2, 3), np.uint8),
                          np.zeros((2, 3), np.uint8))

    def test_zero_matrix(self):
        z = np.zeros((3, 3), np.uint8)
        m = np.full((3, 3), 7, np.uint8)
        assert (vector.matmul(z, m) == 0).all()

    def test_mat_vec(self):
        rng = np.random.default_rng(2)
        a = random_matrix(rng, 4, 3)
        x = rng.integers(0, 256, size=3, dtype=np.uint8)
        got = vector.matmul(a, x[:, None])[:, 0]
        assert got.tolist() == [row[0] for row in matprod(
            a.tolist(), [[int(v)] for v in x])]


class TestInverse:
    def test_inverse_roundtrip(self):
        v = scalar.vandermonde_rows(range(1, 5), 4)
        inv = scalar.mat_inv(v)
        assert matprod(inv, v) == eye(4)
        assert matprod(v, inv) == eye(4)

    def test_singular_raises(self):
        with pytest.raises(ValueError, match="singular"):
            scalar.mat_inv([[1, 2], [1, 2]])

    def test_zero_matrix_singular(self):
        with pytest.raises(ValueError, match="singular"):
            scalar.mat_inv([[0] * 3 for _ in range(3)])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            scalar.mat_inv([[0, 0, 0], [0, 0, 0]])

    def test_identity_self_inverse(self):
        assert scalar.mat_inv(eye(5)) == eye(5)

    def test_requires_pivot_swap(self):
        # leading zero forces a row swap inside elimination
        m = [[0, 1], [1, 0]]
        assert matprod(scalar.mat_inv(m), m) == eye(2)


class TestRank:
    def test_full_rank_vandermonde(self):
        # a tall 6x3 Vandermonde matrix has full column rank 3: its
        # leading 3x3 block is invertible, so the columns are independent
        v = scalar.vandermonde_rows(range(1, 7), 3)
        assert len(v) == 6
        top = v[:3]
        assert matprod(scalar.mat_inv(top), top) == eye(3)


class TestVandermonde:
    def test_shape_and_first_column(self):
        v = scalar.vandermonde_rows([1, 2, 3], 4)
        assert len(v) == 3 and all(len(row) == 4 for row in v)
        assert all(row[0] == 1 for row in v)

    def test_second_column_is_points(self):
        pts = [5, 9, 200]
        v = scalar.vandermonde_rows(pts, 3)
        assert [row[1] for row in v] == pts

    def test_every_square_submatrix_invertible(self):
        # the MDS property that makes RS erasure decoding always work
        v = scalar.vandermonde_rows(range(1, 8), 3)
        for rows in itertools.combinations(range(7), 3):
            scalar.mat_inv([v[r] for r in rows])  # must not raise

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            scalar.vandermonde_rows([1, 1, 2], 2)

    def test_rejects_zero_point(self):
        with pytest.raises(ValueError):
            scalar.vandermonde_rows([0, 1], 2)
