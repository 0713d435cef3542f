"""Property-based tests: GF(2^8) field axioms (hypothesis), checked on
the pure-Python oracle :mod:`repro.gf.scalar`."""

import random

from hypothesis import given, settings, strategies as st

from repro.gf import scalar

elem = st.integers(0, 255)
nonzero = st.integers(1, 255)


def add(a: int, b: int) -> int:
    """Field addition as the codec kernels compute it (a combine)."""
    return scalar.combine([1, 1], [bytes([a]), bytes([b])])[0]


def matprod(a, b) -> list[list[int]]:
    rows = scalar.matmul_rows(a, [bytes(row) for row in b])
    return [list(row) for row in rows]


def eye(k: int) -> list[list[int]]:
    return [[1 if r == c else 0 for c in range(k)] for r in range(k)]


@given(a=elem, b=elem)
def test_addition_commutes(a, b):
    assert add(a, b) == add(b, a)


@given(a=elem, b=elem, c=elem)
def test_addition_associates(a, b, c):
    assert add(add(a, b), c) == add(a, add(b, c))


@given(a=elem, b=elem)
def test_multiplication_commutes(a, b):
    assert scalar.mul(a, b) == scalar.mul(b, a)


@given(a=elem, b=elem, c=elem)
def test_multiplication_associates(a, b, c):
    assert (scalar.mul(scalar.mul(a, b), c)
            == scalar.mul(a, scalar.mul(b, c)))


@given(a=elem, b=elem, c=elem)
def test_distributivity(a, b, c):
    assert (scalar.mul(a, add(b, c))
            == add(scalar.mul(a, b), scalar.mul(a, c)))


@given(a=nonzero, b=nonzero)
def test_division_inverts_multiplication(a, b):
    # division is multiplication by the inverse
    assert scalar.mul(scalar.mul(a, b), scalar.inv(b)) == a
    assert scalar.mul(scalar.mul(a, scalar.inv(b)), b) == a


@given(a=nonzero)
def test_inverse_is_two_sided(a):
    assert scalar.mul(a, scalar.inv(a)) == 1
    assert scalar.mul(scalar.inv(a), a) == 1


@given(a=nonzero, j=st.integers(0, 50), k=st.integers(0, 50))
def test_power_laws(a, j, k):
    # powers as the codec computes them: a Vandermonde row
    row = scalar.vandermonde_rows([a], j + k + 1)[0]
    assert scalar.mul(row[j], row[k]) == row[j + k]


@given(
    points=st.lists(nonzero, min_size=3, max_size=8, unique=True),
    width=st.integers(2, 3),
)
@settings(max_examples=60, deadline=None)
def test_vandermonde_square_submatrices_invertible(points, width):
    if len(points) < width:
        return
    square = scalar.vandermonde_rows(points, width)[:width]
    inv = scalar.mat_inv(square)
    assert matprod(inv, square) == eye(width)


@given(
    seed=st.integers(0, 2**31),
    size=st.integers(2, 5),
)
@settings(max_examples=50, deadline=None)
def test_matrix_inverse_roundtrip_when_invertible(seed, size):
    rng = random.Random(seed)
    matrix = [[rng.randrange(256) for _ in range(size)] for _ in range(size)]
    try:
        inv = scalar.mat_inv(matrix)
    except ValueError:
        return  # singular draw; nothing to check
    assert matprod(inv, matrix) == eye(size)
    assert matprod(matrix, inv) == eye(size)
