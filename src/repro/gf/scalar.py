"""Pure-Python GF(2^8) coding kernels — the fallback and the oracle.

Everything in this module runs on plain Python ints, lists and
bytearrays: no numpy import, no vectorisation, one field operation per
byte.  That makes it the slowest codec backend by two orders of
magnitude — and exactly why it exists:

* **Fallback** — :mod:`repro.erasure.rs` selects this backend when
  numpy is unavailable or when ``CYRUS_CODEC=scalar`` (or
  ``CYRUS_NO_NUMPY_ACCEL=1``) is set, so the whole client keeps working
  with zero native dependencies.
* **Oracle** — the golden-vector and hypothesis equivalence suites
  decode/encode through these loops and demand byte-identical output
  from the vectorised kernels in :mod:`repro.gf.vector`.  A silent
  wire-format drift in the fast path cannot survive a comparison
  against code this simple.

The tables are rebuilt here from first principles (same generator 0x03
and AES polynomial 0x11B as :mod:`repro.gf.tables`) rather than
converted from the numpy arrays, so the two implementations share no
code that could hide a common bug.
"""

from __future__ import annotations

from typing import Sequence

GF_POLY = 0x11B
GF_GENERATOR = 0x03


def _build_tables() -> tuple[list[int], list[int]]:
    exp = [0] * 510
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x2 = x << 1
        if x2 & 0x100:
            x2 ^= GF_POLY
        x = x2 ^ x
    exp[255:510] = exp[0:255]
    return exp, log


EXP, LOG = _build_tables()

#: Lazily-built multiplication rows: _MUL_ROWS[c][b] == c * b in GF(2^8).
_MUL_ROWS: dict[int, bytes] = {}


def mul(a: int, b: int) -> int:
    """Field multiplication of two elements."""
    if a == 0 or b == 0:
        return 0
    return EXP[LOG[a] + LOG[b]]


def inv(a: int) -> int:
    """Multiplicative inverse; raises ZeroDivisionError for zero."""
    if a == 0:
        raise ZeroDivisionError("zero has no inverse in GF(2^8)")
    return EXP[255 - LOG[a]]


def mul_row(c: int) -> bytes:
    """The 256-entry row ``[c * b for b in range(256)]`` as bytes."""
    row = _MUL_ROWS.get(c)
    if row is None:
        row = bytes(mul(c, b) for b in range(256))
        _MUL_ROWS[c] = row
    return row


def stripe_rows(data, t: int) -> list[bytes]:
    """Pad and split chunk bytes into ``t`` equal-length stripes.

    Mirrors the vectorised codec's ``(t, stripe_len)`` reshape: row j is
    ``data[j*L : (j+1)*L]`` zero-padded to L = ceil(len/t) (one zero
    column for empty input).
    """
    raw = bytes(data)
    stripe_len = max(1, -(-len(raw) // t))
    padded = raw.ljust(t * stripe_len, b"\x00")
    return [padded[j * stripe_len : (j + 1) * stripe_len] for j in range(t)]


def combine(coeffs: Sequence[int], stripes: Sequence[bytes]) -> bytearray:
    """XOR-accumulate ``sum_j coeffs[j] * stripes[j]`` byte by byte."""
    acc = bytearray(len(stripes[0]) if stripes else 0)
    for c, row in zip(coeffs, stripes):
        if c == 0:
            continue
        tbl = mul_row(c)
        for k, b in enumerate(row):
            acc[k] ^= tbl[b]
    return acc


def matmul_rows(
    matrix: Sequence[Sequence[int]], stripes: Sequence[bytes]
) -> list[bytearray]:
    """Row-by-row matrix product over GF(2^8): out[i] = matrix[i] . stripes."""
    return [combine(row, stripes) for row in matrix]


def vandermonde_rows(points: Sequence[int], width: int) -> list[list[int]]:
    """Vandermonde matrix rows V[i][j] = points[i] ** j.

    The points must be distinct and non-zero: distinctness makes every
    ``width``-subset of rows invertible (the MDS property erasure
    decoding relies on).
    """
    pts = list(points)
    if len(set(pts)) != len(pts):
        raise ValueError("Vandermonde points must be distinct")
    if any(not 0 < p < 256 for p in pts):
        raise ValueError("Vandermonde points must be non-zero")
    rows = []
    for p in pts:
        row = [1]
        for _ in range(1, width):
            row.append(mul(row[-1], p))
        rows.append(row)
    return rows


def mat_inv(matrix: Sequence[Sequence[int]]) -> list[list[int]]:
    """Invert a square matrix by Gauss--Jordan elimination.

    Raises ValueError("singular matrix over GF(2^8)") when no inverse
    exists (callers treat this the same as numpy's LinAlgError).
    """
    k = len(matrix)
    if any(len(row) != k for row in matrix):
        raise ValueError("matrix must be square")
    aug = [list(row) + [1 if r == c else 0 for c in range(k)]
           for r, row in enumerate(matrix)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if aug[r][col]), None)
        if pivot is None:
            raise ValueError("singular matrix over GF(2^8)")
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = inv(aug[col][col])
        aug[col] = [mul(v, inv_p) for v in aug[col]]
        for r in range(k):
            if r == col or aug[r][col] == 0:
                continue
            factor = aug[r][col]
            row = aug[col]
            aug[r] = [v ^ mul(factor, w) for v, w in zip(aug[r], row)]
    return [row[k:] for row in aug]
