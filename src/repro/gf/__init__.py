"""Galois field GF(2^8) arithmetic.

This package implements the finite-field math underlying CYRUS's
non-systematic Reed--Solomon secret sharing (paper Section 5.1, Figure 5)
over GF(2^8) with the standard AES polynomial 0x11B:

* :mod:`repro.gf.tables` — the numpy log/exp and 256x256 multiplication
  tables;
* :mod:`repro.gf.vector` — the batched numpy kernels the codec encodes
  and decodes with;
* :mod:`repro.gf.scalar` — pure-Python field operations, Vandermonde
  construction and Gauss--Jordan inversion: the numpy-free fallback and
  the oracle the vector kernels are checked against.
"""

__all__ = ["tables", "scalar", "vector"]
