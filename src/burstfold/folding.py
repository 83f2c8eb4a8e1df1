"""Folding length-n vectors into m x (n/m) interleaved matrices.

fold writes the vector down the columns: entry (i, j) = v[j*m + i], so a
contiguous burst of length L in v touches at most floor(L/m) + 2 adjacent
columns.  GfftPlan.tau_forward/tau_inverse are the transform-domain version:
they fold a codeword's *component polynomials* (not its raw symbols) onto the
quotient point set of a plan level, which is what turns one long code into
a short interleaved one.
"""

from __future__ import annotations

import numpy as np

from .errors import NonDivisor


def fold(vec, m: int) -> np.ndarray:
    v = np.asarray(vec, dtype=np.int64)
    n = v.shape[-1]
    if m < 1 or n % m:
        raise NonDivisor(f"{m} does not divide {n}")
    return np.swapaxes(v.reshape(v.shape[:-1] + (n // m, m)), -1, -2)


def unfold(mat) -> np.ndarray:
    M = np.asarray(mat, dtype=np.int64)
    m, cols = M.shape[-2], M.shape[-1]
    return np.swapaxes(M, -1, -2).reshape(M.shape[:-2] + (m * cols,))


def row_dims(k: int, m: int) -> list[int]:
    """Dimension of each of the m interleaved component codes when the long
    code has dimension k: row i gets the coefficients congruent to i mod m."""
    return [(k - 1 - i) // m + 1 if i < k else 0 for i in range(m)]


def folded_burst_bound(burst_len: int, m: int) -> int:
    """Max number of matrix columns a length-burst_len vector burst can touch."""
    if burst_len <= 0:
        return 0
    return burst_len // m + 2


def is_burst(vec, burst_len: int) -> bool:
    """True if all nonzero entries fit in one window of length burst_len."""
    v = np.asarray(vec)
    nz = np.flatnonzero(v)
    if nz.size == 0:
        return True
    return int(nz[-1]) - int(nz[0]) < burst_len


def burst_span(vec) -> tuple[int, int]:
    """(first, last+1) bounds of the nonzero support; (0, 0) for zero."""
    nz = np.flatnonzero(np.asarray(vec))
    if nz.size == 0:
        return (0, 0)
    return (int(nz[0]), int(nz[-1]) + 1)


def is_cyclic_burst(vec, burst_len: int) -> bool:
    """True if the nonzero support fits in one cyclic window of burst_len."""
    v = np.asarray(vec)
    n = v.shape[0]
    nz = np.flatnonzero(v)
    if nz.size == 0:
        return True
    if burst_len >= n:
        return True
    # the complement of a cyclic window is a plain window: look for a gap
    # between consecutive nonzeros (cyclically) of length >= n - burst_len
    gaps = np.diff(np.concatenate([nz, [nz[0] + n]])) - 1
    return bool(np.max(gaps) >= n - burst_len)
