"""Reference implementations the tests compare the fast paths against.

Dense univariate polynomial arithmetic over a Field: coefficients are plain
lists/arrays of element codes, index = degree.  These are kept deliberately
simple (Horner, naive convolution, textbook Lagrange) and share no machinery
with the chain transforms, and so does oracle_decode, a brute-force
Lagrange erasure decoder.  cyclic_runs_loop is the step-by-step scan that
rs._cyclic_runs vectorizes.
"""

from __future__ import annotations

import numpy as np

from burstfold.errors import DuplicateAbscissa, NotACodeword, WindowTooLong
from burstfold.fields import Field


def poly_trim(coeffs) -> list[int]:
    out = [int(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_eval(field: Field, coeffs, x):
    """Evaluate at a scalar or an ndarray of points (Horner)."""
    if len(coeffs) == 0:
        return np.zeros_like(x) if isinstance(x, np.ndarray) else 0
    acc = coeffs[-1]
    if isinstance(x, np.ndarray):
        acc = np.full(x.shape, int(acc), dtype=np.int64)
    for c in reversed(coeffs[:-1]):
        acc = field.add(field.mul(acc, x), int(c))
    return acc


def poly_derivative(field: Field, coeffs) -> list[int]:
    """Formal derivative; the shift-down multiplier is (i+1) mod p."""
    p = field.p
    return [field.mul((i + 1) % p, int(c)) for i, c in enumerate(coeffs[1:])]


def poly_mul(field: Field, a, b) -> list[int]:
    if len(a) == 0 or len(b) == 0:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            if cb:
                out[i + j] = field.add(out[i + j], field.mul(int(ca), int(cb)))
    return out


def poly_add(field: Field, a, b) -> list[int]:
    n = max(len(a), len(b))
    return [field.add(int(a[i]) if i < len(a) else 0,
                      int(b[i]) if i < len(b) else 0) for i in range(n)]


def poly_scale(field: Field, a, s: int) -> list[int]:
    return [field.mul(int(c), s) for c in a]


def lagrange_interpolate(field: Field, points, values) -> list[int]:
    """Unique polynomial of degree < len(points) through the given data."""
    pts = [int(x) for x in points]
    if len(set(pts)) != len(pts):
        raise DuplicateAbscissa("interpolation nodes repeat")
    F = field
    n = len(pts)
    # master polynomial M(x) = prod (x - x_i)
    master = [1]
    for x in pts:
        master = poly_mul(F, master, [F.neg(x), 1])
    out = [0] * n
    for i, (x, y) in enumerate(zip(pts, values)):
        if y == 0:
            continue
        # basis_i = M / (x - x_i), by synthetic division
        basis = [0] * n
        carry = master[n]
        for j in range(n - 1, -1, -1):
            basis[j] = carry
            carry = F.add(master[j], F.mul(carry, x))
        denom = poly_eval(F, basis, x)
        scale = F.div(int(y), denom)
        for j in range(n):
            out[j] = F.add(out[j], F.mul(basis[j], scale))
    return out


def oracle_decode(code, received, window):
    """Reference erasure decoder: barycentric Lagrange interpolation from the
    first k intact positions, with a consistency check over the rest.  Shares
    no machinery with the chain-transform fast path; used to cross-check
    erasure_decode.  Returns the codeword; raises WindowTooLong or
    NotACodeword just like the fast path."""
    start, length = window
    n, k = code.n, code.k
    if length > n - k:
        raise WindowTooLong(
            f"window length {length} exceeds n-k = {n - k}")
    if length < 0 or start < 0 or start + length > n:
        raise WindowTooLong("window out of range")
    F = code.plan.field
    rcv = np.asarray(received, dtype=np.int64)
    keep = np.concatenate([np.arange(0, start),
                           np.arange(start + length, n)])
    nodes_idx, check_idx = keep[:k], keep[k:]
    pts = code.plan.points
    x, y = pts[nodes_idx], rcv[nodes_idx]
    diff = F.sub(x[:, None], x[None, :])
    np.fill_diagonal(diff, 1)
    w = np.ones(k, dtype=np.int64)
    for i in range(k):
        w = F.mul(w, diff[:, i])
    w = F.inv(w)
    other = np.concatenate([check_idx,
                            np.arange(start, start + length)])
    tgt = pts[other]
    m = F.sub(tgt[:, None], x[None, :])
    ell = np.ones(tgt.shape[0], dtype=np.int64)
    acc = np.zeros(tgt.shape[0], dtype=np.int64)
    wy = F.mul(w, y)
    for j in range(k):
        ell = F.mul(ell, m[:, j])
        acc = F.add(acc, F.mul(wy[j], F.inv(m[:, j])))
    vals = F.mul(ell, acc)
    cand = np.array(rcv)
    cand[other] = vals
    if not np.array_equal(cand[check_idx], rcv[check_idx]):
        raise NotACodeword("received word inconsistent outside the window")
    return cand


def cyclic_runs_loop(mask: np.ndarray):
    """Longest cyclic run of True per row, (length, top_index, ambiguous), by
    walking the doubled mask one column at a time.  Ties keep the smallest
    top index and set the ambiguous flag."""
    batch, n = mask.shape
    m = mask.astype(np.int64)
    f = np.zeros(batch, dtype=np.int64)
    best = np.zeros(batch, dtype=np.int64)
    btop = np.full(batch, -1, dtype=np.int64)
    amb = np.zeros(batch, dtype=bool)
    for c in range(2 * n):
        f = (f + 1) * m[:, c % n]
        if c >= n:
            e = c - n
            length = np.minimum(f, n)
            better = length > best
            tie = (~better) & (best > 0) & (length == best) & (btop != e)
            amb = np.where(better, False, amb | tie)
            best = np.where(better, length, best)
            btop = np.where(better, e, btop)
    return best, btop, amb
