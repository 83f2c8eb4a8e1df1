"""Reference implementations the tests compare the fast paths against.

Dense univariate polynomial arithmetic over a Field: coefficients are plain
lists/arrays of element codes, index = degree.  These are kept deliberately
simple (Horner, naive convolution, textbook Lagrange) and share no machinery
with the chain transforms, and so does oracle_decode, a brute-force
Lagrange erasure decoder.  cyclic_runs_loop is the step-by-step scan that
rs._cyclic_runs vectorizes; wu_decode_batch_loop and
interleaved_unique_decode_loop are the per-row and per-word forms of the
array decode core (rs.wu_decode_batch, decoders.interleaved_unique_decode).
local_column_transform runs the transform inside one block of a chain level.
cyclic_window_tables_nodes and erasure_fill_3t are the cyclic window tables
and the fill that rs replaced by closed forms: the window's vanisher
expanded from its nodes (vanisher_from_nodes) and pushed through two
transforms, and a fill that checks its candidate with a third transform;
the two decode loops run on them.  syndromes_unit and root_mask_unit are the
locator through a second "unit" plan on the subgroup, with the weights
delta_j, that rs replaced by the code's own transforms; plan_window_tables_2t
is the index-window build that rs replaced by a closed form: lam from its
node product, lam' through two transforms.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

import numpy as np

from burstfold import decoders, rs
from burstfold.errors import (
    DuplicateAbscissa,
    LevelOutOfRange,
    NotACodeword,
    WindowTooLong,
)
from burstfold.fields import AffineGroupSpec, Field, infer_subfield_order
from burstfold.gfft import GfftPlan, composite_derivative, plan_build


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


def local_column_transform(plan, s: int, block: int, vec,
                           inverse: bool = False):
    """Transform within a single level-s block of plan: coefficients of the
    local interpolation problem <-> values at the block's m_s points.  The
    block is a plan of its own, over the chain's first s radices, whose
    generator tables are the plan's cut to the block."""
    if not 0 <= s <= plan.depth:
        raise LevelOutOfRange(f"level {s} not in 0..{plan.depth}")
    m_s = plan.ms[s]
    if not 0 <= block < plan.n // m_s:
        raise LevelOutOfRange(f"block {block} out of range at level {s}")
    lo = block * m_s
    local = GfftPlan(plan.field, plan.factors[:s],
                     [g[lo:lo + m_s] for g in plan.gen[:s + 1]], check=False)
    return local.inverse(vec) if inverse else local.forward(vec)


def vanisher_from_nodes(field: Field, nodes) -> np.ndarray:
    """Coefficients of prod (x - node), length len(nodes)+1."""
    nodes = np.asarray(nodes, dtype=np.int64)
    L = len(nodes)
    c = np.zeros(L + 1, dtype=np.int64)
    c[0] = 1
    for j in range(L):
        shifted = np.zeros_like(c)
        shifted[1:] = c[:-1]
        c = field.add(shifted, field.mul(c, field.neg(int(nodes[j]))))
    return c


def cyclic_window_tables_nodes(plan, start: int, length: int):
    """(mask, lam, lam') of the exponent window start, start+1, .. (mod n)
    of a cyclic plan, whose composite basis is the monomial one: lam from
    its node product, both through forward transforms."""
    _, _, _, pos_of = plan.cyclic()
    idx = pos_of[(start + np.arange(length)) % plan.n]
    mask = np.zeros(plan.n, dtype=bool)
    mask[idx] = True
    lam_co = np.zeros(plan.n, dtype=np.int64)
    coeffs = vanisher_from_nodes(plan.field, plan.points[idx])
    lam_co[:len(coeffs)] = coeffs
    lam = plan.forward(lam_co)
    lamp = plan.forward(composite_derivative(plan, lam_co))
    return mask, lam, lamp


def plan_window_tables_2t(plan, start: int, length: int):
    """(mask, lam, lam') of the index window [start, start+length): lam is
    the node product evaluated by Horner's rule, lam' the derivative of
    lam's interpolant through composite_derivative and two transforms."""
    F = plan.field
    mask = np.zeros(plan.n, dtype=bool)
    mask[start:start + length] = True
    coeffs = vanisher_from_nodes(F, plan.points[start:start + length])
    lam = poly_eval(F, coeffs.tolist(), plan.points)
    lamp = plan.forward(composite_derivative(plan, plan.inverse(lam)))
    return mask, lam, lamp


@lru_cache(maxsize=None)
def unit_locator(code):
    """The unit plan on the subgroup <alpha>, over the code's chain factors,
    and the weights delta_j = p_j / (n xi^n) in exponent order: the inverse
    of the node-difference product for the coset x^n - xi^n."""
    F = code.field
    xi, alpha, _, _ = code.plan.cyclic()
    n = code.n
    unit = plan_build(F, AffineGroupSpec(
        t=n, ell=infer_subfield_order(F, n), w_basis=[], gamma=1,
        t_factors=code.plan.factors, t_generator=alpha))
    delta = F.mul(code.natural_points(),
                  F.inv(F.mul(n % F.p, F.pow(xi, n))))
    return unit, delta


def syndromes_unit(code, rcv_plan_order):
    """Weighted power sums S_i = sum_j r_j delta_j p_j^i for i < n-k, with
    p_j in exponent order, through the unit plan."""
    unit, delta = unit_locator(code)
    F = code.field
    xi, _, _, pos_of = code.plan.cyclic()
    r = code.n - code.k
    uvals = unit.forward(F.mul(rcv_plan_order[:, pos_of], delta[None, :]))
    # the unit plan's value at exponent i sits at position pos_of[i]
    return F.mul(uvals[:, pos_of[:r]], F.geometric(xi, max(r, 1))[None, :r])


def root_mask_unit(code, gamma):
    """mask[t, e] = True iff Gamma_t(alpha^e) == 0, through the unit plan."""
    unit, _ = unit_locator(code)
    _, _, exps, _ = code.plan.cyclic()
    pad = np.zeros((gamma.shape[0], code.n), dtype=np.int64)
    pad[:, :gamma.shape[1]] = gamma
    mask = np.empty((gamma.shape[0], code.n), dtype=bool)
    mask[:, exps] = unit.forward(pad) == 0
    return mask


def erasure_fill_3t(plan, received, mask, lam_vals, lamp_vals, k: int):
    """Three-transform erasure fill of one word or a batch: returns
    (candidates, coefficients of the candidates, ok), ok when the
    candidate's inverse transform has no coefficient at index >= k."""
    F = plan.field
    rcv = np.asarray(received, dtype=np.int64)
    single = rcv.ndim == 1
    if single:
        rcv = rcv[None]
    if k == 0:
        cand = np.where(mask[None, :], 0, rcv)
        ok = np.all(cand == 0, axis=1)
        return (cand[0] if single else cand,
                np.zeros_like(cand[0] if single else cand),
                bool(ok[0]) if single else ok)
    Fv = F.mul(rcv, lam_vals[None, :])
    Fv[:, mask] = 0
    co = plan.inverse(Fv)
    Fp = plan.forward(composite_derivative(plan, co))
    lamp_safe = np.where(mask, lamp_vals, 1)
    fill = F.div(Fp, lamp_safe[None, :])
    cand = np.where(mask[None, :], fill, rcv)
    cc = plan.inverse(cand)
    ok = np.all(cc[:, k:] == 0, axis=1)
    if single:
        return cand[0], cc[0], bool(ok[0])
    return cand, cc, ok


def wu_decode_batch_loop(code, received, e: int = 1):
    """rs.wu_decode_batch one row at a time, over the unit-plan locator: a
    WuOutcome per row, rows grouped by window label in a dict, one fill per
    label."""
    n, k = code.n, code.k
    r = n - k
    rcv = np.asarray(received, dtype=np.int64)
    B = rcv.shape[0]
    synd = syndromes_unit(code, rcv)
    no_err = np.all(synd == 0, axis=1)
    gamma = rs.check_polynomial(code, synd)
    gamma_zero = np.all(gamma == 0, axis=1) & ~no_err
    mask = root_mask_unit(code, gamma)
    mask[no_err | gamma_zero] = False
    best, btop, amb = rs._cyclic_runs(mask)
    results = [None] * B
    for t in np.flatnonzero(no_err):
        results[t] = rs.WuOutcome("ok", rcv[t].copy(), (0, 0), int(best[t]),
                                  False)
    active = ~no_err
    rejected = active & (best < e + 1)
    for t in np.flatnonzero(rejected):
        results[t] = rs.WuOutcome("detected", None, None, int(best[t]),
                                  bool(amb[t]))
    todo = np.flatnonzero(active & ~rejected)
    labels = {}
    for t in todo:
        labels.setdefault((int(btop[t]), int(r - best[t])), []).append(t)
    for (e0, ln), rows in labels.items():
        rows = np.asarray(rows)
        wmask, lam, lamp = cyclic_window_tables_nodes(code.plan, e0, ln)
        cand, _, ok = erasure_fill_3t(code.plan, rcv[rows], wmask, lam, lamp,
                                      k)
        for i, t in enumerate(rows):
            results[t] = rs.WuOutcome(
                "ok" if ok[i] else "detected", cand[i] if ok[i] else None,
                (e0, ln), int(best[t]), bool(amb[t]))
    return results


def interleaved_unique_decode_loop(plan, fold_level: int, dims, received,
                                   e: int, radius: int, strict: bool = False,
                                   row_plan=None):
    """decoders.interleaved_unique_decode one word at a time, over
    wu_decode_batch_loop's per-row outcomes (feasibility checks left out)."""
    m = plan.block_size(fold_level)
    n_s = plan.n // m
    kmax = max(dims)
    sub = row_plan if row_plan is not None else plan.sub_plan(fold_level)
    F = plan.field
    rcv = np.asarray(received, dtype=np.int64)
    B = rcv.shape[0]
    rows_flat = plan.tau_forward(fold_level, rcv).reshape(B * m, n_s)
    row_ok = np.zeros(B * m, dtype=bool)
    row_start = np.zeros(B * m, dtype=np.int64)
    row_len = np.zeros(B * m, dtype=np.int64)
    row_amb = np.zeros(B * m, dtype=bool)
    cand_rows = rows_flat.copy()
    for kd, flat in decoders._row_classes(dims, B, m).items():
        outs = wu_decode_batch_loop(rs.row_code(sub, kd), rows_flat[flat], e)
        for j, t in enumerate(flat):
            o = outs[j]
            if o.status == "ok":
                row_ok[t] = True
                row_start[t], row_len[t] = o.window
                cand_rows[t] = o.codeword
            row_amb[t] = o.ambiguous
    statuses = ["ok"] * B
    col_windows = [None] * B
    ambiguous = np.zeros(B, dtype=bool)
    for t in range(B):
        sl = slice(t * m, (t + 1) * m)
        oks = row_ok[sl]
        ambiguous[t] = bool(row_amb[sl].any())
        if strict:
            if not oks.all():
                statuses[t] = "detected"
            else:
                wins = {(int(s), int(l))
                        for s, l in zip(row_start[sl], row_len[sl])}
                col_windows[t] = max(wins, key=lambda w: w[1])
            continue
        if not oks.any():
            statuses[t] = "detected"
            continue
        nz = [(int(row_start[sl][i]), int(row_len[sl][i]))
              for i in range(m) if oks[i] and row_len[sl][i] > 0]
        if oks.all():
            col_windows[t] = max(nz, key=lambda w: w[1]) if nz else None
            continue
        cap = n_s - kmax - e
        cover = decoders._cover_window(nz, n_s) if nz else None
        if cover is None or cover[1] > cap:
            votes = Counter(w for w in nz if w[1] <= cap)
            if not votes:
                statuses[t] = "detected"
                continue
            top = max(votes.values())
            cover = min(w for w, c in votes.items() if c == top)
        col_windows[t] = cover
        mask, lam, lamp = cyclic_window_tables_nodes(sub, cover[0], cover[1])
        for i in range(m):
            c, _, ok1 = erasure_fill_3t(
                sub, rows_flat[t * m + i], mask, lam, lamp, int(dims[i]))
            if not ok1:
                statuses[t] = "detected"
                break
            cand_rows[t * m + i] = c
    cands = plan.tau_inverse(fold_level, cand_rows.reshape(B, m, n_s))
    within = decoders._burst_within(F, rcv, cands, radius)
    return [decoders.UniqueOutcome(
                "ok", cands[t], col_windows[t], bool(ambiguous[t]))
            if statuses[t] == "ok" and within[t] else
            decoders.UniqueOutcome(
                "detected", None, col_windows[t], bool(ambiguous[t]))
            for t in range(B)]
