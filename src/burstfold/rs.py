"""Reed-Solomon codes over chain-transform plans.

A code is the set of evaluations of composite-basis polynomials of degree
< k on a plan's point set, in the plan's enumeration order.  Erasure
decoding inside a window runs in transform time by multiplying with the
window's vanishing polynomial and differentiating; burst localization for
cyclic (coset) point sets uses the syndrome-times-window-vanisher check
polynomial whose root run on the group pins down the burst interval.

When the chain has more than one multiplicative factor the enumeration is
the decimated (butterfly) order, not the exponent order xi*alpha^(j-1); the
plan's cyclic() keeps the exponent permutation alongside so that
cyclic-window logic can convert freely.  Folding-based decoders always work
in enumeration order; windows there are index windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigInfeasible,
    CyclicStructureAbsent,
    DimensionOutOfRange,
    NoRootRun,
    NotACodeword,
    WindowTooLong,
)
from .fields import AffineGroupSpec, Field, infer_subfield_order
from .folding import row_dims
from .gfft import GfftPlan, composite_derivative, plan_build


class RsCode:
    """Evaluation code of dimension k on a plan's points."""

    def __init__(self, plan: GfftPlan, k: int):
        if not 1 <= k <= plan.n:
            raise DimensionOutOfRange(f"k={k} outside 1..{plan.n}")
        self.plan = plan
        self.field: Field = plan.field
        self.n = plan.n
        self.k = k
        self._unit_plan = None
        self._lam1 = None
        self._delta = None

    # -- cyclic structure --

    def _require_cyclic(self):
        cyc = self.plan.cyclic()
        if cyc is None:
            raise CyclicStructureAbsent(
                "plan points are not a cyclic coset in decimation order")
        return cyc

    def natural_points(self) -> np.ndarray:
        """Points reordered so entry e is xi*alpha^e."""
        xi, alpha, _, _ = self._require_cyclic()
        return self.field.geometric(alpha, self.n, first=xi)

    def to_natural(self, vec):
        _, _, _, pos_of = self._require_cyclic()
        return np.asarray(vec, dtype=np.int64)[..., pos_of]

    def from_natural(self, vec):
        _, _, exps, _ = self._require_cyclic()
        return np.asarray(vec, dtype=np.int64)[..., exps]

    # -- encoding / membership --

    def encode(self, message):
        msg = np.asarray(message, dtype=np.int64)
        if msg.shape[-1] != self.k:
            raise DimensionOutOfRange(
                f"message length {msg.shape[-1]} != k={self.k}")
        pad = np.zeros(msg.shape[:-1] + (self.n,), dtype=np.int64)
        pad[..., :self.k] = msg
        return self.plan.forward(pad)

    def message_from_word(self, word):
        return self.plan.inverse(word)[..., :self.k]

    def is_codeword(self, word) -> bool:
        co = self.plan.inverse(np.asarray(word, dtype=np.int64))
        return bool(np.all(co[..., self.k:] == 0))

    # -- folding (the interface the decoders in decoders.py use) --

    def fold_dims(self, level: int) -> list[int]:
        return row_dims(self.k, self.plan.block_size(level))

    def row_plan(self, level: int) -> GfftPlan:
        if level == self.plan.depth:
            raise ConfigInfeasible("fold level leaves no columns")
        return self.plan.sub_plan(level)

    def default_list_radius(self, level: int) -> int:
        return self.n - self.k - 2 * self.plan.block_size(level)

    # -- burst localization tables (cyclic) --

    def _ensure_locator_tables(self):
        xi, alpha, exps, pos_of = self._require_cyclic()
        if self._unit_plan is None:
            F = self.field
            n = self.n
            group = AffineGroupSpec(
                t=n, ell=infer_subfield_order(F, n), w_basis=[], gamma=1,
                t_factors=self.plan.factors, t_generator=alpha)
            self._unit_plan = plan_build(F, group)
            r = n - self.k
            nat = self.natural_points()
            lam1 = np.zeros(max(r, 1), dtype=np.int64)
            lam1[0] = 1
            for j in range(r - 1):
                shifted = np.zeros_like(lam1)
                shifted[1:] = lam1[:-1]
                lam1 = F.sub(lam1, F.mul(shifted, int(nat[j])))
            self._lam1 = lam1
            # delta_j = p_j / (n * xi^n): inverse of the node-difference
            # product for the coset x^n - xi^n
            n_elt = n % F.p
            denom = F.mul(n_elt, F.pow(xi, n))
            self._delta = F.mul(nat, F.inv(denom))
        return self._unit_plan


# ---------------------------------------------------------------------------
# Window vanishing polynomials
# ---------------------------------------------------------------------------

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


def plan_window_tables(plan: GfftPlan, start: int, length: int,
                       cyclic: bool = False):
    """Cached (mask, lam_values, lam_derivative_values) for an erasure window
    on a plan: the index window [start, start+length), or with cyclic=True
    the exponent window start, start+1, .. (mod n) of a cyclic plan, whose
    nodes are xi*alpha^e = points[pos_of[e]] wherever they sit in the
    enumeration."""
    if cyclic:
        start %= plan.n
    key = (cyclic, start, length)
    cache = plan._window_cache
    if key not in cache:
        mask = np.zeros(plan.n, dtype=bool)
        if cyclic:
            _, _, _, pos_of = plan.cyclic()
            idx = pos_of[(start + np.arange(length)) % plan.n]
            mask[idx] = True
            lam_co = np.zeros(plan.n, dtype=np.int64)
            coeffs = vanisher_from_nodes(plan.field, plan.points[idx])
            lam_co[:len(coeffs)] = coeffs
            lam = plan.forward(lam_co)
        else:
            mask[start:start + length] = True
            lam = window_vanisher_values(plan, start, length)
            lam_co = plan.inverse(lam)
        lamp = plan.forward(composite_derivative(plan, lam_co))
        cache[key] = (mask, lam, lamp)
    return cache[key]


def window_vanisher_values(plan: GfftPlan, start: int, length: int) -> np.ndarray:
    """Values of the vanishing polynomial of points[start:start+length] at all
    plan points, assembled from aligned chain blocks: a full level-s block is
    the root set of (x_s - its value), so the window factors into at most
    O(max_radix * depth) such terms."""
    F = plan.field
    n = plan.n
    if not (0 <= start and start + length <= n):
        raise WindowTooLong("window exceeds the point range")
    lam = np.ones(n, dtype=np.int64)
    cur = start
    end = start + length
    while cur < end:
        size = 1
        lev = 0
        for s in range(plan.depth, -1, -1):
            m = plan.ms[s]
            if cur % m == 0 and cur + m <= end:
                size, lev = m, s
                break
        const = int(plan.gen[lev][cur])
        piece = F.sub(plan.gen[lev], const)
        lam = F.mul(lam, piece)
        cur += size
    return lam


# ---------------------------------------------------------------------------
# Erasure decoding
# ---------------------------------------------------------------------------

def erasure_fill_batch(plan: GfftPlan, received, mask, lam_vals, lamp_vals,
                       k: int):
    """Fill the masked window of each received word with the unique degree<k
    extension of the unmasked values; returns (candidates, coefficients, ok).

    ok[i] is True when the filled word is a codeword, i.e. when the unmasked
    part of received[i] is consistent with some degree<k polynomial.
    """
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


def erasure_decode(code: RsCode, received, window):
    """Recover the codeword given that all errors lie inside window.

    window = (start, length) in enumeration order; for cyclic codes a
    negative start -s means the cyclic exponent window starting at exponent
    s-1 (wrap-around allowed).  Returns (message, codeword); raises
    WindowTooLong or NotACodeword.
    """
    start, length = window
    if length > code.n - code.k:
        raise WindowTooLong(
            f"window length {length} exceeds n-k = {code.n - code.k}")
    if length < 0 or (start >= 0 and start + length > code.n):
        raise WindowTooLong("window out of range")
    cyclic = start < 0
    if cyclic:
        code._require_cyclic()
        start = -start - 1
    mask, lam, lamp = plan_window_tables(code.plan, start, length, cyclic)
    cand, coeffs, ok = erasure_fill_batch(
        code.plan, received, mask, lam, lamp, code.k)
    if not ok:
        raise NotACodeword("received word inconsistent outside the window")
    return coeffs[:code.k], cand


# ---------------------------------------------------------------------------
# Cyclic burst localization
# ---------------------------------------------------------------------------

def syndrome(code: RsCode, received) -> np.ndarray:
    """Weighted power sums S_i = sum_j r_j delta_j p_j^i for i < n-k, where
    p_j runs in exponent order; all-zero iff received is a codeword."""
    return _syndromes(code, np.asarray(received, dtype=np.int64)[None])[0]


def _syndromes(code: RsCode, rcv_plan_order: np.ndarray) -> np.ndarray:
    unit = code._ensure_locator_tables()
    F = code.field
    xi, alpha, exps, pos_of = code.plan.cyclic()
    r = code.n - code.k
    nat = rcv_plan_order[:, pos_of]
    u = F.mul(nat, code._delta[None, :])
    uvals = unit.forward(u)
    shat = np.empty_like(uvals)
    shat[:, exps] = uvals
    xi_pows = F.geometric(xi, max(r, 1))
    return F.mul(shat[:, :r], xi_pows[None, :r])


def check_polynomial(code: RsCode, synd: np.ndarray) -> np.ndarray:
    """Gamma_i = S_{r-1-i} * Lam1_i where Lam1 vanishes at the inverses of
    the first r-1 points (exponent order)."""
    code._ensure_locator_tables()
    return code.field.mul(synd[..., ::-1], code._lam1)


def _root_mask(code: RsCode, gamma: np.ndarray) -> np.ndarray:
    """mask[t, e] = True iff Gamma_t(alpha^e) == 0."""
    unit = code._ensure_locator_tables()
    _, _, exps, _ = code.plan.cyclic()
    pad = np.zeros((gamma.shape[0], code.n), dtype=np.int64)
    pad[:, :gamma.shape[1]] = gamma
    vals = unit.forward(pad)
    mask = np.empty((gamma.shape[0], code.n), dtype=bool)
    mask[:, exps] = vals == 0
    return mask


def _cyclic_runs(mask: np.ndarray):
    """Longest cyclic run of True per row: (length, top_index, ambiguous).
    Ties keep the smallest top index and set the ambiguous flag."""
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


def longest_root_run(code: RsCode, gamma_coeffs):
    """Longest cyclic run of group-element roots of the given polynomial:
    returns (top_exponent, run_length, ambiguous); raises NoRootRun if the
    polynomial (nonzero) has no root on the group."""
    code._require_cyclic()
    g = np.asarray(gamma_coeffs, dtype=np.int64)[None]
    if np.all(g == 0):
        return (0, code.n, False)
    mask = _root_mask(code, g)
    best, btop, amb = _cyclic_runs(mask)
    if int(best[0]) == 0:
        raise NoRootRun("no group roots")
    return (int(btop[0]), int(best[0]), bool(amb[0]))


# ---------------------------------------------------------------------------
# Burst decoding (localization + erasure fill)
# ---------------------------------------------------------------------------

@dataclass
class WuOutcome:
    """Result of one burst decode: status 'ok' or 'detected'; the candidate
    codeword (enumeration order), the inferred cyclic exponent window
    (start exponent, length), and tie-break/ambiguity information."""
    status: str
    codeword: np.ndarray | None
    window: tuple[int, int] | None
    run_length: int
    ambiguous: bool


def wu_decode(code: RsCode, received, e: int = 1) -> WuOutcome:
    return wu_decode_batch(code, np.asarray(received, dtype=np.int64)[None],
                           e)[0]


def wu_decode_batch(code: RsCode, received: np.ndarray, e: int = 1):
    """Locate-and-fill burst decoding of a batch, vectorized.

    A candidate is accepted only when the root run leaves margin e, i.e.
    run length >= e+1, bounding the miscorrection probability by ~q^-e."""
    F = code.field
    n, k = code.n, code.k
    r = n - k
    rcv = np.asarray(received, dtype=np.int64)
    B = rcv.shape[0]
    synd = _syndromes(code, rcv)
    no_err = np.all(synd == 0, axis=1)
    gamma = check_polynomial(code, synd)
    gamma_zero = np.all(gamma == 0, axis=1) & ~no_err
    mask = _root_mask(code, gamma)
    mask[no_err | gamma_zero] = False
    best, btop, amb = _cyclic_runs(mask)
    results: list[WuOutcome | None] = [None] * B
    for t in np.flatnonzero(no_err):
        results[t] = WuOutcome("ok", rcv[t].copy(), (0, 0), int(best[t]),
                               False)
    active = ~no_err
    rejected = active & (best < e + 1)
    for t in np.flatnonzero(rejected):
        results[t] = WuOutcome("detected", None, None, int(best[t]),
                               bool(amb[t]))
    todo = np.flatnonzero(active & ~rejected)
    if todo.size:
        lhat = r - best
        start_exp = btop
        labels = {}
        for t in todo:
            labels.setdefault((int(start_exp[t]), int(lhat[t])), []).append(t)
        for (e0, ln), rows in labels.items():
            rows = np.asarray(rows)
            wmask, lam, lamp = plan_window_tables(code.plan, e0, ln,
                                                  cyclic=True)
            cand, _, ok = erasure_fill_batch(
                code.plan, rcv[rows], wmask, lam, lamp, k)
            for i, t in enumerate(rows):
                if ok[i]:
                    results[t] = WuOutcome("ok", cand[i], (e0, ln),
                                           int(best[t]), bool(amb[t]))
                else:
                    results[t] = WuOutcome("detected", None, (e0, ln),
                                           int(best[t]), bool(amb[t]))
    return results
