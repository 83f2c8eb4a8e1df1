"""Reed-Solomon codes over chain-transform plans.

A code is the set of evaluations of composite-basis polynomials of degree
< k on a plan's point set, in the plan's enumeration order.  Erasure
decoding inside a window takes two transforms: the interpolant co of the
received word times the window's vanishing polynomial lam, then the values
of co's derivative, which divided by lam' give the erased symbols.  The
composite basis is degree graded, so the word is consistent outside the
window iff co has degree < k + |window|.  Window tables are closed forms,
with no transform and no cache.  Burst localization for cyclic (coset)
point sets uses the syndrome-times-window-vanisher check polynomial whose
root run on the group pins down the burst interval; the composite basis is
then the monomial one, so syndromes and root masks come from the code's own
plan.

When the chain has more than one multiplicative factor the enumeration is
the decimated (butterfly) order, not the exponent order xi*alpha^(j-1); the
plan's cyclic() keeps the exponent permutation alongside so that
cyclic-window logic can convert freely.  Folding-based decoders always work
in enumeration order; windows there are index windows.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigInfeasible,
    CyclicStructureAbsent,
    DimensionOutOfRange,
    LevelOutOfRange,
    NoRootRun,
    NotACodeword,
    WindowTooLong,
)
from .fields import Field
from .folding import row_dims
from .gfft import GfftPlan, composite_derivative


def _require_cyclic(plan: GfftPlan):
    cyc = plan.cyclic()
    if cyc is None:
        raise CyclicStructureAbsent(
            "plan points are not a cyclic coset in decimation order")
    return cyc


class RsCode:
    """Evaluation code of dimension k on a plan's points."""

    def __init__(self, plan: GfftPlan, k: int):
        if not 1 <= k <= plan.n:
            raise DimensionOutOfRange(f"k={k} outside 1..{plan.n}")
        self.plan = plan
        self.field: Field = plan.field
        self.n = plan.n
        self.k = k
        self._lam1 = None
        self._xi_inv_pows = None

    # -- cyclic structure --

    def natural_points(self) -> np.ndarray:
        """Points reordered so entry e is xi*alpha^e."""
        xi, alpha, _, _ = _require_cyclic(self.plan)
        return self.field.geometric(alpha, self.n, first=xi)

    def to_natural(self, vec):
        _, _, _, pos_of = _require_cyclic(self.plan)
        return np.asarray(vec, dtype=np.int64)[..., pos_of]

    def from_natural(self, vec):
        _, _, exps, _ = _require_cyclic(self.plan)
        return np.asarray(vec, dtype=np.int64)[..., exps]

    # -- encoding / membership --

    def encode(self, message):
        msg = self.field.check_symbols(message)
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
        xi = _require_cyclic(self.plan)[0]
        if self._lam1 is None:
            F = self.field
            r = self.n - self.k
            nat = self.natural_points()
            lam1 = np.zeros(max(r, 1), dtype=np.int64)
            lam1[0] = 1
            for j in range(r - 1):  # times (1 - nat[j] x)
                lam1[1:] = F.sub(lam1[1:], F.mul(lam1[:-1], int(nat[j])))
            self._lam1 = lam1
            self._xi_inv_pows = F.geometric(F.inv(xi), self.n)


def row_code(plan: GfftPlan, k: int) -> RsCode:
    """The dimension-k code on plan, kept on the plan so that its locator
    tables are built once per plan rather than once per decode."""
    codes = plan._row_codes
    if k not in codes:
        codes[k] = RsCode(plan, k)
    return codes[k]


# ---------------------------------------------------------------------------
# Window vanishing polynomials
# ---------------------------------------------------------------------------

def plan_window_tables(plan: GfftPlan, start: int, length: int):
    """(mask, lam_values, lam_derivative_values) for the index window
    [start, start+length) of a plan, lam' on the window and 0 elsewhere.
    lam is the product of the block pieces P_B, each vanishing exactly on
    its block B, so on B lam' = P_B' * (the product of the other pieces).
    With (w, cs) = plan.deriv_info, P_B' = gen[l]' is cs[l] at a level
    l <= w, and R cs[w] gen[w]^(R-1) above, where gen[l] = gen[w]^R."""
    blocks = _window_blocks(plan, start, length)
    if plan.deriv_info is None:
        raise LevelOutOfRange("plan carries no differentiation structure")
    w, cs = plan.deriv_info
    F, n = plan.field, plan.n
    mask = np.zeros(n, dtype=bool)
    mask[start:start + length] = True
    rest = np.ones(n, dtype=np.int64)  # the pieces not vanishing there
    dpiece = np.zeros(n, dtype=np.int64)  # 0 off the window
    for lev, cur, piece in blocks:
        rest = F.mul(rest, np.where(piece == 0, 1, piece))
        blk = slice(cur, cur + plan.ms[lev])
        if lev <= w:
            dpiece[blk] = cs[lev]
        else:
            R = plan.ms[lev] // plan.ms[w]
            dpiece[blk] = F.mul(F.mul(R % F.p, cs[w]),
                                F.pow(plan.gen[w][blk], R - 1))
    return mask, np.where(mask, 0, rest), F.mul(dpiece, rest)


def cyclic_window_tables(plan: GfftPlan, start: int, length: int):
    """(mask, lam_values, lam_derivative_values) for the exponent window
    start, start+1, .. (mod n) of a cyclic plan, lam' on the window and 0
    elsewhere.  With s = start, L = length and D = e - s, the nodes
    xi*alpha^(s+i) give
        lam(xi*alpha^e) = xi^L alpha^(sL + L(L-1)/2) P(D),
        lam'(xi*alpha^(s+D)) = xi^(L-1) alpha^(s(L-1) + L(L-1)/2 - D) P(D),
    where P(D) is the product of (alpha^d - 1) over d in [D-L+1, D], d != 0,
    a sliding sum of logs over a doubled prefix array.  The factor d = 0
    makes lam vanish exactly on the window, D < L (mod n)."""
    xi, alpha, exps, _ = _require_cyclic(plan)
    F = plan.field
    n, q1, L = plan.n, F.q - 1, length
    s = start % n
    la, lx = int(F._log[alpha]), int(F._log[xi])
    logs = F._log[F.sub(F.geometric(alpha, n), 1)]  # log[0] = 0 drops d = 0
    prefix = np.concatenate([[0], np.cumsum(np.tile(logs, 2))])
    D = (np.arange(n) - s) % n
    lo = (D - L + 1) % n
    slide = prefix[lo + L] - prefix[lo]
    on = D < L
    tri = L * (L - 1) // 2
    lam = np.where(on, 0, F._exp[(slide + L * lx + (s * L + tri) * la) % q1])
    lamp = np.where(on, F._exp[(slide + (L - 1) * lx
                                + (s * (L - 1) + tri - D) * la) % q1], 0)
    return on[exps], lam[exps], lamp[exps]  # exponent -> enumeration order


def _window_blocks(plan: GfftPlan, start: int, length: int):
    """(level, first index, piece) for the aligned chain blocks that tile
    points[start:start+length]: a full level-s block is the root set of the
    piece gen[s] - (its value there), at most O(max_radix * depth) pieces."""
    if not (0 <= start and start + length <= plan.n):
        raise WindowTooLong("window exceeds the point range")
    F = plan.field
    blocks = []
    cur, end = start, start + length
    while cur < end:
        lev = next(s for s in range(plan.depth, -1, -1)
                   if cur % plan.ms[s] == 0 and cur + plan.ms[s] <= end)
        blocks.append((lev, cur, F.sub(plan.gen[lev], int(plan.gen[lev][cur]))))
        cur += plan.ms[lev]
    return blocks


def window_vanisher_values(plan: GfftPlan, start: int, length: int) -> np.ndarray:
    """Values of the vanishing polynomial of points[start:start+length] at all
    plan points: the product of the window's block pieces."""
    lam = np.ones(plan.n, dtype=np.int64)
    for _, _, piece in _window_blocks(plan, start, length):
        lam = plan.field.mul(lam, piece)
    return lam


# ---------------------------------------------------------------------------
# Erasure decoding
# ---------------------------------------------------------------------------

def erasure_fill_batch(plan: GfftPlan, received, mask, lam_vals, lamp_vals, k):
    """Fill the masked window of each received row with the unique extension
    of degree < k of its unmasked values; returns (candidates, co, ok).

    co is the interpolant of lam * received, a multiple of lam of degree
    < n.  ok[i] is True when the unmasked part of received[i] agrees with
    some polynomial of degree < k, i.e. when co[i] has no nonzero coefficient
    at an index >= k + |window|.  k is one dimension for every row or an
    array of one per row.
    """
    F = plan.field
    rcv = np.asarray(received, dtype=np.int64)
    co = plan.inverse(F.mul(rcv, lam_vals[None, :]))  # lam is 0 on the window
    top = np.reshape(np.asarray(k) + np.count_nonzero(mask), (-1, 1))
    lo = int(top.min())  # columns below every row's bound need no test
    ok = ~np.any((co[:, lo:] != 0) & (np.arange(lo, plan.n) >= top), axis=1)
    Fp = plan.forward(composite_derivative(plan, co))
    cand = np.where(mask, F.div(Fp, np.where(mask, lamp_vals, 1)), rcv)
    return cand, co, ok


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
    if start < 0:
        tables = cyclic_window_tables(code.plan, -start - 1, length)
    else:
        tables = plan_window_tables(code.plan, start, length)
    cand, _, ok = erasure_fill_batch(
        code.plan, code.field.check_symbols(received)[None], *tables, code.k)
    if not ok[0]:
        raise NotACodeword("received word inconsistent outside the window")
    return code.message_from_word(cand[0]), cand[0]


# ---------------------------------------------------------------------------
# Cyclic burst localization
# ---------------------------------------------------------------------------

def syndrome(code: RsCode, received) -> np.ndarray:
    """S_i = c_(n-1-i) for i < n-k, the top coefficients of the received
    word's interpolant c, which are the power sums (1/n) sum_j r_j
    p_j^-(n-1-i); all-zero iff received is a codeword."""
    return _syndromes(code, np.asarray(received, dtype=np.int64)[None])[0]


def _syndromes(code: RsCode, rcv_plan_order: np.ndarray) -> np.ndarray:
    # on a cyclic coset every generator is a power of x, so the composite
    # basis is the monomial one
    code._ensure_locator_tables()
    return code.plan.inverse(rcv_plan_order)[:, :code.k - 1:-1]


def check_polynomial(code: RsCode, synd: np.ndarray) -> np.ndarray:
    """Gamma_i = S_{r-1-i} * Lam1_i where Lam1 vanishes at the inverses of
    the first r-1 points (exponent order)."""
    code._ensure_locator_tables()
    return code.field.mul(synd[..., ::-1], code._lam1)


def _root_mask(code: RsCode, gamma: np.ndarray) -> np.ndarray:
    """mask[t, e] = True iff Gamma_t(alpha^e) == 0, read off the plan's
    values of Gamma~_i = Gamma_i xi^-i: Gamma~(xi alpha^e) = Gamma(alpha^e)."""
    code._ensure_locator_tables()
    _, _, exps, _ = code.plan.cyclic()
    width = gamma.shape[1]
    pad = np.zeros((gamma.shape[0], code.n), dtype=np.int64)
    pad[:, :width] = code.field.mul(gamma, code._xi_inv_pows[:width])
    mask = np.empty((gamma.shape[0], code.n), dtype=bool)
    mask[:, exps] = code.plan.forward(pad) == 0
    return mask


def _cyclic_runs(mask: np.ndarray):
    """Longest cyclic run of True per row: (length, top_index, ambiguous).
    The run ending at index e has length e minus the last False index at or
    before e, where a run with no False before it in its row wraps around
    and starts after the row's last False (capped at n for an all-True
    row).  Ties keep the smallest top index and set the ambiguous flag; a
    row with no True has top index -1."""
    n = mask.shape[1]
    idx = np.arange(n, dtype=np.int32)
    last_false = np.where(mask, -1, idx)
    np.maximum.accumulate(last_false, axis=1, out=last_false)
    last_false = np.where(last_false >= 0, last_false,
                          last_false[:, -1:] - n)
    length = np.minimum(idx - last_false, n)
    best = length.max(axis=1).astype(np.int64)
    btop = np.where(best > 0, length.argmax(axis=1), -1).astype(np.int64)
    amb = (best > 0) & ((length == best[:, None]).sum(axis=1) > 1)
    return best, btop, amb


def longest_root_run(code: RsCode, gamma_coeffs):
    """Longest cyclic run of group-element roots of the given polynomial:
    returns (top_exponent, run_length, ambiguous); raises NoRootRun if the
    polynomial (nonzero) has no root on the group."""
    _require_cyclic(code.plan)
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

# Why a decode reported "detected".  Reason arrays hold indices into REASONS,
# 0 where the decode succeeded.  Row reasons, from wu_decode_batch:
#   short_run             the longest root run is shorter than e+1
#   gamma_zero            the check polynomial is all zero
#   fill_inconsistent     the word disagrees with the code outside the window
# Word reasons, from the interleaved unique decoder in decoders.py:
#   no_row_ok             no row decoded itself
#   no_cover              some rows failed, and neither a window covering the
#                         other rows' reports nor any one report fits the cap
#   reerase_inconsistent  a row disagrees with the code outside that window
#   burst_check           the correction spans more than the radius
#   strict_row_failed     strict mode, and some row failed
# gamma_zero and fill_inconsistent guard the row decode: no received word has
# been seen to reach either (tests/test_decode_core.py patches the locator to
# make them fire).
REASONS = (None, "short_run", "gamma_zero", "fill_inconsistent",
           "no_row_ok", "no_cover", "reerase_inconsistent",
           "burst_check", "strict_row_failed")
(SHORT_RUN, GAMMA_ZERO, FILL_INCONSISTENT, NO_ROW_OK, NO_COVER,
 REERASE_INCONSISTENT, BURST_CHECK, STRICT_ROW_FAILED) = range(1, 9)


@dataclass
class WuOutcome:
    """Result of one burst decode: status 'ok' or 'detected'; the candidate
    codeword (enumeration order), the inferred cyclic exponent window
    (start exponent, length), tie-break/ambiguity information, and for a
    'detected' decode the name of its reason (see REASONS)."""
    status: str
    codeword: np.ndarray | None
    window: tuple[int, int] | None
    run_length: int
    ambiguous: bool
    reason: str | None = None


def _wu_outcome(ok, codeword, start, length, run, ambiguous, reason):
    return WuOutcome("ok" if ok else "detected", codeword if ok else None,
                     None if start < 0 else (start, length), run, ambiguous,
                     REASONS[reason])


@dataclass(eq=False)
class WuBatch(Sequence):
    """The outcomes of wu_decode_batch as arrays, one entry per row.
    Indexing (negative indices too) and iteration yield WuOutcome."""
    ok: np.ndarray          # the decode succeeded
    codewords: np.ndarray   # (B, n) candidates, meaningful where ok
    start: np.ndarray       # window start exponent, -1 for no window
    length: np.ndarray      # window length, -1 for no window
    run_length: np.ndarray  # longest cyclic root run
    ambiguous: np.ndarray   # that run was tied
    reason: np.ndarray      # index into REASONS, 0 where ok

    def __len__(self) -> int:
        return self.ok.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]
        return _wu_outcome(bool(self.ok[i]), self.codewords[i],
                           int(self.start[i]), int(self.length[i]),
                           int(self.run_length[i]), bool(self.ambiguous[i]),
                           int(self.reason[i]))

    def __iter__(self):
        return map(_wu_outcome, self.ok.tolist(), self.codewords,
                   self.start.tolist(), self.length.tolist(),
                   self.run_length.tolist(), self.ambiguous.tolist(),
                   self.reason.tolist())


def wu_decode(code: RsCode, received, e: int = 1) -> WuOutcome:
    return wu_decode_batch(code, np.asarray(received, dtype=np.int64)[None],
                           e)[0]


def wu_decode_batch(code: RsCode, received: np.ndarray, e: int = 1
                    ) -> WuBatch:
    """Locate-and-fill burst decoding of a batch, vectorized.

    A candidate is accepted only when the root run leaves margin e, i.e.
    run length >= e+1, bounding the miscorrection probability by ~q^-e.
    Rows are grouped by inferred window, one erasure fill per window."""
    if e < 0:
        raise ConfigInfeasible(f"root-run margin e={e} is negative")
    n, k = code.n, code.k
    r = n - k
    rcv = code.field.check_symbols(received)
    synd = _syndromes(code, rcv)
    no_err = np.all(synd == 0, axis=1)
    gamma = check_polynomial(code, synd)
    # Lam1's coefficients are q-binomials of the node ratio, never zero, so
    # gamma vanishes only with the syndrome; an all-zero gamma would make
    # every group element a root, so such a row is kept out of the scan
    gamma_zero = np.all(gamma == 0, axis=1) & ~no_err
    mask = _root_mask(code, gamma)
    mask[no_err | gamma_zero] = False
    best, btop, amb = _cyclic_runs(mask)
    del synd, gamma, mask  # free the locator arrays before the fills run
    ok = no_err.copy()
    start = np.where(no_err, 0, -1)
    length = start.copy()
    reason = np.where(no_err, 0, np.where(gamma_zero, GAMMA_ZERO, SHORT_RUN)
                      ).astype(np.int8)
    cand = rcv.copy()
    todo = np.flatnonzero(~no_err & (best >= e + 1))
    if todo.size:
        start[todo] = btop[todo]
        length[todo] = r - best[todo]
        # one label per window: start * (r+1) + length, grouped by sorting
        key = start[todo] * (r + 1) + length[todo]
        order = np.argsort(key, kind="stable")
        labels, first = np.unique(key[order], return_index=True)
        for label, rows in zip(labels.tolist(),
                               np.split(todo[order], first[1:])):
            e0, ln = divmod(label, r + 1)
            tables = cyclic_window_tables(code.plan, e0, ln)
            cand[rows], _, ok[rows] = erasure_fill_batch(
                code.plan, rcv[rows], *tables, k)
        reason[todo] = np.where(ok[todo], 0, FILL_INCONSISTENT)
    return WuBatch(ok, cand, start, length, best, amb, reason)
