"""Burst decoders for folded (interleaved) codes.

Both decoders view a length-n code through the level-s fold: the transform
correspondence turns one codeword into m_s component codewords of length
n_s = n/m_s, and an index burst of length L in the long word touches at most
floor(L/m_s)+2 consecutive columns of the fold.

list_decode erasure-fills every length-(n_s - kmax) column window; any
window containing the burst yields the transmitted word, so the output list
(deduplicated, canonically sorted) contains it whenever the burst is within
radius.  unique_decode instead lets each component code locate its own burst
window by root-run analysis with confidence margin e, cross-checks the rows'
windows by majority, and verifies the assembled word; it trades the
guarantee for a single answer with miscorrection probability ~ m_s/q^e.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ConfigInfeasible, DetectedFailure
from .folding import folded_burst_bound
from .gfft import GfftPlan
from .rs import (
    BURST_CHECK,
    NO_COVER,
    NO_ROW_OK,
    REASONS,
    REERASE_INCONSISTENT,
    STRICT_ROW_FAILED,
    cyclic_window_tables,
    erasure_fill_batch,
    plan_window_tables,
    row_code,
    wu_decode_batch,
)


@dataclass
class UniqueOutcome:
    """status 'ok' or 'detected'; codeword in enumeration order; col_window
    is the (start, length) column interval the correction used (None when no
    correction was needed or the decode failed); reason names why a
    'detected' decode failed (see rs.REASONS)."""
    status: str
    codeword: np.ndarray | None
    col_window: tuple[int, int] | None
    ambiguous: bool
    reason: str | None = None


def _burst_within(field, rcv, cands, radius):
    diff = field.sub(rcv, cands)
    nz = diff != 0
    any_ = nz.any(axis=1)
    first = nz.argmax(axis=1)
    last = rcv.shape[1] - 1 - nz[:, ::-1].argmax(axis=1)
    return ~any_ | ((last - first + 1) <= radius)


def _cover_window(wins, n):
    """Shortest cyclic interval (start, length) containing every given
    (start, length) window; None when nothing fits inside one period."""
    best = None
    for s, _ in wins:
        need = max(((ws - s) % n) + wl for ws, wl in wins)
        if need <= n and (best is None or need < best[1]
                          or (need == best[1] and s < best[0])):
            best = (s, need)
    return best


def _row_classes(dims, batch, m):
    """Map each distinct row dimension to the flat row indices holding it."""
    by_dim: dict[int, list[int]] = {}
    for i, kd in enumerate(dims):
        by_dim.setdefault(kd, []).append(i)
    return {kd: (np.arange(batch)[:, None] * m
                 + np.asarray(ix)[None, :]).ravel()
            for kd, ix in by_dim.items()}


def interleaved_list_decode(plan: GfftPlan, fold_level: int, dims, received,
                            radius: int, row_plan: GfftPlan | None = None):
    """Generic core: returns a list of candidate codewords per input word."""
    m = plan.block_size(fold_level)
    n_s = plan.n // m
    kmax = max(dims)
    W = n_s - kmax
    if W < 1:
        raise ConfigInfeasible(f"no erasure window: row dimension {kmax} "
                               f"fills the {n_s} columns")
    if radius < 0 or folded_burst_bound(radius, m) > W:
        raise ConfigInfeasible(
            f"radius {radius} folds onto {folded_burst_bound(radius, m)} "
            f"columns but windows have only {W}")
    sub = row_plan if row_plan is not None else plan.sub_plan(fold_level)
    F = plan.field
    rcv = np.asarray(received, dtype=np.int64)
    single = rcv.ndim == 1
    if single:
        rcv = rcv[None]
    B = rcv.shape[0]
    rows_flat = plan.tau_forward(fold_level, rcv).reshape(B * m, n_s)
    row_k = np.tile(np.asarray(dims), B)
    found: list[dict[bytes, np.ndarray]] = [dict() for _ in range(B)]
    for a in range(kmax + 1):
        cand_rows, _, ok_rows = erasure_fill_batch(
            sub, rows_flat, *plan_window_tables(sub, a, W), row_k)
        trial_ok = ok_rows.reshape(B, m).all(axis=1)
        if not trial_ok.any():
            continue
        cands = plan.tau_inverse(fold_level, cand_rows.reshape(B, m, n_s))
        keep = trial_ok & _burst_within(F, rcv, cands, radius)
        for t in np.flatnonzero(keep):
            found[t].setdefault(cands[t].tobytes(), cands[t].copy())
    out = [[v for _, v in sorted(d.items())] for d in found]
    return out[0] if single else out


def interleaved_unique_decode(plan: GfftPlan, fold_level: int, dims, received,
                              e: int, radius: int, strict: bool = False,
                              row_plan: GfftPlan | None = None):
    """Generic core: one UniqueOutcome per input word."""
    m = plan.block_size(fold_level)
    n_s = plan.n // m
    kmax = max(dims)
    if min(dims) < 1:
        raise ConfigInfeasible("every row needs dimension >= 1")
    if e < 0:
        raise ConfigInfeasible(f"root-run margin e={e} is negative")
    sub = row_plan if row_plan is not None else plan.sub_plan(fold_level)
    cyc = sub.cyclic()
    if cyc is None or not np.array_equal(cyc[2], np.arange(sub.n)):
        raise ConfigInfeasible(
            "fold level quotient is not cyclic in natural order; "
            "burst localization needs points[j] = xi*alpha^j there")
    if radius < 0 or folded_burst_bound(radius, m) >= n_s - kmax - e:
        raise ConfigInfeasible(
            f"radius {radius} folds onto {folded_burst_bound(radius, m)} "
            f"columns; need strictly fewer than {n_s - kmax - e}")
    F = plan.field
    rcv = np.asarray(received, dtype=np.int64)
    single = rcv.ndim == 1
    if single:
        rcv = rcv[None]
    B = rcv.shape[0]
    rows_flat = plan.tau_forward(fold_level, rcv).reshape(B * m, n_s)
    row_ok = np.zeros(B * m, dtype=bool)
    row_start = np.zeros(B * m, dtype=np.int64)
    row_len = np.zeros(B * m, dtype=np.int64)
    row_amb = np.zeros(B * m, dtype=bool)
    cand_rows = rows_flat.copy()
    for kd, flat in _row_classes(dims, B, m).items():
        outs = wu_decode_batch(row_code(sub, kd), rows_flat[flat], e)
        acc = flat[outs.ok]
        row_ok[acc] = True
        row_start[acc] = outs.start[outs.ok]
        row_len[acc] = outs.length[outs.ok]
        row_amb[flat] = outs.ambiguous
        cand_rows[acc] = outs.codewords[outs.ok]
        del outs  # free the class's candidates before the next class runs
    oks = row_ok.reshape(B, m)
    starts = row_start.reshape(B, m)
    lens = row_len.reshape(B, m)
    ambiguous = row_amb.reshape(B, m).any(axis=1)
    all_ok = oks.all(axis=1)
    reason = np.zeros(B, dtype=np.int8)
    col_start = np.full(B, -1, dtype=np.int64)  # -1: no column window
    col_len = np.full(B, -1, dtype=np.int64)
    if strict:
        reason[~all_ok] = STRICT_ROW_FAILED
        for t in np.flatnonzero(all_ok):
            wins = {(int(s), int(l)) for s, l in zip(starts[t], lens[t])}
            col_start[t], col_len[t] = max(wins, key=lambda w: w[1])
        fallback = ()
    else:
        reason[~oks.any(axis=1)] = NO_ROW_OK
        # every row corrected itself -- a row may legitimately report a
        # sub-window of the vector burst (its components can vanish on a
        # boundary column), so keep the per-row corrections, report the
        # first longest row window and let the final burst check arbitrate
        top = np.where(oks, lens, 0).argmax(axis=1)
        top_len = lens[np.arange(B), top]
        win = all_ok & (top_len > 0)
        col_start[win] = starts[win, top[win]]
        col_len[win] = top_len[win]
        fallback = np.flatnonzero(~all_ok & (reason == 0))
    cap = n_s - kmax - e
    for t in fallback:
        # some rows failed: re-erase everything on a window covering all the
        # successful reports (covering is safe; an exact-label vote is not)
        nz = [(int(s), int(l)) for s, l, o in zip(starts[t], lens[t], oks[t])
              if o and l > 0]
        cover = _cover_window(nz, n_s) if nz else None
        if cover is None or cover[1] > cap:
            votes = Counter(w for w in nz if w[1] <= cap)
            if not votes:
                reason[t] = NO_COVER
                continue
            top_votes = max(votes.values())
            cover = min(w for w, c in votes.items() if c == top_votes)
        col_start[t], col_len[t] = cover
        rows = slice(t * m, (t + 1) * m)
        cand_rows[rows], _, ok = erasure_fill_batch(
            sub, rows_flat[rows], *cyclic_window_tables(sub, *cover), dims)
        if not ok.all():
            reason[t] = REERASE_INCONSISTENT
    cands = plan.tau_inverse(fold_level, cand_rows.reshape(B, m, n_s))
    within = _burst_within(F, rcv, cands, radius)
    reason[(reason == 0) & ~within] = BURST_CHECK
    outcomes = []
    for t, (why, s, ln, amb) in enumerate(zip(
            reason.tolist(), col_start.tolist(), col_len.tolist(),
            ambiguous.tolist())):
        window = None if s < 0 else (s, ln)
        if why:
            outcomes.append(UniqueOutcome("detected", None, window, amb,
                                          REASONS[why]))
        else:
            outcomes.append(UniqueOutcome("ok", cands[t], window, amb))
    return outcomes[0] if single else outcomes


# ---------------------------------------------------------------------------
# Front ends
# ---------------------------------------------------------------------------
# A code object here is an RsCode or a HermitianCode: anything with plan, n,
# fold_dims(level), row_plan(level), default_list_radius(level) and
# message_from_word(word).

def default_unique_radius(code, fold_level: int, e: int) -> int:
    m = code.plan.block_size(fold_level)
    return m * (code.n // m - max(code.fold_dims(fold_level)) - e - 2) - 1


def list_decode(code, received, fold_level: int, radius: int | None = None):
    """All codewords within an index-burst of the given radius; the
    transmitted word is guaranteed to appear when its burst fits.  A batch
    of words gives one list per word."""
    if radius is None:
        radius = code.default_list_radius(fold_level)
    return interleaved_list_decode(
        code.plan, fold_level, code.fold_dims(fold_level),
        code.plan.field.check_symbols(received), radius,
        row_plan=code.row_plan(fold_level))


def list_decode_batch(code, received, fold_level: int,
                      radius: int | None = None):
    rcv = np.asarray(received, dtype=np.int64).reshape(-1, code.n)
    return list_decode(code, rcv, fold_level, radius)


def unique_decode(code, received, fold_level: int, e: int = 1,
                  radius: int | None = None, strict: bool = False):
    """Single-answer burst decoding; raises DetectedFailure when the rows
    cannot agree on a correction.  Returns (message, codeword, outcome)."""
    out = unique_decode_batch(code, np.asarray(received)[None], fold_level,
                              e=e, radius=radius, strict=strict)[0]
    if out.status != "ok":
        raise DetectedFailure(
            f"burst decoding failed: {out.reason} "
            f"(column window {out.col_window})")
    return code.message_from_word(out.codeword), out.codeword, out


def unique_decode_batch(code, received, fold_level: int, e: int = 1,
                        radius: int | None = None, strict: bool = False):
    if radius is None:
        radius = default_unique_radius(code, fold_level, e)
    rcv = code.plan.field.check_symbols(received).reshape(-1, code.n)
    return interleaved_unique_decode(
        code.plan, fold_level, code.fold_dims(fold_level), rcv, e=e,
        radius=radius, strict=strict, row_plan=code.row_plan(fold_level))
