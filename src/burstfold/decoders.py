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
from .rs import RsCode, erasure_fill_batch, plan_window_tables, wu_decode_batch


@dataclass
class UniqueOutcome:
    """status 'ok' or 'detected'; codeword in enumeration order; col_window
    is the (start, length) column interval the correction used (None when no
    correction was needed or the decode failed)."""
    status: str
    codeword: np.ndarray | None
    col_window: tuple[int, int] | None
    ambiguous: bool


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
    classes = _row_classes(dims, B, m)
    found: list[dict[bytes, np.ndarray]] = [dict() for _ in range(B)]
    for a in range(kmax + 1):
        mask, lam, lamp = plan_window_tables(sub, a, W)
        cand_rows = np.empty_like(rows_flat)
        ok_rows = np.zeros(B * m, dtype=bool)
        for kd, flat in classes.items():
            c, _, ok = erasure_fill_batch(sub, rows_flat[flat], mask, lam,
                                          lamp, kd)
            cand_rows[flat] = c
            ok_rows[flat] = ok
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
    classes = _row_classes(dims, B, m)
    row_codes = {kd: RsCode(sub, kd) for kd in classes}
    row_ok = np.zeros(B * m, dtype=bool)
    row_start = np.zeros(B * m, dtype=np.int64)
    row_len = np.zeros(B * m, dtype=np.int64)
    row_amb = np.zeros(B * m, dtype=bool)
    cand_rows = rows_flat.copy()
    for kd, flat in classes.items():
        outs = wu_decode_batch(row_codes[kd], rows_flat[flat], e)
        for j, t in enumerate(flat):
            o = outs[j]
            if o.status == "ok":
                row_ok[t] = True
                row_start[t], row_len[t] = o.window
                cand_rows[t] = o.codeword
            row_amb[t] = o.ambiguous
    statuses = ["ok"] * B
    col_windows: list[tuple[int, int] | None] = [None] * B
    ambiguous = np.zeros(B, dtype=bool)
    dims_arr = np.asarray(dims)
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
            # every row corrected itself -- a row may legitimately report a
            # sub-window of the vector burst (its components can vanish on a
            # boundary column), so keep the per-row corrections and let the
            # final burst check arbitrate
            col_windows[t] = max(nz, key=lambda w: w[1]) if nz else None
            continue
        # some rows failed: re-erase everything on a window covering all the
        # successful reports (covering is safe; an exact-label vote is not)
        cap = n_s - kmax - e
        cover = _cover_window(nz, n_s) if nz else None
        if cover is None or cover[1] > cap:
            votes = Counter(w for w in nz if w[1] <= cap)
            if not votes:
                statuses[t] = "detected"
                continue
            top = max(votes.values())
            cover = min(w for w, c in votes.items() if c == top)
        col_windows[t] = cover
        mask, lam, lamp = plan_window_tables(sub, cover[0], cover[1],
                                             cyclic=True)
        for i in range(m):
            c, _, ok1 = erasure_fill_batch(
                sub, rows_flat[t * m + i], mask, lam, lamp,
                int(dims_arr[i]))
            if not ok1:
                statuses[t] = "detected"
                break
            cand_rows[t * m + i] = c
    cands = plan.tau_inverse(fold_level, cand_rows.reshape(B, m, n_s))
    within = _burst_within(F, rcv, cands, radius)
    outcomes = []
    for t in range(B):
        if statuses[t] == "ok" and within[t]:
            outcomes.append(UniqueOutcome(
                "ok", cands[t], col_windows[t], bool(ambiguous[t])))
        else:
            outcomes.append(UniqueOutcome(
                "detected", None, col_windows[t], bool(ambiguous[t])))
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
        code.plan, fold_level, code.fold_dims(fold_level), received, radius,
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
            f"burst decoding failed (column window {out.col_window})")
    return code.message_from_word(out.codeword), out.codeword, out


def unique_decode_batch(code, received, fold_level: int, e: int = 1,
                        radius: int | None = None, strict: bool = False):
    if radius is None:
        radius = default_unique_radius(code, fold_level, e)
    rcv = np.asarray(received, dtype=np.int64).reshape(-1, code.n)
    return interleaved_unique_decode(
        code.plan, fold_level, code.fold_dims(fold_level), rcv, e=e,
        radius=radius, strict=strict, row_plan=code.row_plan(fold_level))
