"""The array decode core: rs.wu_decode_batch and the unique decoder's word
handling against their per-row and per-word references in reference.py,
one constructed word per reason code, the batch result's sequence
protocol, and the symbol-range check at the public entry points."""

import numpy as np
import pytest

from burstfold import rs
from burstfold.decoders import (
    default_unique_radius,
    interleaved_unique_decode,
    list_decode,
    list_decode_batch,
    unique_decode,
    unique_decode_batch,
)
from burstfold.errors import ConfigInfeasible, DetectedFailure, InvalidSymbol
from burstfold.fields import AffineGroupSpec, Field, get_field
from burstfold.gfft import plan_build
from burstfold.hermitian import HermitianCode, HermitianCurve
from burstfold.rs import RsCode, erasure_decode, wu_decode, wu_decode_batch

from reference import interleaved_unique_decode_loop, wu_decode_batch_loop


def gf256_code(group, k):
    F = Field.parse("2^8:0x11d")
    return RsCode(plan_build(F, AffineGroupSpec.parse(F, group)), k)


@pytest.fixture(scope="module")
def wu_code():
    """The cyclic code of the wu acceptance test: n=255, k=223."""
    return gf256_code("t=255,gamma=0x1", 223)


@pytest.fixture(scope="module")
def folded_code():
    """n=255, k=120, folded at level 1 into 15 rows of 17 points."""
    return gf256_code("t=255,gamma=0x1,tfactors=15;17", 120)


@pytest.fixture(scope="module")
def herm_code():
    """Hermitian kappa=4 over GF(16) on the cyclic base GF(16)^*: n=60,
    folded at level 2 into 16 rows of 15 points."""
    F = get_field(2, 4)
    base = plan_build(F, AffineGroupSpec(t=15, ell=2, w_basis=[], gamma=1,
                                         t_factors=[15]))
    return HermitianCode(HermitianCurve(F, 4), base, 20)


def cyclic_burst(code, rng, word, length, start):
    """word plus a burst on the exponents start .. start+length-1 (mod n)."""
    nat = code.to_natural(word)
    idx = (start + np.arange(length)) % code.n
    nat[idx] ^= rng.integers(1, code.field.q, length)
    return code.from_natural(nat)


def index_burst(F, rng, word, length, start):
    bad = word.copy()
    bad[start:start + length] ^= rng.integers(1, F.q, length)
    return bad


def patch_locator(monkeypatch, every, offset=0):
    """Patch two locator stages, in the fast path and the reference alike:
    in each batch, rows offset, offset+every, .. get an all-zero check
    polynomial, and rows offset+1, offset+1+every, .. with a root run get
    its top moved up by one exponent, so that their window misses the
    burst's first symbol.  No received word reaches either case by itself:
    Lam1 has no zero coefficient, and a root run always names a window the
    word is consistent with."""
    check_polynomial, cyclic_runs = rs.check_polynomial, rs._cyclic_runs

    def zero_gamma(code, synd):
        gamma = check_polynomial(code, synd)
        gamma[offset::every] = 0
        return gamma

    def shift_top(mask):
        best, btop, amb = cyclic_runs(mask)
        sel = np.zeros(len(best), dtype=bool)
        sel[offset + 1::every] = True
        sel &= best > 0
        btop[sel] = (btop[sel] + 1) % mask.shape[1]
        return best, btop, amb
    monkeypatch.setattr(rs, "check_polynomial", zero_gamma)
    monkeypatch.setattr(rs, "_cyclic_runs", shift_top)


def same_wu(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.status, g.window, g.run_length, g.ambiguous) == \
            (w.status, w.window, w.run_length, w.ambiguous)
        assert (g.codeword is None) == (w.codeword is None)
        if g.codeword is not None:
            assert np.array_equal(g.codeword, w.codeword)
        assert (g.reason is None) == (g.status == "ok")


def same_unique(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.status, g.col_window, g.ambiguous) == \
            (w.status, w.col_window, w.ambiguous)
        assert (g.codeword is None) == (w.codeword is None)
        if g.codeword is not None:
            assert np.array_equal(g.codeword, w.codeword)
        assert (g.reason is None) == (g.status == "ok")


# -- oracle: the array core against the per-row and per-word loops --

def wu_mix(code, rng, count, e):
    """No-error words, in-radius bursts, bursts that leave too short a run,
    beyond-radius bursts and random words."""
    F = code.field
    r = code.n - code.k
    cws = code.encode(rng.integers(0, F.q, (count, code.k)))
    rcv = cws.copy()
    for i in range(count):
        kind = i % 5
        if kind == 1:
            rcv[i] = cyclic_burst(code, rng, cws[i],
                                  int(rng.integers(1, r - e)),
                                  int(rng.integers(0, code.n)))
        elif kind == 2:
            rcv[i] = cyclic_burst(code, rng, cws[i], r - e,
                                  int(rng.integers(0, code.n)))
        elif kind == 3:
            rcv[i] = cyclic_burst(code, rng, cws[i],
                                  int(rng.integers(r, 2 * r)),
                                  int(rng.integers(0, code.n)))
        elif kind == 4:
            rcv[i] = rng.integers(0, F.q, code.n)
    return rcv


@pytest.mark.parametrize("e", [0, 2])
def test_wu_batch_matches_row_loop(monkeypatch, wu_code, e):
    rng = np.random.default_rng(60 + e)
    rcv = wu_mix(wu_code, rng, 150, e)
    patch_locator(monkeypatch, 7)
    got = wu_decode_batch(wu_code, rcv, e)
    same_wu(got, wu_decode_batch_loop(wu_code, rcv, e))
    assert {o.reason for o in got} == {None, "short_run", "gamma_zero",
                                       "fill_inconsistent"}


def unique_mix(code, level, rng, count, e):
    """Clean words, in-radius and beyond-radius index bursts, random words,
    and words built row by row in the fold: one random row (the others
    clean), one random row next to a short column burst, and two rows with
    single-column errors far apart."""
    F = code.plan.field
    plan = code.plan
    radius = default_unique_radius(code, level, e)
    m = plan.block_size(level)
    n_s = code.n // m
    cws = code.encode(rng.integers(0, F.q, (count, code.k)))
    rcv = cws.copy()
    for i in range(count):
        kind = i % 7
        if kind in (1, 2):
            ln = int(rng.integers(1, radius + 1) if kind == 1
                     else rng.integers(radius + 1, 2 * radius))
            rcv[i] = index_burst(F, rng, cws[i], ln,
                                 int(rng.integers(0, code.n - ln + 1)))
        elif kind == 3:
            rcv[i] = rng.integers(0, F.q, code.n)
        elif kind in (4, 5, 6):
            rows = plan.tau_forward(level, cws[i])
            a, b = rng.choice(m, 2, replace=False)
            if kind in (4, 5):
                rows[a] = rng.integers(0, F.q, n_s)
            if kind == 5:
                rows[b, 3:5] ^= rng.integers(1, F.q, 2)
            if kind == 6:
                rows[a, 0] ^= 1
                rows[b, n_s - 2] ^= 1
            rcv[i] = plan.tau_inverse(level, rows)
    return rcv


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("e", [0, 2])
@pytest.mark.parametrize("which", ["rs", "hermitian"])
def test_unique_matches_word_loop(monkeypatch, folded_code, herm_code,
                                  which, e, strict):
    code, level = (folded_code, 1) if which == "rs" else (herm_code, 2)
    rng = np.random.default_rng([61, e, strict])
    rcv = unique_mix(code, level, rng, 140, e)
    patch_locator(monkeypatch, 97, offset=40)
    radius = default_unique_radius(code, level, e)
    args = (code.plan, level, code.fold_dims(level), rcv, e, radius, strict,
            code.row_plan(level))
    got = interleaved_unique_decode(*args)
    same_unique(got, interleaved_unique_decode_loop(*args))
    seen = {o.reason for o in got}
    if strict:
        assert {None, "strict_row_failed"} <= seen
    else:
        assert {None, "no_cover", "reerase_inconsistent", "burst_check"} <= seen
        if e > 0:
            assert "no_row_ok" in seen


# -- one constructed word per reason code --

def test_reason_short_run(wu_code):
    rng = np.random.default_rng(70)
    cw = wu_code.encode(rng.integers(0, 256, wu_code.k))
    r = wu_code.n - wu_code.k
    # a burst of r-2 symbols leaves a root run of 2 < e+1 = 3
    o = wu_decode(wu_code, cyclic_burst(wu_code, rng, cw, r - 2, 40), e=2)
    assert (o.status, o.reason, o.window, o.run_length) == \
        ("detected", "short_run", None, 2)


def test_reason_gamma_zero(monkeypatch, wu_code):
    rng = np.random.default_rng(71)
    cw = wu_code.encode(rng.integers(0, 256, wu_code.k))
    patch_locator(monkeypatch, 2)
    outs = wu_decode_batch(
        wu_code, np.stack([cyclic_burst(wu_code, rng, cw, 5, 9), cw]), e=2)
    assert (outs[0].status, outs[0].reason, outs[0].run_length) == \
        ("detected", "gamma_zero", 0)
    # a codeword has a zero syndrome: no error, whatever gamma is
    assert outs[1].status == "ok"


def test_lam1_has_no_zero_coefficient(wu_code, folded_code):
    """Gamma_i = S_(r-1-i) * Lam1_i, so with every Lam1_i nonzero gamma is
    zero only for a zero syndrome: gamma_zero needs a patched check
    polynomial to fire."""
    sub = folded_code.row_plan(1)
    for code in (wu_code, *(rs.row_code(sub, k) for k in range(1, 17))):
        code._ensure_locator_tables()
        assert np.all(code._lam1 != 0)


def test_reason_fill_inconsistent(monkeypatch, wu_code):
    rng = np.random.default_rng(72)
    cw = wu_code.encode(rng.integers(0, 256, wu_code.k))
    word = cyclic_burst(wu_code, rng, cw, 10, 30)
    assert wu_decode(wu_code, word, e=2).window == (30, 10)
    patch_locator(monkeypatch, 2)
    outs = wu_decode_batch(wu_code, np.stack([cw, word]), e=2)
    assert (outs[1].status, outs[1].reason, outs[1].window) == \
        ("detected", "fill_inconsistent", (31, 10))


def test_root_runs_name_consistent_windows(wu_code):
    """Why fill_inconsistent needs a patched locator to fire: at margin
    e=0 every random word with a root run gets a consistent fill."""
    rng = np.random.default_rng(78)
    outs = wu_decode_batch(wu_code, rng.integers(0, 256, (40, wu_code.n)),
                           e=0)
    assert {o.reason for o in outs} == {None, "short_run"}
    assert all(o.run_length == 0 for o in outs if o.reason)


def test_negative_margin_rejected(wu_code, folded_code, herm_code):
    """A negative margin would accept any word with no root run as a
    full-length window, so every decoder that takes e refuses it."""
    rng = np.random.default_rng(79)
    word = rng.integers(0, 256, wu_code.n)
    with pytest.raises(ConfigInfeasible):
        wu_decode(wu_code, word, e=-1)
    with pytest.raises(ConfigInfeasible):
        wu_decode_batch(wu_code, word[None], e=-1)
    for fn in (unique_decode, unique_decode_batch):
        with pytest.raises(ConfigInfeasible):
            fn(folded_code, word, 1, e=-1)
    with pytest.raises(ConfigInfeasible):
        interleaved_unique_decode(
            folded_code.plan, 1, folded_code.fold_dims(1), word[None], e=-2,
            radius=10)
    hword = rng.integers(0, 16, herm_code.n)
    with pytest.raises(ConfigInfeasible):
        unique_decode_batch(herm_code, hword, 2, e=-1, radius=1)


def fold_rows(code, level, msg_seed):
    rng = np.random.default_rng(msg_seed)
    cw = code.encode(rng.integers(0, 256, code.k))
    return rng, cw, code.plan.tau_forward(level, cw)


def test_reason_no_row_ok(folded_code):
    rng = np.random.default_rng(73)
    with pytest.raises(DetectedFailure, match="no_row_ok"):
        unique_decode(folded_code, rng.integers(0, 256, 255), 1, e=2)


def test_reason_no_cover_and_strict(folded_code):
    # one random row, every other row clean: the rows that decode report
    # no window, so there is nothing to cover or vote for
    rng, cw, rows = fold_rows(folded_code, 1, 74)
    rows[4] = rng.integers(0, 256, 17)
    word = folded_code.plan.tau_inverse(1, rows)
    o = unique_decode_batch(folded_code, word, 1, e=2)[0]
    assert (o.status, o.reason, o.col_window) == ("detected", "no_cover",
                                                  None)
    o = unique_decode_batch(folded_code, word, 1, e=2, strict=True)[0]
    assert (o.status, o.reason) == ("detected", "strict_row_failed")


def test_reason_reerase_inconsistent(folded_code):
    # row 6 reports the window (3, 2); re-erasing the random row 4 on that
    # window cannot make it a codeword
    rng, cw, rows = fold_rows(folded_code, 1, 75)
    rows[4] = rng.integers(0, 256, 17)
    rows[6, 3:5] ^= np.array([7, 9])
    o = unique_decode_batch(folded_code, folded_code.plan.tau_inverse(1, rows),
                            1, e=2)[0]
    assert (o.status, o.reason, o.col_window) == \
        ("detected", "reerase_inconsistent", (3, 2))


def test_reason_burst_check(folded_code):
    # two rows each correct one column, columns 0 and 12: the correction
    # spans 12 column blocks of 15 symbols, beyond the radius of 74
    rng, cw, rows = fold_rows(folded_code, 1, 76)
    rows[2, 0] ^= 5
    rows[9, 12] ^= 5
    o = unique_decode_batch(folded_code, folded_code.plan.tau_inverse(1, rows),
                            1, e=2)[0]
    assert (o.status, o.reason) == ("detected", "burst_check")


# -- the batch result's sequence protocol --

def test_wu_batch_sequence_protocol(wu_code):
    rng = np.random.default_rng(77)
    rcv = wu_mix(wu_code, rng, 10, 2)
    outs = wu_decode_batch(wu_code, rcv, e=2)
    items = list(outs)
    assert len(outs) == len(items) == 10
    same_wu([outs[i] for i in range(10)], items)
    same_wu([outs[-1], outs[-10]], [items[9], items[0]])
    same_wu(outs[2:7:2], items[2:7:2])
    with pytest.raises(IndexError):
        outs[10]
    with pytest.raises(IndexError):
        outs[-11]
    # the arrays hold what the outcomes say
    assert outs.ok.tolist() == [o.status == "ok" for o in items]
    assert [None if s < 0 else (s, n) for s, n in
            zip(outs.start.tolist(), outs.length.tolist())] == \
        [o.window for o in items]
    assert [rs.REASONS[c] for c in outs.reason.tolist()] == \
        [o.reason for o in items]


# -- the symbol-range boundary --

@pytest.mark.parametrize("bad", [-1, -5, 256, 300, 999])
def test_out_of_range_symbols_rejected(wu_code, folded_code, herm_code, bad):
    msg = np.zeros(wu_code.k, dtype=np.int64)
    msg[7] = bad
    with pytest.raises(InvalidSymbol):
        wu_code.encode(msg)
    word = wu_code.encode(np.zeros(wu_code.k, dtype=np.int64))
    word[3] = bad
    with pytest.raises(InvalidSymbol):
        wu_decode(wu_code, word, e=2)
    with pytest.raises(InvalidSymbol):
        wu_decode_batch(wu_code, word[None], e=2)
    with pytest.raises(InvalidSymbol):
        erasure_decode(wu_code, word, (0, 4))
    for fn in (unique_decode, unique_decode_batch, list_decode,
               list_decode_batch):
        with pytest.raises(InvalidSymbol):
            fn(folded_code, word, 1)
    hmsg = np.zeros(herm_code.k, dtype=np.int64)
    hmsg[0] = bad if bad < 0 else bad % 256 + 16
    with pytest.raises(InvalidSymbol):
        herm_code.encode(hmsg)


def test_check_symbols_passes_field_elements(gf256):
    vals = gf256.check_symbols([[0, 255], [1, 2]])
    assert vals.dtype == np.int64 and vals.tolist() == [[0, 255], [1, 2]]
    assert gf256.check_symbols(np.zeros((0, 5), dtype=np.int64)).size == 0
    assert int(gf256.check_symbols(7)) == 7
    with pytest.raises(InvalidSymbol, match="256"):
        gf256.check_symbols(np.arange(300)[::-1])
