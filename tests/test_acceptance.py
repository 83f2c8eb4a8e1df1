"""End-to-end acceptance checks for the whole pipeline.

Each test pins one externally visible guarantee: transform correctness
against naive multipoint evaluation, the geometry of folded bursts, list
and probabilistic-unique round trips at the documented radii with their
recovery/miscorrection rates, erasure fills against classical Lagrange
interpolation, Hermitian-code encoding and decoding, quasi-linear scaling,
and reproducible Monte-Carlo output.
"""

import time
import warnings

import numpy as np
import pytest

from burstfold.cli import main as cli_main
from burstfold.cli import plant_cyclic_burst, plant_index_burst
from burstfold.decoders import (
    default_unique_radius,
    list_decode,
    list_decode_batch,
    unique_decode_batch,
)
from burstfold.fields import (
    AffineGroupSpec,
    default_subspace_basis,
    enumerate_coset_points,
    get_field,
    linearized_polynomial,
)
from burstfold.folding import fold, folded_burst_bound, row_dims
from burstfold.gfft import plan_build
from burstfold.hermitian import (
    HermitianCode,
    HermitianCurve,
    ag_unique_decode_batch,
)
from burstfold.rs import RsCode, erasure_decode, wu_decode_batch

from reference import oracle_decode, poly_eval
from test_gfft import (
    additive_plan_gf16,
    composite_basis_polys,
    cyclic_plan_gf13,
)
from test_hermitian import naive_eval_matrix


def cyclic_plan_gf64():
    F = get_field(2, 6)
    return F, plan_build(F, AffineGroupSpec(t=63, ell=2, w_basis=[],
                                            gamma=1))


def additive_plan_gf1024():
    F = get_field(2, 10)
    basis = default_subspace_basis(F, 2, 10)
    return F, plan_build(F, AffineGroupSpec(t=1, ell=2, w_basis=basis,
                                            gamma=0))


def cyclic_plan_gf256(t_factors=None):
    F = get_field(2, 8)
    return F, plan_build(F, AffineGroupSpec(t=255, ell=2, w_basis=[],
                                            gamma=1, t_factors=t_factors))


def eval_matrix_small(F, plan):
    """Row u = values of the u-th chain basis polynomial at all points,
    built by dense polynomial arithmetic (cubic, fine for n <= 63)."""
    pts = enumerate_coset_points(F, plan.group)
    return np.stack([poly_eval(F, b, pts)
                     for b in composite_basis_polys(F, plan)])


def eval_matrix_additive(F, plan):
    """Same matrix for a subspace coset, built from the recursion
    b_{u + 2^s} = b_u * L_s without any polynomial arithmetic."""
    group = plan.group
    pts = enumerate_coset_points(F, group)
    tabs = [linearized_polynomial(F, group.w_basis[:s], 2).eval(pts)
            for s in range(group.wdim)]
    n = plan.n
    B = np.zeros((n, n), dtype=np.int64)
    B[0] = 1
    for u in range(1, n):
        B[u] = F.mul(B[u & (u - 1)], tabs[(u & -u).bit_length() - 1])
    return B


def apply_eval_matrix(F, B, words):
    """Naive multipoint evaluation: words @ B over the field."""
    out = np.zeros(words.shape[:-1] + (B.shape[1],), dtype=np.int64)
    for u in range(B.shape[0]):
        out = F.add(out, F.mul(words[..., u, None], B[u]))
    return out


# ---------------------------------------------------------------------------
# 1. the chain transform is multipoint evaluation on the group coset
# ---------------------------------------------------------------------------

def test_transform_matches_naive_evaluation():
    configs = [
        (cyclic_plan_gf13, eval_matrix_small),
        (additive_plan_gf16, eval_matrix_small),
        (cyclic_plan_gf64, eval_matrix_small),
        (additive_plan_gf1024, eval_matrix_additive),
    ]
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    for make, builder in configs:
        F, plan = make()
        B = builder(F, plan)
        words = rng.integers(0, F.q, (100, plan.n))
        got = plan.forward(words)
        assert np.array_equal(got, apply_eval_matrix(F, B, words))
        assert np.array_equal(plan.inverse(got), words)
    assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# 2. folded bursts stay inside few adjacent columns (exhaustive geometry)
# ---------------------------------------------------------------------------

def test_fold_burst_geometry_exhaustive():
    n = 24
    rng = np.random.default_rng(24)
    for m in (2, 3, 4, 6):
        for ln in range(0, n + 1):
            bound = folded_burst_bound(ln, m)
            assert bound <= ln // m + 2
            for st in range(0, n - ln + 1):
                v = np.zeros(n, dtype=np.int64)
                v[st:st + ln] = 1  # densest possible burst support
                nz = np.flatnonzero(fold(v, m).any(axis=0))
                assert nz.size <= bound
                if nz.size:
                    assert nz[-1] - nz[0] + 1 == nz.size  # contiguous
                if ln >= 2:
                    # sparse interior: support still inside <= bound columns
                    v[st:st + ln] = rng.integers(0, 3, ln)
                    v[st] = v[st + ln - 1] = 1
                    nz = np.flatnonzero(fold(v, m).any(axis=0))
                    assert nz[-1] - nz[0] + 1 <= bound


# ---------------------------------------------------------------------------
# 3. list decoding recovers at every burst start, with short lists
# ---------------------------------------------------------------------------

def test_list_recovery_at_every_burst_start():
    t0 = time.perf_counter()
    F, plan = cyclic_plan_gf64()
    code = RsCode(plan, 15)
    level = 2
    assert plan.block_size(level) == 9
    ln, per_start = 30, 50
    kmax = max(row_dims(code.k, plan.block_size(level)))
    n_starts = code.n - ln + 1
    assert n_starts == 34
    rng = np.random.default_rng(12)
    msgs = rng.integers(0, F.q, (n_starts * per_start, 15))
    cws = code.encode(msgs)
    starts = np.repeat(np.arange(n_starts), per_start)
    cols = starts[:, None] + np.arange(ln)[None, :]
    rows = np.arange(cws.shape[0])[:, None]
    bad = cws.copy()
    # characteristic 2: adding a nonzero value always changes the symbol
    bad[rows, cols] = F.add(bad[rows, cols],
                            rng.integers(1, F.q, cols.shape))
    outs = list_decode_batch(code, bad, level, radius=ln)
    misses = [i for i, cands in enumerate(outs)
              if not any(np.array_equal(c, cws[i]) for c in cands)]
    assert misses == []
    assert max(len(cands) for cands in outs) <= kmax + 1
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# 4. root-run location recovers long cyclic bursts almost surely
# ---------------------------------------------------------------------------

def test_root_run_recovery_rate():
    F, plan = cyclic_plan_gf256()
    code = RsCode(plan, 223)
    ln, e, trials = 29, 2, 10_000
    rng = np.random.default_rng(40)
    msgs = rng.integers(0, F.q, (trials, 223))
    cws = code.encode(msgs)
    rcv = np.empty_like(cws)
    for t in range(trials):
        rcv[t] = plant_cyclic_burst(code, rng, cws[t], ln,
                                    int(rng.integers(0, code.n)))
    recovered = miscorrected = 0
    for lo in range(0, trials, 1000):
        outs = wu_decode_batch(code, rcv[lo:lo + 1000], e=e)
        for t, o in enumerate(outs, start=lo):
            if o.status == "ok":
                if np.array_equal(o.codeword, cws[t]):
                    recovered += 1
                else:
                    miscorrected += 1
    assert recovered / trials >= 0.999
    # silent failures need a spurious length-(e+1) root run; with e=2 the
    # per-trial chance is far below 1e-3, so an absolute handful at most
    assert miscorrected <= 10


# ---------------------------------------------------------------------------
# 5. folded unique decoding: full recovery, miscorrection under the bound
# ---------------------------------------------------------------------------

def test_folded_unique_recovery_and_miscorrection_bound():
    F, plan = cyclic_plan_gf256([15, 17])
    code = RsCode(plan, 120)
    level, e = 1, 2
    m = plan.block_size(level)
    n_s = code.n // m
    assert (m, n_s) == (15, 17)
    assert row_dims(code.k, m) == [8] * 15
    radius = default_unique_radius(code, level, e)
    assert radius == 74
    assert folded_burst_bound(radius, m) < n_s - 8 - e
    trials = 10_000
    rng = np.random.default_rng(77)
    msgs = rng.integers(0, F.q, (trials, 120))
    cws = code.encode(msgs)
    rcv = cws.copy()
    for t in range(trials):
        ln = int(rng.integers(1, radius + 1))
        st = int(rng.integers(0, code.n - ln + 1))
        rcv[t] = plant_index_burst(F, rng, cws[t], ln, st)
    recovered = miscorrected = 0
    for lo in range(0, trials, 1000):
        outs = unique_decode_batch(code, rcv[lo:lo + 1000], level, e=e)
        for t, o in enumerate(outs, start=lo):
            if o.status == "ok":
                if np.array_equal(o.codeword, cws[t]):
                    recovered += 1
                else:
                    miscorrected += 1
    # per-trial silent-failure probability is bounded by m/q^e
    assert m / F.q ** e < 1e-3
    assert recovered / trials >= 0.999
    assert miscorrected <= 10


# ---------------------------------------------------------------------------
# 6. erasure filling agrees with classical Lagrange interpolation
# ---------------------------------------------------------------------------

ERASURE_CONFIGS = [
    (cyclic_plan_gf13, 4),
    (additive_plan_gf16, 3),
    (cyclic_plan_gf64, 15),
    (lambda: cyclic_plan_gf256(), 223),
]


@pytest.mark.parametrize("make,k", ERASURE_CONFIGS)
def test_erasure_fill_matches_interpolation(make, k):
    F, plan = make()
    code = RsCode(plan, k)
    rng = np.random.default_rng(k)
    msgs = rng.integers(0, F.q, (1000, k))
    cws = code.encode(msgs)
    for t in range(1000):
        cw = cws[t]
        ln = int(rng.integers(0, code.n - k + 1))
        st = int(rng.integers(0, code.n - ln + 1))
        rcv = cw.copy()
        rcv[st:st + ln] = rng.integers(0, F.q, ln)  # garbage in the window
        got_msg, got_cw = erasure_decode(code, rcv, (st, ln))
        ref_cw = oracle_decode(code, rcv, (st, ln))
        assert np.array_equal(got_cw, ref_cw)
        assert np.array_equal(got_cw, cw)
        assert np.array_equal(got_msg, msgs[t])


# ---------------------------------------------------------------------------
# 7. Hermitian codes: encoding, folding, list and unique burst decoding
# ---------------------------------------------------------------------------

def test_hermitian_pipeline():
    t0 = time.perf_counter()
    F = get_field(2, 4)
    curve = HermitianCurve(F, 4)
    base = plan_build(F, AffineGroupSpec(t=1, ell=2, w_basis=[1, 2, 4, 8],
                                         gamma=0))
    code = HermitianCode(curve, base, 20)
    assert (code.n, code.k) == (64, 15)

    # (a) encoding equals scalar evaluation of the basis functions
    M = naive_eval_matrix(F, code)
    rng = np.random.default_rng(70)
    msgs = rng.integers(0, F.q, (100, code.k))
    assert np.array_equal(code.encode(msgs), apply_eval_matrix(F, M, msgs))

    # (b) fold/unfold transform round-trips on arbitrary words
    level = code.curve.rc + 2
    vecs = rng.integers(0, F.q, (100, code.n))
    mats = np.stack([code.plan.tau_forward(level, v) for v in vecs])
    back = np.stack([code.plan.tau_inverse(level, mm) for mm in mats])
    assert np.array_equal(back, vecs)

    # (c) list decoding recovers at every feasible burst start
    radius = code.default_list_radius(level)
    assert radius == 15
    for st in range(0, code.n - radius + 1):
        msg = rng.integers(0, F.q, code.k)
        cw = code.encode(msg)
        bad = plant_index_burst(F, rng, cw, radius, st)
        cands = list_decode(code, bad, level)
        assert any(np.array_equal(c, cw) for c in cands)

    # (d) unique decoding recovers almost surely at its documented radius
    ubase = plan_build(F, AffineGroupSpec(t=15, ell=2, w_basis=[], gamma=1,
                                          t_factors=[15]))
    ucode = HermitianCode(code.curve, ubase, 20)
    assert (ucode.n, ucode.k) == (60, 15)
    lvl, e = ucode.curve.rc, 2
    uradius = default_unique_radius(ucode, lvl, e)
    assert uradius == 19
    trials = 200
    msgs = rng.integers(0, F.q, (trials, ucode.k))
    cws = ucode.encode(msgs)
    rcv = cws.copy()
    for t in range(trials):
        ln = int(rng.integers(1, uradius + 1))
        st = int(rng.integers(0, ucode.n - ln + 1))
        rcv[t] = plant_index_burst(F, rng, cws[t], ln, st)
    outs = ag_unique_decode_batch(ucode, rcv, lvl, e=e)
    ok = sum(o.status == "ok" and np.array_equal(o.codeword, cws[t])
             for t, o in enumerate(outs))
    assert ok / trials >= 0.99
    assert not any(o.status == "ok" and not np.array_equal(o.codeword, cws[t])
                   for t, o in enumerate(outs))
    assert time.perf_counter() - t0 < 120.0


# ---------------------------------------------------------------------------
# 8. decode time grows quasi-linearly with the length
# ---------------------------------------------------------------------------

def test_list_decode_scales_quasilinearly():
    F = get_field(2, 16)
    times = {}
    for w in range(12, 17):
        n = 1 << w
        basis = default_subspace_basis(F, 2, w)
        plan = plan_build(F, AffineGroupSpec(t=1, ell=2, w_basis=basis,
                                             gamma=0))
        code = RsCode(plan, n // 4)
        rng = np.random.default_rng(w)
        cw = code.encode(rng.integers(0, F.q, n // 4))
        level = w - 4
        radius = code.n - code.k - 2 * plan.block_size(level)
        bad = plant_index_burst(F, rng, cw, radius, 5)
        out = list_decode(code, bad, level)  # warm (and correct)
        assert any(np.array_equal(c, cw) for c in out)
        best = None
        for _ in range(3):
            t0 = time.perf_counter()
            list_decode(code, bad, level)
            dt = time.perf_counter() - t0
            best = dt if best is None or dt < best else best
        times[n] = best
    ns = sorted(times)
    ratios = [times[b] / times[a] for a, b in zip(ns, ns[1:])]
    # soft target: each doubling costs <= 2.5x (report only); hard cap 3.2x
    soft = [f"{a}->{2 * a}: {r:.2f}" for a, r in zip(ns, ratios) if r > 2.5]
    if soft:
        warnings.warn("doubling ratio above soft target 2.5: "
                      + ", ".join(soft))
    assert all(r <= 3.2 for r in ratios), ratios


# ---------------------------------------------------------------------------
# 9. Monte-Carlo runs are byte-for-byte reproducible
# ---------------------------------------------------------------------------

def test_mc_output_reproducible(tmp_path):
    args = ["mc", "--field", "2^8:0x11d", "--group", "t=255,gamma=0x1",
            "--k", "223", "--mode", "wu", "--burst-len", "29", "--e", "2",
            "--trials", "25", "--seed", "11"]
    p1, p2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
    assert cli_main([*args, "--out", p1]) == 0
    assert cli_main([*args, "--out", p2]) == 0
    b1, b2 = open(p1, "rb").read(), open(p2, "rb").read()
    assert b1 == b2
    lines = b1.decode().splitlines()
    assert lines[0] == "trial,n,k,length,e,start,outcome"
    assert lines[-1].startswith("# trials=25 ok=")
