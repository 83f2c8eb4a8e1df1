from collections import Counter

import numpy as np
import pytest

from burstfold.errors import (
    CyclicStructureAbsent,
    DimensionOutOfRange,
    NoRootRun,
    NotACodeword,
    WindowTooLong,
)
from burstfold.fields import (
    AffineGroupSpec,
    Field,
    default_subspace_basis,
    get_field,
)
from burstfold.gfft import GfftPlan, plan_build
from burstfold.rs import (
    RsCode,
    _cyclic_runs,
    _root_mask,
    _syndromes,
    check_polynomial,
    erasure_decode,
    longest_root_run,
    plan_window_tables,
    syndrome,
    window_vanisher_values,
    wu_decode,
    wu_decode_batch,
)

from reference import (
    cyclic_runs_loop,
    lagrange_interpolate,
    plan_window_tables_2t,
    poly_eval,
    poly_trim,
    root_mask_unit,
    syndromes_unit,
    vanisher_from_nodes,
)
from test_gfft import (
    additive_plan_gf16,
    cyclic_plan_gf13,
    mixed_plan_gf9,
    mixed_plan_gf64,
)


def make_code_gf13(k=4):
    F, plan = cyclic_plan_gf13()
    return F, RsCode(plan, k)


def make_code_gf256(k=223):
    F = get_field(2, 8)
    plan = plan_build(F, AffineGroupSpec(t=255, ell=256, w_basis=[], gamma=1))
    return F, RsCode(plan, k)


def test_rs_new_validation():
    F, plan = cyclic_plan_gf13()
    with pytest.raises(DimensionOutOfRange):
        RsCode(plan, 0)
    with pytest.raises(DimensionOutOfRange):
        RsCode(plan, 13)


def test_encode_matches_polynomial_evaluation():
    F, code = make_code_gf13()
    rng = np.random.default_rng(0)
    msg = rng.integers(0, 13, size=4)
    cw = code.encode(msg)
    # cyclic chain => composite basis is the monomial basis
    want = poly_eval(F, msg.tolist(), code.plan.points)
    assert np.array_equal(cw, want)


def test_encode_batch_shapes():
    F, code = make_code_gf13()
    rng = np.random.default_rng(1)
    msgs = rng.integers(0, 13, size=(7, 4))
    cws = code.encode(msgs)
    assert cws.shape == (7, 12)
    for m, c in zip(msgs, cws):
        assert np.array_equal(code.encode(m), c)
    assert code.is_codeword(cws[0])


def test_cyclic_detection_and_conversions():
    F, code = make_code_gf13()
    cyc = code.plan.cyclic()
    assert cyc is not None and not np.array_equal(cyc[2], np.arange(code.n))
    nat = code.natural_points()
    xi, alpha = int(nat[0]), F.div(int(nat[1]), int(nat[0]))
    assert nat.tolist() == [F.mul(xi, F.pow(alpha, e)) for e in range(12)]
    rng = np.random.default_rng(2)
    v = rng.integers(0, 13, size=12)
    assert np.array_equal(code.from_natural(code.to_natural(v)), v)
    assert np.array_equal(code.to_natural(code.from_natural(v)), v)
    # value at exponent e of the plan-order vector
    plan_pts = code.plan.points
    v_nat = code.to_natural(plan_pts)
    assert np.array_equal(v_nat, nat)


def test_additive_code_not_cyclic():
    F, plan = additive_plan_gf16()
    code = RsCode(plan, 3)
    assert code.plan.cyclic() is None
    with pytest.raises(CyclicStructureAbsent):
        syndrome(code, np.zeros(8, dtype=np.int64))


def test_window_vanisher_matches_node_product():
    for make in (cyclic_plan_gf13, additive_plan_gf16, mixed_plan_gf64):
        F, plan = make()
        rng = np.random.default_rng(3)
        for _ in range(10):
            ln = int(rng.integers(1, plan.n))
            start = int(rng.integers(0, plan.n - ln + 1))
            lam = window_vanisher_values(plan, start, ln)
            nodes = plan.points[start:start + ln]
            coeffs = vanisher_from_nodes(F, nodes)
            want = poly_eval(F, coeffs.tolist(), plan.points)
            assert np.array_equal(lam, want), (make.__name__, start, ln)


@pytest.mark.parametrize("make,k", [(cyclic_plan_gf13, 4),
                                    (additive_plan_gf16, 3),
                                    (mixed_plan_gf64, 5)])
def test_erasure_decode_roundtrip(make, k):
    F, plan = make()
    code = RsCode(plan, k)
    rng = np.random.default_rng(4)
    r = plan.n - k
    for trial in range(20):
        msg = rng.integers(0, F.q, size=k)
        cw = code.encode(msg)
        ln = int(rng.integers(0, r + 1))
        start = int(rng.integers(0, plan.n - ln + 1))
        rcv = cw.copy()
        rcv[start:start + ln] = rng.integers(0, F.q, size=ln)
        got_msg, got_cw = erasure_decode(code, rcv, (start, ln))
        assert np.array_equal(got_cw, cw)
        assert np.array_equal(got_msg, msg)


def test_erasure_decode_against_interpolation_oracle():
    F, code = make_code_gf13()
    rng = np.random.default_rng(5)
    msg = rng.integers(0, 13, size=4)
    cw = code.encode(msg)
    start, ln = 3, 6
    rcv = cw.copy()
    rcv[start:start + ln] = rng.integers(0, 13, size=ln)
    _, got = erasure_decode(code, rcv, (start, ln))
    keep = np.ones(12, dtype=bool)
    keep[start:start + ln] = False
    coeffs = lagrange_interpolate(
        F, code.plan.points[keep].tolist(), rcv[keep].tolist())
    assert len(poly_trim(coeffs)) <= code.k
    want = poly_eval(F, coeffs, code.plan.points)
    assert np.array_equal(got, want)


def test_erasure_decode_errors():
    F, code = make_code_gf13()
    rng = np.random.default_rng(6)
    cw = code.encode(rng.integers(0, 13, size=4))
    with pytest.raises(WindowTooLong):
        erasure_decode(code, cw, (0, 9))  # n-k = 8
    with pytest.raises(WindowTooLong):
        erasure_decode(code, cw, (6, 8))
    rcv = cw.copy()
    rcv[0] = F.add(rcv[0], 1)
    rcv[6] = F.add(rcv[6], 3)
    with pytest.raises(NotACodeword):
        erasure_decode(code, rcv, (5, 4))  # error at 0 is outside the window


def test_erasure_decode_cyclic_exponent_window():
    F, code = make_code_gf13()
    rng = np.random.default_rng(7)
    msg = rng.integers(0, 13, size=4)
    cw = code.encode(msg)
    # corrupt a wrap-around exponent window [10, 11, 0, 1]
    nat = code.to_natural(cw)
    wexps = [10, 11, 0, 1]
    nat_rcv = nat.copy()
    nat_rcv[wexps] = rng.integers(0, 13, size=4)
    rcv = code.from_natural(nat_rcv)
    got_msg, got_cw = erasure_decode(code, rcv, (-11, 4))  # start exponent 10
    assert np.array_equal(got_cw, cw)
    assert np.array_equal(got_msg, msg)


def test_syndrome_zero_iff_codeword():
    for maker in (make_code_gf13, make_code_gf256):
        F, code = maker()
        rng = np.random.default_rng(8)
        msg = rng.integers(0, F.q, size=code.k)
        cw = code.encode(msg)
        assert np.all(syndrome(code, cw) == 0)
        bad = cw.copy()
        bad[5] = F.add(bad[5], 1)
        assert np.any(syndrome(code, bad) != 0)


def natural_burst(code, rng, length, start_exp):
    """Error vector (enumeration order) with support exactly on the cyclic
    exponent window [start_exp, start_exp+length), nonzero endpoints."""
    n = code.n
    F = code.field
    nat = np.zeros(n, dtype=np.int64)
    if length:
        vals = rng.integers(1, F.q, size=length)
        exps = (start_exp + np.arange(length)) % n
        nat[exps] = vals
    return code.from_natural(nat)


def test_wu_single_error_localization():
    F, code = make_code_gf13()
    rng = np.random.default_rng(9)
    msg = rng.integers(0, 13, size=4)
    cw = code.encode(msg)
    err = natural_burst(code, rng, 1, 4)  # exponent 4 = position 5
    out = wu_decode(code, F.add(cw, err), e=1)
    assert out.status == "ok"
    assert out.window == (4, 1)
    assert out.run_length == 7  # n-k-l = 12-4-1
    assert np.array_equal(out.codeword, cw)


def test_wu_burst_recovery_various_lengths():
    F, code = make_code_gf13()
    rng = np.random.default_rng(10)
    r = code.n - code.k  # 8
    for ln in range(0, r - 1):  # decodable with margin e=1: run >= 2
        for _ in range(10):
            msg = rng.integers(0, 13, size=4)
            cw = code.encode(msg)
            start = int(rng.integers(0, code.n))
            err = natural_burst(code, rng, ln, start)
            out = wu_decode(code, F.add(cw, err), e=1)
            assert out.status == "ok", (ln, start)
            assert np.array_equal(out.codeword, cw), (ln, start)


def test_wu_margin_rejects_thin_runs():
    F, code = make_code_gf13()
    rng = np.random.default_rng(11)
    r = code.n - code.k
    # a burst of length r-1 leaves run length 1: margin e=1 must reject it
    cw = code.encode(rng.integers(0, 13, size=4))
    err = natural_burst(code, rng, r - 1, 3)
    out = wu_decode(code, F.add(cw, err), e=1)
    assert out.status == "detected"
    # with margin e=0 it may decode (run length 1 >= 1)
    out0 = wu_decode(code, F.add(cw, err), e=0)
    if out0.status == "ok":
        assert np.array_equal(out0.codeword, cw) or out0.ambiguous


def test_wu_no_error_passthrough():
    F, code = make_code_gf13()
    cw = code.encode(np.arange(4))
    out = wu_decode(code, cw, e=1)
    assert out.status == "ok" and out.window == (0, 0)
    assert np.array_equal(out.codeword, cw)


def test_wu_beyond_capability_detected():
    F, code = make_code_gf13()
    rng = np.random.default_rng(12)
    r = code.n - code.k
    detected = 0
    trials = 30
    for _ in range(trials):
        cw = code.encode(rng.integers(0, 13, size=4))
        err = natural_burst(code, rng, r + 2, int(rng.integers(0, 12)))
        out = wu_decode(code, F.add(cw, err), e=1)
        if out.status == "detected":
            detected += 1
        else:
            # a miscorrection must at least be a codeword within margin
            assert code.is_codeword(out.codeword)
    assert detected >= trials // 2


def test_wu_batch_consistency():
    F, code = make_code_gf256()
    rng = np.random.default_rng(13)
    msgs = rng.integers(0, 256, size=(8, code.k))
    cws = code.encode(msgs)
    rcv = cws.copy()
    for i in range(8):
        err = natural_burst(code, rng, 20, int(rng.integers(0, 255)))
        rcv[i] = F.add(rcv[i], err)
    outs = wu_decode_batch(code, rcv, e=2)
    for i, out in enumerate(outs):
        assert out.status == "ok"
        assert np.array_equal(out.codeword, cws[i])
        single = wu_decode(code, rcv[i], e=2)
        assert single.window == out.window


def test_longest_root_run_direct():
    F, code = make_code_gf13()
    rng = np.random.default_rng(14)
    cw = code.encode(rng.integers(0, 13, size=4))
    err = natural_burst(code, rng, 3, 6)
    synd = syndrome(code, F.add(cw, err))
    gamma = check_polynomial(code, synd)
    top, run, amb = longest_root_run(code, gamma)
    assert run == code.n - code.k - 3
    assert top == 6
    ones = np.zeros(code.n - code.k, dtype=np.int64)
    ones[0] = 1  # constant 1: no roots anywhere
    with pytest.raises(NoRootRun):
        longest_root_run(code, ones)


def test_cyclic_runs_matches_loop():
    rng = np.random.default_rng(23)
    for n in (1, 2, 5, 17, 64):
        # densities from empty to full, so long, wrapped and tied runs occur
        mask = rng.random((600, n)) < rng.random((600, 1))
        mask[0] = True
        mask[1] = False
        got = _cyclic_runs(mask)
        want = cyclic_runs_loop(mask)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)


# -- the locator and the index windows against the oracles they replaced --

# cyclic plans in several characteristics, chains, cosets and orders
LOCATOR_PLANS = [
    ("2^8:0x11d", "t=255,gamma=0x1"),
    ("2^8:0x11d", "t=255,gamma=0x7,tfactors=15;17"),
    ("2^8:0x11d", "t=85,gamma=0x3"),
    ("13", "t=12,gamma=0x2"),
    ("13", "t=12,gamma=0x2,tfactors=12"),
    ("13", "t=12,gamma=0x2,tfactors=3;4"),
    ("3^2", "t=8,gamma=0x1"),
    ("2^4", "t=15,gamma=0x5"),
    ("2^6", "t=63,gamma=0x1"),
]


def spec_plan(field_spec, group_spec):
    F = Field.parse(field_spec)
    return plan_build(F, AffineGroupSpec.parse(F, group_spec))


@pytest.mark.parametrize("field_spec,group_spec", LOCATOR_PLANS)
def test_locator_matches_unit_plan_oracle(field_spec, group_spec):
    """Syndromes from the code's inverse transform and root masks from its
    forward transform equal the unit-plan locator's, on random words and
    on codewords with a cyclic burst (whose check polynomials have root
    runs)."""
    plan = spec_plan(field_spec, group_spec)
    F, n = plan.field, plan.n
    rng = np.random.default_rng(n)
    for k in (1, max(1, n // 3), n - 1, n):
        code = RsCode(plan, k)
        words = code.encode(rng.integers(0, F.q, (50, k)))
        words[:25] = rng.integers(0, F.q, (25, n))
        for i in range(25, 50):
            err = natural_burst(code, rng, int(rng.integers(0, n - k + 1)),
                                int(rng.integers(0, n)))
            words[i] = F.add(words[i], err)
        synd = _syndromes(code, words)
        assert np.array_equal(synd, syndromes_unit(code, words))
        gamma = check_polynomial(code, synd)
        assert np.array_equal(_root_mask(code, gamma),
                              root_mask_unit(code, gamma))


def list_16k_row_plan():
    F = get_field(2, 16)
    return plan_build(F, AffineGroupSpec.parse(F, "t=1,wdim=14")).sub_plan(10)


def additive_plan_256():
    F = get_field(2, 16)
    return plan_build(F, AffineGroupSpec(
        t=1, ell=2, w_basis=default_subspace_basis(F, 2, 8), gamma=0))


WINDOW_PLANS = {
    "list_16k_row": list_16k_row_plan,
    "additive_256": additive_plan_256,
    **{f"{f}/{g}": lambda s=(f, g): spec_plan(*s) for f, g in LOCATOR_PLANS},
    **{make.__name__: lambda m=make: m()[1] for make in (
        additive_plan_gf16, mixed_plan_gf64, mixed_plan_gf9)},
}


@pytest.mark.parametrize("name", WINDOW_PLANS)
def test_index_window_tables_match_two_transform_oracle(name):
    """The closed-form index-window tables equal the node-product and
    two-transform oracle on a plan and all its sub-plans: every window of
    lengths 0..n-1 when n <= 20, sampled windows otherwise.  lam matches
    everywhere, lam' on the window, and lam' is 0 off it."""
    top = WINDOW_PLANS[name]()
    rng = np.random.default_rng(top.n)
    for plan in [top.sub_plan(s) for s in range(top.depth)]:
        n = plan.n
        if n <= 20:
            windows = [(s, L) for L in range(n) for s in range(n - L + 1)]
        else:
            lengths = [0, 1, n - 1] + rng.integers(0, n, 40).tolist()
            windows = [(int(rng.integers(0, n - L + 1)), L) for L in lengths]
        for start, L in windows:
            mask, lam, lamp = plan_window_tables(plan, start, L)
            wmask, wlam, wlamp = plan_window_tables_2t(plan, start, L)
            assert np.array_equal(mask, wmask), (n, start, L)
            assert np.array_equal(lam, wlam), (n, start, L)
            assert np.array_equal(lamp[mask], wlamp[mask]), (n, start, L)
            assert not lamp[~mask].any(), (n, start, L)


def test_locator_and_windows_build_no_plan_and_run_no_transform(
        monkeypatch):
    """A wu decode on a fresh code builds no second plan, and the index
    window tables are built with no transform."""
    calls = Counter()

    def count(name):
        fn = getattr(GfftPlan, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(GfftPlan, name, wrapped)

    F, code = make_code_gf256()
    rng = np.random.default_rng(27)
    cw = code.encode(rng.integers(0, F.q, code.k))
    count("__init__")
    out = wu_decode(code, F.add(cw, natural_burst(code, rng, 20, 250)), e=2)
    assert out.status == "ok" and np.array_equal(out.codeword, cw)
    assert calls["__init__"] == 0  # no unit plan
    plans = [additive_plan_256(), mixed_plan_gf64()[1], code.plan,
             code.plan.sub_plan(1)]
    for name in ("forward", "inverse", "tau_forward", "tau_inverse",
                 "_ascend", "_descend"):
        count(name)
    calls.clear()
    for plan in plans:
        for L in (0, 1, plan.n // 2, plan.n - 1):
            plan_window_tables(plan, (plan.n - L) // 3, L)
    assert not calls
