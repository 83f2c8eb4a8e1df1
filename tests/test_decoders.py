import numpy as np
import pytest

from burstfold.decoders import (
    DetectedFailure,
    default_unique_radius,
    list_decode,
    list_decode_batch,
    unique_decode,
    unique_decode_batch,
)
from burstfold.errors import ConfigInfeasible
from burstfold.fields import AffineGroupSpec, get_field
from burstfold.folding import row_dims
from burstfold.gfft import plan_build
from burstfold.rs import RsCode

from test_gfft import additive_plan_gf16, cyclic_plan_gf13


def make_gf64_code():
    F = get_field(2, 6)
    plan = plan_build(F, AffineGroupSpec(t=63, ell=64, w_basis=[], gamma=1))
    return F, RsCode(plan, 15)


def make_gf256_code():
    F = get_field(2, 8)
    plan = plan_build(F, AffineGroupSpec(t=255, ell=256, w_basis=[], gamma=1))
    return F, RsCode(plan, 120)


def plant_burst(F, rng, cw, length, start):
    rcv = cw.copy()
    if length:
        err = rng.integers(1, F.q, size=length)
        rcv[start:start + length] = F.add(rcv[start:start + length], err)
        # force nonzero endpoints so the burst length is exactly `length`
        while rcv[start] == cw[start]:
            rcv[start] = int(rng.integers(0, F.q))
        while rcv[start + length - 1] == cw[start + length - 1]:
            rcv[start + length - 1] = int(rng.integers(0, F.q))
    return rcv


@pytest.mark.parametrize("s,k", [(2, 15), (1, 15)])
def test_list_decode_roundtrip_gf64(s, k):
    F, code = make_gf64_code()
    rng = np.random.default_rng(20)
    radius = code.default_list_radius(s)
    assert radius > 0
    for _ in range(15):
        msg = rng.integers(0, 64, size=k)
        cw = code.encode(msg)
        ln = int(rng.integers(1, radius + 1))
        start = int(rng.integers(0, code.n - ln + 1))
        rcv = plant_burst(F, rng, cw, ln, start)
        cands = list_decode(code, rcv, s, radius)
        assert any(np.array_equal(c, cw) for c in cands), (s, ln, start)
        for c in cands:
            assert code.is_codeword(c)


def test_list_decode_small_plans():
    for make, k, s in [(cyclic_plan_gf13, 4, 1), (additive_plan_gf16, 3, 1)]:
        F, plan = make()
        code = RsCode(plan, k)
        radius = code.default_list_radius(s)
        assert radius >= 1, (make.__name__,)
        rng = np.random.default_rng(21)
        for _ in range(20):
            msg = rng.integers(0, F.q, size=k)
            cw = code.encode(msg)
            ln = int(rng.integers(1, radius + 1))
            start = int(rng.integers(0, code.n - ln + 1))
            rcv = plant_burst(F, rng, cw, ln, start)
            cands = list_decode(code, rcv, s)
            assert any(np.array_equal(c, cw) for c in cands)


def test_list_decode_no_corruption_returns_codeword():
    F, code = make_gf64_code()
    rng = np.random.default_rng(22)
    cw = code.encode(rng.integers(0, 64, size=15))
    cands = list_decode(code, cw, 2)
    assert any(np.array_equal(c, cw) for c in cands)


def test_list_decode_batch_and_dedup():
    F, code = make_gf64_code()
    rng = np.random.default_rng(23)
    msgs = rng.integers(0, 64, size=(6, 15))
    cws = code.encode(msgs)
    rcvs = cws.copy()
    for i in range(6):
        rcvs[i] = plant_burst(F, rng, cws[i], 12, int(rng.integers(0, 50)))
    lists = list_decode_batch(code, rcvs, 2)
    for i, cands in enumerate(lists):
        assert any(np.array_equal(c, cws[i]) for c in cands)
        keys = [c.tobytes() for c in cands]
        assert len(keys) == len(set(keys))
        assert keys == sorted(keys)


def test_list_decode_infeasible_radius():
    F, code = make_gf64_code()
    with pytest.raises(ConfigInfeasible):
        list_decode(code, np.zeros(63, dtype=np.int64), 2, radius=50)


def test_unique_decode_roundtrip_gf256():
    F, code = make_gf256_code()
    rng = np.random.default_rng(24)
    s, e = 2, 2
    radius = default_unique_radius(code, s, e)
    assert radius == 74
    for _ in range(10):
        msg = rng.integers(0, 256, size=120)
        cw = code.encode(msg)
        ln = int(rng.integers(1, radius + 1))
        start = int(rng.integers(0, code.n - ln + 1))
        rcv = plant_burst(F, rng, cw, ln, start)
        got_msg, got_cw, out = unique_decode(code, rcv, s, e=e)
        assert np.array_equal(got_cw, cw)
        assert np.array_equal(got_msg, msg)
        assert out.status == "ok"


def test_unique_decode_strict_mode():
    F, code = make_gf256_code()
    rng = np.random.default_rng(25)
    msg = rng.integers(0, 256, size=120)
    cw = code.encode(msg)
    rcv = plant_burst(F, rng, cw, 40, 100)
    _, got_cw, _ = unique_decode(code, rcv, 2, e=2, strict=True)
    assert np.array_equal(got_cw, cw)


def test_unique_decode_batch_statuses():
    F, code = make_gf256_code()
    rng = np.random.default_rng(26)
    msgs = rng.integers(0, 256, size=(5, 120))
    cws = code.encode(msgs)
    rcvs = cws.copy()
    for i in range(5):
        rcvs[i] = plant_burst(F, rng, cws[i], 60, 10 * i)
    outs = unique_decode_batch(code, rcvs, 2, e=2)
    for i, out in enumerate(outs):
        assert out.status == "ok"
        assert np.array_equal(out.codeword, cws[i])


def test_unique_decode_oversized_burst_detected_or_rare_miss():
    F, code = make_gf256_code()
    rng = np.random.default_rng(27)
    bad = 0
    for _ in range(10):
        cw = code.encode(rng.integers(0, 256, size=120))
        # far beyond the feasible radius: whole-word scatter
        rcv = F.add(cw, rng.integers(1, 256, size=255))
        try:
            _, got, _ = unique_decode(code, rcv, 2, e=2)
            if not np.array_equal(got, cw):
                bad += 1  # miscorrection: must still be a codeword
                assert code.is_codeword(got)
        except DetectedFailure:
            pass
    # miscorrection on random noise should be (very) rare
    assert bad == 0


def test_unique_decode_infeasible_configs():
    F, plan = additive_plan_gf16()
    code = RsCode(plan, 3)
    with pytest.raises(ConfigInfeasible):
        unique_decode(code, np.zeros(8, dtype=np.int64), 1, e=1, radius=1)
    F2, code64 = make_gf64_code()
    # radius too large for the margin
    with pytest.raises(ConfigInfeasible):
        unique_decode(code64, np.zeros(63, dtype=np.int64), 2, e=1, radius=40)


def test_unique_default_radius_formula():
    F, code = make_gf256_code()
    assert default_unique_radius(code, 2, 2) == 15 * (17 - 8 - 2 - 2) - 1
    assert code.default_list_radius(2) == 255 - 120 - 30


def test_row_dims_used_by_decoders():
    assert row_dims(120, 15) == [8] * 15
    assert max(row_dims(15, 9)) == 2
