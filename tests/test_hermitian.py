"""Hermitian-curve codes: places, function basis, encoding, burst decoding."""

import numpy as np
import pytest

from burstfold.errors import (
    ConfigInfeasible,
    DetectedFailure,
    DimensionOutOfRange,
    FieldOrderMismatch,
    IndexOutsideBasis,
    LambdaTooSmall,
)
from burstfold.fields import AffineGroupSpec, enumerate_coset_points, \
    get_field, linearized_polynomial
from burstfold.decoders import list_decode
from burstfold.gfft import plan_build
from burstfold.hermitian import (
    HermitianCode,
    HermitianCurve,
    ag_unique_decode,
    ag_unique_decode_batch,
    rr_basis,
    staircase_dims,
)

from test_gfft import composite_basis_polys


def full_affine_base(F):
    """Base plan covering every element of GF(16)."""
    group = AffineGroupSpec(t=1, ell=2, w_basis=[1, 2, 4, 8], gamma=0)
    return plan_build(F, group)


def mult_base(F):
    """Base plan on GF(16)^* in natural alpha-power order (single radix-15
    stage keeps the chain order equal to the exponent order)."""
    group = AffineGroupSpec(t=15, ell=2, w_basis=[], gamma=1,
                            t_factors=[15])
    return plan_build(F, group)


@pytest.fixture(scope="module")
def curve16(gf16):
    return HermitianCurve(gf16, 4)


@pytest.fixture(scope="module")
def list_code(gf16, curve16):
    return HermitianCode(curve16, full_affine_base(gf16), 20)


@pytest.fixture(scope="module")
def unique_code(gf16, curve16):
    return HermitianCode(curve16, mult_base(gf16), 20)


# -- curve construction --

def test_curve_validation(gf13, gf16):
    with pytest.raises(FieldOrderMismatch):
        HermitianCurve(gf13, 4)
    with pytest.raises(FieldOrderMismatch):
        HermitianCurve(gf16, 5)


def test_curve_gf64_kappa8(gf64):
    c = HermitianCurve(gf64, 8)
    assert c.rc == 3 and c.genus == 28
    assert len(c.kernel_basis) == 3


def test_kernel_and_fibers(gf16, curve16):
    F, c = gf16, curve16
    for b in c.fiber(0):
        assert F.add(F.pow(int(b), 4), int(b)) == 0
    assert len(set(int(b) for b in c.fiber(0))) == 4
    for a in range(16):
        fib = c.fiber(a)
        rhs = F.pow(a, 5)
        for b in fib:
            assert F.add(F.pow(int(b), 4), int(b)) == rhs
        assert len(set(int(b) for b in fib)) == 4


def test_odd_characteristic_curve(gf9):
    c = HermitianCurve(gf9, 3)
    assert c.rc == 1 and c.genus == 3
    F = gf9
    for a in range(9):
        for b in c.fiber(a):
            assert F.add(F.pow(int(b), 3), int(b)) == F.pow(a, 4)


# -- function basis --

def test_rr_basis_staircase_gf16(curve16):
    pairs = rr_basis(curve16, 20)
    assert len(pairs) == 15
    assert staircase_dims(curve16, 20) == [6, 4, 3, 2]
    orders = [u * 5 + j * 4 for u, j in pairs]
    assert orders == sorted(orders)
    assert len(set(orders)) == len(orders)
    assert pairs[0] == (0, 0)


def test_rr_dimension_formula(curve16):
    # above 2g-1 the staircase size is bound + 1 - genus
    g = curve16.genus
    for lam in range(2 * g - 1, 40):
        assert len(rr_basis(curve16, lam)) == lam + 1 - g


def test_rr_basis_errors(gf16, curve16):
    with pytest.raises(LambdaTooSmall):
        rr_basis(curve16, 3)
    with pytest.raises(DimensionOutOfRange):
        HermitianCode(curve16, mult_base(gf16), 80)  # x-degree 20 > 15


# -- code construction and encoding --

def test_code_shape(list_code, unique_code):
    assert (list_code.n, list_code.k) == (64, 15)
    assert (unique_code.n, unique_code.k) == (60, 15)
    assert len(list_code.places) == 64
    assert len(set(list_code.places)) == 64


def naive_eval_matrix(F, code):
    """Evaluate each basis function directly at each place."""
    curve, base = code.curve, code.base
    xpolys = composite_basis_polys(F, base)
    ytabs = []
    for i in range(curve.rc):
        L = linearized_polynomial(F, curve.kernel_basis[:i], F.p)
        ytabs.append(L)
    rows = []
    for u, j in code.basis:
        vals = []
        for a, b in code.places:
            yv = 1
            uu = u
            for i in range(curve.rc):
                d = uu % F.p
                uu //= F.p
                yv = F.mul(yv, F.pow(ytabs[i].eval(b), d))
            xv = 0
            for c in reversed(xpolys[j]):
                xv = F.add(F.mul(xv, a), int(c))
            vals.append(F.mul(yv, xv))
        rows.append(vals)
    return np.array(rows, dtype=np.int64)


@pytest.mark.parametrize("which", ["list", "unique"])
def test_encode_matches_naive(gf16, list_code, unique_code, which):
    code = list_code if which == "list" else unique_code
    M = naive_eval_matrix(gf16, code)
    eye = np.eye(code.k, dtype=np.int64)
    assert np.array_equal(code.encode(eye), M)
    rng = np.random.default_rng(11)
    msg = rng.integers(0, 16, code.k)
    direct = np.zeros(code.n, dtype=np.int64)
    for c, row in zip(msg, M):
        direct = gf16.add(direct, gf16.mul(int(c), row))
    assert np.array_equal(code.encode(msg), direct)


def test_encode_roundtrip_and_membership(gf16, list_code):
    rng = np.random.default_rng(5)
    msg = rng.integers(0, 16, (4, list_code.k))
    cw = list_code.encode(msg)
    assert np.array_equal(list_code.message_from_word(cw), msg)
    assert list_code.is_codeword(cw[0])
    bad = cw[0].copy()
    bad[7] = gf16.add(int(bad[7]), 1)
    assert not list_code.is_codeword(bad)
    with pytest.raises(IndexOutsideBasis):
        list_code.encode(np.zeros(list_code.k + 1, dtype=np.int64))


def test_combined_subplan_equals_base(gf16, list_code):
    sub = list_code.plan.sub_plan(list_code.curve.rc)
    rng = np.random.default_rng(3)
    v = rng.integers(0, 16, 16)
    assert np.array_equal(sub.forward(v), list_code.base.forward(v))


def test_tau_rows_are_base_transforms(gf16, unique_code):
    code = unique_code
    rng = np.random.default_rng(9)
    msg = rng.integers(0, 16, code.k)
    cw = code.encode(msg)
    mat = code.plan.tau_forward(2, cw)
    co = code.plan.inverse(cw)
    for u in range(4):
        assert np.array_equal(mat[u], code.base.forward(co[u::4]))
    assert np.array_equal(code.plan.tau_inverse(2, mat), cw)


def test_fold_dims(list_code, unique_code):
    assert list_code.fold_dims(4) == [2, 1, 1, 1, 2, 1, 1, 1,
                                      1, 1, 1, 0, 1, 1, 0, 0]
    assert unique_code.fold_dims(2) == [6, 4, 3, 2]
    with pytest.raises(ConfigInfeasible):
        list_code.fold_dims(1)


# -- decoding --

def plant_burst(F, rng, cw, length, start):
    bad = cw.copy()
    noise = rng.integers(1, F.q, length)
    bad[start:start + length] = F.add(bad[start:start + length], noise)
    if F.sub(int(bad[start]), int(cw[start])) == 0:
        bad[start] = F.add(int(cw[start]), 1)
    if length > 1 and F.sub(int(bad[start + length - 1]),
                            int(cw[start + length - 1])) == 0:
        bad[start + length - 1] = F.add(int(cw[start + length - 1]), 1)
    return bad


def test_ag_list_roundtrip(gf16, list_code):
    code = list_code
    rng = np.random.default_rng(21)
    radius = 15
    for trial in range(30):
        msg = rng.integers(0, 16, code.k)
        cw = code.encode(msg)
        ln = int(rng.integers(1, radius + 1))
        st = int(rng.integers(0, code.n - ln + 1))
        out = list_decode(code, plant_burst(gf16, rng, cw, ln, st), 4)
        assert any(np.array_equal(c, cw) for c in out)
    out = list_decode(code, cw, 4)
    assert any(np.array_equal(c, cw) for c in out)


def test_ag_list_boundary_starts(gf16, list_code):
    code = list_code
    rng = np.random.default_rng(22)
    msg = rng.integers(0, 16, code.k)
    cw = code.encode(msg)
    for st in (0, code.n - 15):
        out = list_decode(code, plant_burst(gf16, rng, cw, 15, st), 4)
        assert any(np.array_equal(c, cw) for c in out)


def test_ag_unique_roundtrip(gf16, unique_code):
    code = unique_code
    rng = np.random.default_rng(33)
    for trial in range(40):
        msg = rng.integers(0, 16, code.k)
        cw = code.encode(msg)
        ln = int(rng.integers(1, 20))
        st = int(rng.integers(0, code.n - ln + 1))
        got, word, out = ag_unique_decode(
            code, plant_burst(gf16, rng, cw, ln, st), 2, e=2)
        assert np.array_equal(word, cw)
        assert np.array_equal(got, msg)
    got, word, out = ag_unique_decode(code, cw, 2, e=2)
    assert np.array_equal(word, cw) and out.status == "ok"


def test_ag_unique_batch_and_oversize(gf16, unique_code):
    code = unique_code
    rng = np.random.default_rng(44)
    msgs = rng.integers(0, 16, (6, code.k))
    cws = code.encode(msgs)
    rcv = cws.copy()
    for i in range(6):
        ln = int(rng.integers(1, 20))
        st = int(rng.integers(0, code.n - ln + 1))
        rcv[i] = plant_burst(gf16, rng, cws[i], ln, st)
    outs = ag_unique_decode_batch(code, rcv, 2, e=2)
    assert all(o.status == "ok" and np.array_equal(o.codeword, cws[i])
               for i, o in enumerate(outs))
    # far beyond the radius: either an explicit failure or some codeword
    big = plant_burst(gf16, rng, cws[0], 40, 5)
    try:
        _, word, _ = ag_unique_decode(code, big, 2, e=2)
        assert code.is_codeword(word)
    except DetectedFailure:
        pass


def test_ag_decode_config_errors(gf16, list_code):
    with pytest.raises(ConfigInfeasible):
        list_decode(list_code, np.zeros(64, dtype=np.int64), 4, radius=40)
    with pytest.raises(ConfigInfeasible):
        # the full-affine base is not multiplicatively cyclic
        ag_unique_decode(list_code, np.zeros(64, dtype=np.int64), 2, e=1)
