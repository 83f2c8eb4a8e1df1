import numpy as np
import pytest

from burstfold.errors import (
    DependentBasis,
    DivisionByZero,
    DuplicatePoints,
    FieldTooLarge,
    GammaInKernel,
    NonPrimeCharacteristic,
    NoSuchOrder,
    ReducibleModulus,
)
from burstfold.fields import (
    TABLE_LIMIT,
    AffineGroupSpec,
    Field,
    default_subspace_basis,
    element_of_order,
    enumerate_coset_points,
    get_field,
    infer_subfield_order,
    linearized_polynomial,
)


def brute_field_ok(F, samples):
    # associativity / distributivity spot checks on scalar path
    for a in samples:
        for b in samples:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in samples:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_prime_field_basics(gf13):
    F = gf13
    assert F.q == 13
    assert F.add(7, 9) == 3
    assert F.mul(7, 9) == 63 % 13
    assert F.mul(F.inv(5), 5) == 1
    brute_field_ok(F, range(13))


def test_extension_field_basics(gf16):
    F = gf16
    assert F.modulus == 0x13
    # x * x^3 = x^4 = x + 1 under x^4+x+1
    assert F.mul(0x2, 0x8) == 0x3
    brute_field_ok(F, range(16))
    for a in range(1, 16):
        assert F.mul(a, F.inv(a)) == 1


def test_odd_extension_field(gf9):
    F = gf9
    brute_field_ok(F, range(9))
    for a in range(1, 9):
        assert F.mul(a, F.inv(a)) == 1
        assert F.add(a, F.neg(a)) == 0


def test_vectorized_matches_scalar(gf64):
    F = gf64
    rng = np.random.default_rng(1)
    a = rng.integers(0, 64, size=200)
    b = rng.integers(0, 64, size=200)
    for op in ("add", "sub", "mul"):
        vec = getattr(F, op)(a, b)
        ref = [getattr(F, op)(int(x), int(y)) for x, y in zip(a, b)]
        assert vec.tolist() == ref
    nz = np.where(b == 0, 1, b)
    assert F.div(a, nz).tolist() == [F.div(int(x), int(y)) for x, y in zip(a, nz)]
    assert F.pow(a, 5).tolist() == [F.pow(int(x), 5) for x in a]


@pytest.mark.parametrize("p,d", [(2, 4), (3, 2), (13, 1)])
def test_mul_matches_scalar_on_all_pairs(p, d):
    F = get_field(p, d)
    a, b = np.divmod(np.arange(F.q * F.q), F.q)
    got = F.mul(a, b)
    assert got.dtype == np.int64
    assert got.tolist() == [F._scalar_mul(int(x), int(y))
                            for x, y in zip(a, b)]


def test_zero_absorbing_tables_gf65536():
    F = get_field(2, 16)
    rng = np.random.default_rng(3)
    a = rng.integers(0, F.q, 10 ** 5)
    b = rng.integers(0, F.q, 10 ** 5)
    a[:1000] = 0
    b[500:1500] = 0
    want = [F._scalar_mul(int(x), int(y)) for x, y in zip(a, b)]
    assert F.mul(a, b).tolist() == want
    # the narrow copy the transforms read holds the same products
    assert F._exp0n.dtype == np.uint16
    assert F._exp0n[F._log0[a] + F._log0[b]].tolist() == want


def test_pow_edge_cases(gf16):
    F = gf16
    assert F.pow(0, 0) == 1
    assert F.pow(0, 3) == 0
    assert F.pow(5, -1) == F.inv(5)
    with pytest.raises(DivisionByZero):
        F.inv(0)
    with pytest.raises(DivisionByZero):
        F.pow(0, -2)


def test_field_validation():
    with pytest.raises(NonPrimeCharacteristic):
        Field(6)
    with pytest.raises(ReducibleModulus):
        Field(2, 4, modulus=0x18)  # x^4 + x^3 = x^3(x+1)
    F = Field(2, 4, modulus=0x19)  # x^4 + x^3 + 1, the other irreducible choice
    assert F.mul(2, F.inv(2)) == 1
    # no exp/log tables above TABLE_LIMIT, so no field either
    assert 2 ** 21 > TABLE_LIMIT
    with pytest.raises(FieldTooLarge):
        get_field(2, 21)


def test_parse_roundtrip():
    for text in ["13^1", "2^4:0x13", "2^8:0x11d"]:
        F = Field.parse(text)
        assert Field.parse(F.spec_string()) == F
    assert Field.parse("13") == get_field(13)


def test_element_of_order(gf13, gf256):
    g = element_of_order(gf13, 12)
    assert gf13.order_of(g) == 12
    assert element_of_order(gf13, 1) == 1
    h = element_of_order(gf256, 255)
    assert gf256.order_of(h) == 255
    with pytest.raises(NoSuchOrder):
        element_of_order(gf13, 5)


def test_subfield_elements(gf16, gf64):
    sub = gf16.subfield_elements(4).tolist()
    assert len(sub) == 4 and 0 in sub and 1 in sub
    F = gf64
    sub8 = F.subfield_elements(8)
    assert len(sub8) == 8
    for a in sub8:
        assert F.pow(int(a), 8) == int(a)  # fixed by Frobenius^3
    with pytest.raises(ValueError):
        gf16.subfield_elements(8)


def test_linearized_polynomial(gf16):
    F = gf16
    basis = [1, 2, 4]
    L = linearized_polynomial(F, basis, ell=2)
    # kernel = span of basis (8 elements)
    span = {0}
    for w in basis:
        span |= {F.add(s, w) for s in span}
    for x in range(16):
        val = L.eval(x)
        assert (val == 0) == (x in span)
    # additive on everything
    for x in range(16):
        for y in range(0, 16, 3):
            assert L.eval(F.add(x, y)) == F.add(L.eval(x), L.eval(y))
    with pytest.raises(DependentBasis):
        linearized_polynomial(F, [1, 2, 3], ell=2)


def test_linearized_over_larger_subfield(gf64):
    F = gf64
    basis = default_subspace_basis(F, 4, 1)
    L = linearized_polynomial(F, basis, ell=4)
    assert len(L.coeffs) == 2  # degree 4 = ell^1
    scalars = F.subfield_elements(4)
    kernel = {F.mul(int(c), basis[0]) for c in scalars}
    for x in range(64):
        assert (L.eval(x) == 0) == (x in kernel)


def test_infer_subfield_order(gf64, gf16):
    assert infer_subfield_order(gf64, 3) == 4
    assert infer_subfield_order(gf64, 7) == 8
    assert infer_subfield_order(gf64, 63) == 64
    assert infer_subfield_order(gf16, 1) == 2


def test_enumerate_points_multiplicative(gf13):
    F = gf13
    spec = AffineGroupSpec(t=12, ell=13, w_basis=[], gamma=1)
    pts = enumerate_coset_points(F, spec)
    assert sorted(pts.tolist()) == list(range(1, 13))
    # decimation order: digit radices (2,2,3); first step is the order-2 element
    g = element_of_order(F, 12)
    assert pts[0] == 1 and pts[1] == F.pow(g, 6)


def test_enumerate_points_additive(gf16):
    F = gf16
    spec = AffineGroupSpec(t=1, ell=2, w_basis=[1, 2, 4], gamma=0x8)
    pts = enumerate_coset_points(F, spec)
    assert len(pts) == 8
    assert len(set(pts.tolist())) == 8
    assert pts[0] == 0x8
    assert pts[1] == F.add(0x8, 1)  # first digit moves along w_basis[0]


def test_enumerate_points_mixed(gf64):
    F = gf64
    basis = default_subspace_basis(F, 4, 1)
    L = linearized_polynomial(F, basis, ell=4)
    gamma = next(x for x in range(1, 64) if L.eval(x) != 0)
    spec = AffineGroupSpec(t=3, ell=4, w_basis=basis, gamma=gamma)
    pts = enumerate_coset_points(F, spec)
    assert len(pts) == 12 and len(set(pts.tolist())) == 12


def test_gamma_in_kernel_rejected(gf16):
    F = gf16
    spec = AffineGroupSpec(t=3, ell=4, w_basis=[1], gamma=3)
    # gamma = 3 lies in GF(4)*1 span iff L(3) == 0; pick gamma inside span
    scalars = F.subfield_elements(4)
    inside = int(scalars[2])  # a nonzero GF(4) scalar times basis vector 1
    bad = AffineGroupSpec(t=3, ell=4, w_basis=[1], gamma=inside)
    with pytest.raises(GammaInKernel):
        enumerate_coset_points(F, bad)
    enumerate_coset_points(F, spec)  # should not raise


def test_gamma_zero_allowed_when_t1(gf16):
    F = gf16
    spec = AffineGroupSpec(t=1, ell=2, w_basis=[1, 2, 4, 8], gamma=0)
    pts = enumerate_coset_points(F, spec)
    assert sorted(pts.tolist()) == list(range(16))


def test_group_spec_parse(gf256):
    F = gf256
    spec = AffineGroupSpec.parse(F, "t=255,wdim=0,gamma=0x1")
    assert spec.t == 255 and spec.ell == 256 and spec.wdim == 0
    assert spec.chain_factors() == [3, 5, 17]
    spec2 = AffineGroupSpec.parse(F, "t=1,wdim=3,gamma=0x0,wbasis=0x1;0x2;0x4")
    assert spec2.ell == 2 and spec2.w_basis == [1, 2, 4]
    assert spec2.chain_factors() == [2, 2, 2]
    spec3 = AffineGroupSpec.parse(F, "t=255,wdim=0,gamma=0x1,tfactors=15;17")
    assert spec3.chain_factors() == [15, 17]
