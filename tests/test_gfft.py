import numpy as np
import pytest

from burstfold.errors import (
    DuplicatePoints,
    LengthMismatch,
    LevelOutOfRange,
    SmoothnessExceeded,
)
from burstfold.fields import (
    AffineGroupSpec,
    default_subspace_basis,
    element_of_order,
    get_field,
    linearized_polynomial,
)
from burstfold.gfft import (
    GfftPlan,
    composite_derivative,
    digitrev_permutation,
    dit_exponents,
    plan_build,
)

from reference import poly_derivative, poly_eval, poly_mul


def cyclic_plan_gf13():
    F = get_field(13)
    return F, plan_build(F, AffineGroupSpec(t=12, ell=13, w_basis=[], gamma=1))


def additive_plan_gf16():
    F = get_field(2, 4)
    return F, plan_build(F, AffineGroupSpec(t=1, ell=2, w_basis=[1, 2, 4], gamma=0x8))


def mixed_plan_gf64():
    F = get_field(2, 6)
    basis = default_subspace_basis(F, 4, 1)
    L = linearized_polynomial(F, basis, ell=4)
    gamma = next(x for x in range(1, 64) if L.eval(x) != 0)
    return F, plan_build(F, AffineGroupSpec(t=3, ell=4, w_basis=basis, gamma=gamma))


def composite_basis_polys(F, plan):
    """Dense polynomials for every composite basis element, via the generator
    polynomials themselves — completely independent of the transform engine."""
    group = plan.group
    w = group.wdim
    # dense generator polys: additive levels are linearized polys, the
    # multiplicative tail is powers of the top linearized poly
    gens = []
    for s in range(w):
        L = linearized_polynomial(F, group.w_basis[:s], group.ell)
        dense = [0] * (group.ell ** s + 1)
        for i, c in enumerate(L.coeffs):
            dense[group.ell ** i] = c
        gens.append(dense)
    Lw = linearized_polynomial(F, group.w_basis, group.ell)
    dense_w = [0] * (group.ell ** w + 1)
    for i, c in enumerate(Lw.coeffs):
        dense_w[group.ell ** i] = c
    running = 1
    for radix in plan.factors[w:]:
        acc = [1]
        for _ in range(running):
            acc = poly_mul(F, acc, dense_w)
        gens.append(acc)
        running *= radix
    basis = []
    for u in range(plan.n):
        prod = [1]
        rest = u
        for s, radix in enumerate(plan.factors):
            digit = rest % radix
            rest //= radix
            for _ in range(digit):
                prod = poly_mul(F, prod, gens[s])
        basis.append(prod)
    return basis


@pytest.mark.parametrize("make", [cyclic_plan_gf13, additive_plan_gf16,
                                  mixed_plan_gf64])
def test_composite_basis_is_degree_graded(make):
    F, plan = make()
    basis = composite_basis_polys(F, plan)
    for u, b in enumerate(basis):
        assert len(b) == u + 1 and b[-1] != 0, f"basis {u} has wrong degree"


@pytest.mark.parametrize("make", [cyclic_plan_gf13, additive_plan_gf16,
                                  mixed_plan_gf64])
def test_forward_matches_dense_oracle(make):
    F, plan = make()
    basis = composite_basis_polys(F, plan)
    rng = np.random.default_rng(5)
    coeffs = rng.integers(0, F.q, size=plan.n)
    expected = np.zeros(plan.n, dtype=np.int64)
    for u, c in enumerate(coeffs):
        if c:
            bu = poly_eval(F, basis[u], plan.points)
            expected = F.add(expected, F.mul(bu, int(c)))
    got = plan.forward(coeffs)
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("make", [cyclic_plan_gf13, additive_plan_gf16,
                                  mixed_plan_gf64])
def test_inverse_roundtrip(make):
    F, plan = make()
    rng = np.random.default_rng(11)
    batch = rng.integers(0, F.q, size=(4, plan.n))
    vals = plan.forward(batch)
    back = plan.inverse(vals)
    assert np.array_equal(back, batch)
    single = rng.integers(0, F.q, size=plan.n)
    assert np.array_equal(plan.inverse(plan.forward(single)), single)


def test_large_additive_roundtrip():
    F = get_field(2, 10)
    plan = plan_build(F, AffineGroupSpec(
        t=1, ell=2, w_basis=[1 << i for i in range(10)], gamma=0))
    assert plan.n == 1024
    assert sorted(plan.points.tolist()) == list(range(1024))
    rng = np.random.default_rng(2)
    v = rng.integers(0, 1024, size=1024)
    assert np.array_equal(plan.inverse(plan.forward(v)), v)


@pytest.mark.parametrize("make,s", [(cyclic_plan_gf13, 2),
                                    (additive_plan_gf16, 2),
                                    (mixed_plan_gf64, 1)])
def test_tau_matches_componentwise_evaluation(make, s):
    F, plan = make()
    sub = plan.sub_plan(s)
    m_s = plan.ms[s]
    rng = np.random.default_rng(3)
    coeffs = rng.integers(0, F.q, size=plan.n)
    vals = plan.forward(coeffs)
    M = plan.tau_forward(s, vals)
    assert M.shape == (m_s, plan.n // m_s)
    for i in range(m_s):
        row_coeffs = coeffs[i::m_s]
        assert np.array_equal(M[i], sub.forward(row_coeffs)), f"row {i}"
    assert np.array_equal(plan.tau_inverse(s, M), vals)


def test_tau_batch_and_errors():
    F, plan = additive_plan_gf16()
    rng = np.random.default_rng(4)
    vals = rng.integers(0, 16, size=(5, 8))
    M = plan.tau_forward(1, vals)
    assert M.shape == (5, 2, 4)
    assert np.array_equal(plan.tau_inverse(1, M), vals)
    with pytest.raises(LevelOutOfRange):
        plan.tau_forward(9, vals[0])
    with pytest.raises(LengthMismatch):
        plan.tau_forward(1, vals[:, :5])
    with pytest.raises(LengthMismatch):
        plan.forward(np.zeros(7, dtype=np.int64))


def test_sub_plan_points_and_cache():
    F, plan = cyclic_plan_gf13()
    sub = plan.sub_plan(2)
    assert sub.n == 3
    assert np.array_equal(sub.points, plan.gen[2][::4])
    assert plan.sub_plan(2) is sub
    with pytest.raises(LevelOutOfRange):
        plan.sub_plan(3)
    with pytest.raises(LevelOutOfRange):
        plan.sub_plan(-1)


def test_cyclic_params_detection():
    F, plan = cyclic_plan_gf13()
    # chain order of the full group is decimated, not natural
    info = plan.cyclic()
    assert info is not None
    assert not np.array_equal(info[2], np.arange(plan.n))
    sub = plan.sub_plan(2)  # single remaining factor -> natural order
    info = sub.cyclic()
    assert info is not None
    xi, alpha, exps, pos_of = info
    assert np.array_equal(exps, np.arange(3))
    assert np.array_equal(pos_of, np.arange(3))
    assert F.pow(alpha, 3) == 1 and alpha != 1
    assert np.array_equal(sub.points, F.geometric(alpha, 3, first=xi))
    # additive plans are never cyclic (they contain 0 or are not geometric)
    _, aplan = additive_plan_gf16()
    assert aplan.sub_plan(1).cyclic() is None


def test_dit_exponents_and_digitrev():
    assert digitrev_permutation([2, 2]).tolist() == [0, 2, 1, 3]
    assert digitrev_permutation([2, 3]).tolist() == [0, 3, 1, 4, 2, 5]
    exps = dit_exponents([2, 2, 3])
    assert exps.tolist() == [0, 6, 3, 9, 1, 7, 4, 10, 2, 8, 5, 11]
    F, plan = cyclic_plan_gf13()
    g = element_of_order(F, 12)
    expected = [F.pow(g, int(e)) for e in exps]
    assert plan.points.tolist() == expected


def test_local_column_transform():
    F, plan = mixed_plan_gf64()
    s = 1
    m_s = plan.ms[s]
    rng = np.random.default_rng(9)
    coeffs = rng.integers(0, 64, size=plan.n)
    vals = plan.forward(coeffs)
    for block in range(plan.n // m_s):
        seg = vals[block * m_s:(block + 1) * m_s]
        local = plan.local_column_transform(s, block, seg, inverse=True)
        # local coefficients must re-evaluate to the block values through the
        # local basis prod gen[d]^{u_d} restricted to the block
        recon = np.zeros(m_s, dtype=np.int64)
        for u in range(m_s):
            bu = np.ones(m_s, dtype=np.int64)
            rest = u
            for d in range(s):
                digit = rest % plan.factors[d]
                rest //= plan.factors[d]
                gslice = plan.gen[d][block * m_s:(block + 1) * m_s]
                for _ in range(digit):
                    bu = F.mul(bu, gslice)
            recon = F.add(recon, F.mul(bu, int(local[u])))
        assert np.array_equal(recon, seg)
        assert np.array_equal(
            plan.local_column_transform(s, block, local), seg)


def test_smoothness_bound():
    F = get_field(13)
    spec = AffineGroupSpec(t=12, ell=13, w_basis=[], gamma=1)
    plan_build(F, spec, smoothness_bound=3)  # factors (2,2,3) all within 3
    with pytest.raises(SmoothnessExceeded):
        plan_build(F, spec, smoothness_bound=2)


def test_corrupt_tables_rejected():
    F, plan = additive_plan_gf16()
    bad_gen = [g.copy() for g in plan.gen]
    bad_gen[1][0] = F.add(bad_gen[1][0], 1)  # break block constancy
    with pytest.raises(DuplicatePoints):
        GfftPlan(F, plan.factors, bad_gen, group=plan.group)


@pytest.mark.parametrize("make", [cyclic_plan_gf13, additive_plan_gf16,
                                  mixed_plan_gf64])
def test_composite_derivative_against_dense(make):
    F, plan = make()
    basis = composite_basis_polys(F, plan)
    rng = np.random.default_rng(13)
    coeffs = rng.integers(0, F.q, size=plan.n)
    # dense derivative of the dense expansion
    dense = [0] * plan.n
    for u, c in enumerate(coeffs):
        if c:
            for i, b in enumerate(basis[u]):
                dense[i] = F.add(dense[i], F.mul(b, int(c)))
    dense_deriv = poly_derivative(F, dense)
    got = composite_derivative(plan, coeffs)
    got_vals = plan.forward(got)
    want_vals = poly_eval(F, dense_deriv, plan.points)
    assert np.array_equal(got_vals, want_vals)


def test_composite_derivative_on_sub_plan():
    F, plan = mixed_plan_gf64()
    sub = plan.sub_plan(1)  # variable is the level-1 linearized image
    rng = np.random.default_rng(17)
    coeffs = rng.integers(0, 64, size=sub.n)
    # sub-plan is cyclic/monomial here (remaining factor is multiplicative):
    # derivative must match the monomial rule in the quotient variable
    got = composite_derivative(sub, coeffs)
    want = np.zeros_like(coeffs)
    want[:-1] = [F.mul(int((i + 1) % F.p), int(c))
                 for i, c in enumerate(coeffs[1:])]
    assert np.array_equal(got, want)
