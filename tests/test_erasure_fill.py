"""The erasure-window tables and the fill: rs.cyclic_window_tables against
the node-product tables of reference.py, the fill's consistency flag
against the inverse transform of its candidate, and per-row dimensions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from burstfold.errors import CyclicStructureAbsent
from burstfold.fields import AffineGroupSpec, Field
from burstfold.gfft import plan_build
from burstfold.rs import (
    cyclic_window_tables,
    erasure_fill_batch,
    plan_window_tables,
)

from reference import cyclic_window_tables_nodes
from test_gfft import (
    additive_plan_gf16,
    cyclic_plan_gf13,
    mixed_plan_gf64,
    mixed_plan_gf9,
)

CYCLIC_SPECS = [
    ("13", "t=12,gamma=0x2,tfactors=12"),
    ("13", "t=12,gamma=0x2,tfactors=3;4"),
    ("13", "t=12,gamma=0x2"),
    ("3^2", "t=8,gamma=0x1"),
    ("2^4", "t=15,gamma=0x5"),
    ("2^8:0x11d", "t=255,gamma=0x1"),
    ("2^8:0x11d", "t=85,gamma=0x3"),
    ("2^8:0x11d", "t=255,gamma=0x7,tfactors=15;17"),
]


def cyclic_plans(field_spec, group_spec):
    """The plan and each of its cyclic sub-plans."""
    F = Field.parse(field_spec)
    plan = plan_build(F, AffineGroupSpec.parse(F, group_spec))
    subs = [plan.sub_plan(s) for s in range(1, plan.depth)]
    return [p for p in [plan, *subs] if p.cyclic() is not None]


@pytest.mark.parametrize("field_spec,group_spec", CYCLIC_SPECS)
def test_cyclic_window_tables_match_node_product(field_spec, group_spec):
    rng = np.random.default_rng(len(group_spec))
    plans = cyclic_plans(field_spec, group_spec)
    assert plans
    for plan in plans:
        n = plan.n
        for L in range(n):
            # every start on short plans; otherwise a window that wraps past
            # exponent n-1, a random one and one given beyond n
            starts = (range(n) if n <= 16 else
                      [(n - L // 2) % n, int(rng.integers(0, n)),
                       n + int(rng.integers(0, n))])
            for s in starts:
                mask, lam, lamp = cyclic_window_tables(plan, s, L)
                wmask, wlam, wlamp = cyclic_window_tables_nodes(plan, s, L)
                where = (group_spec, n, s, L)
                assert np.array_equal(mask, wmask), where
                assert np.array_equal(lam, wlam), where
                assert np.array_equal(lamp[mask], wlamp[mask]), where
                assert np.all(lamp[~mask] == 0), where


def test_cyclic_window_tables_need_a_cyclic_plan():
    _, plan = additive_plan_gf16()
    with pytest.raises(CyclicStructureAbsent):
        cyclic_window_tables(plan, 0, 2)


FILL_PLANS = [cyclic_plan_gf13, additive_plan_gf16, mixed_plan_gf64,
              mixed_plan_gf9]


@settings(max_examples=150, deadline=None)
@given(make=st.sampled_from(FILL_PLANS), data=st.data())
def test_fill_ok_is_inverse_degree(make, data):
    """ok is True exactly when the candidate's inverse transform has no
    coefficient at an index >= k, on consistent and corrupted words, for
    k = 0 up to k + L = n, on index and cyclic windows."""
    F, plan = make()
    n = plan.n
    k = data.draw(st.integers(0, n), label="k")
    # a window of all n points has a vanisher of degree n, outside the basis
    L = data.draw(st.integers(0, min(n - k, n - 1)), label="L")
    cyclic = plan.cyclic() is not None and data.draw(st.booleans(),
                                                     label="cyclic")
    start = data.draw(st.integers(0, n - 1 if cyclic else n - L),
                      label="start")
    if cyclic:
        tables = cyclic_window_tables(plan, start, L)
    else:
        tables = plan_window_tables(plan, start, L)
    mask = tables[0]
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1),
                                          label="seed"))
    words = np.zeros((6, n), dtype=np.int64)
    words[:, :k] = rng.integers(0, F.q, (6, k))
    words = plan.forward(words)
    words[:, mask] = rng.integers(0, F.q, (6, L))  # garbage in the window
    # rows 3..5 also take one error outside the window
    outside = np.flatnonzero(~mask)
    if outside.size:
        for i in range(3, 6):
            j = rng.choice(outside)
            words[i, j] = F.add(int(words[i, j]), int(rng.integers(1, F.q)))
    cand, co, ok = erasure_fill_batch(plan, words, *tables, k)
    want = np.all(plan.inverse(cand)[:, k:] == 0, axis=1)
    assert np.array_equal(ok, want)
    assert ok[:3].all()
    assert np.array_equal(cand[:, ~mask], words[:, ~mask])
    # co is the interpolant of lam times the word
    assert np.array_equal(plan.forward(co), F.mul(words, tables[1]))


@pytest.mark.parametrize("make,start,L", [(cyclic_plan_gf13, 3, 5),
                                          (additive_plan_gf16, 2, 3),
                                          (mixed_plan_gf64, 5, 4)])
def test_fill_per_row_dimensions(make, start, L):
    """One fill with a dimension per row equals one call per dimension."""
    F, plan = make()
    n = plan.n
    tables = plan_window_tables(plan, start, L)
    rng = np.random.default_rng(n)
    ks = rng.integers(0, n - L + 1, 40)
    ks[:3] = [0, n - L, 1]
    msgs = rng.integers(0, F.q, (40, n))
    msgs[np.arange(n)[None, :] >= ks[:, None]] = 0
    words = plan.forward(msgs)
    words[:, tables[0]] = rng.integers(0, F.q, (40, L))
    j = 0 if start else n - 1  # outside the window
    words[::4, j] = F.add(words[::4, j], 1)  # some rows inconsistent
    cand, co, ok = erasure_fill_batch(plan, words, *tables, ks)
    for k in np.unique(ks):
        rows = ks == k
        c1, co1, ok1 = erasure_fill_batch(plan, words[rows], *tables, int(k))
        assert np.array_equal(cand[rows], c1)
        assert np.array_equal(co[rows], co1)
        assert np.array_equal(ok[rows], ok1)
    assert not ok.all() and ok.any()


def test_cyclic_and_index_windows_agree_in_natural_order():
    """On a natural-order plan an exponent window that does not wrap holds
    the same points as the index window, and both routines agree on it."""
    F = Field.parse("13")
    group = AffineGroupSpec.parse(F, "t=12,gamma=0x2,tfactors=12")
    plan = plan_build(F, group)
    for s in range(12):
        for L in range(min(12 - s, 11) + 1):
            mask, lam, lamp = cyclic_window_tables(plan, s, L)
            imask, ilam, ilamp = plan_window_tables(plan, s, L)
            assert np.array_equal(mask, imask)
            assert np.array_equal(lam, ilam)
            assert np.array_equal(lamp[mask], ilamp[mask])
