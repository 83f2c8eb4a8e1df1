"""Chain-of-groups fast transforms.

A plan captures a length-n evaluation set that factors through a chain of
quotients with small radices (the "chain factors").  Each level s of the
chain has a generator function x_s whose value at a point depends only on
the point's chain digits at positions >= s; the value tables of these
generators are all the engine needs.

The transform maps coefficient vectors in the *composite basis* — the
products prod_s x_s^{u_s} with u_s < radix_s, indexed by the mixed-radix
integer u — to value vectors on the points, in O(n * sum(radices)) field
operations, by the usual decimation-in-time butterfly recursion with
per-block Vandermonde matrices.  Because every generator is monic of the
right degree in the evaluation variable, the composite basis is degree
graded: basis element u has degree exactly u, so "degree < k" is the same
as "coefficients k.. are zero".

For evaluation sets that come from a unit-subgroup-times-subspace coset
(AffineGroupSpec) the plan is built by plan_build; Hermitian-curve plans
reuse the same machinery with curve-specific tables.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DuplicatePoints,
    LengthMismatch,
    LevelOutOfRange,
    SmoothnessExceeded,
)
from .fields import (
    AffineGroupSpec,
    Field,
    enumerate_coset_points,
    linearized_polynomial,
)


# Elements per butterfly chunk: rows are processed in slabs of about this
# size so that the level temporaries stay cache-sized.
CHUNK = 1 << 15


def products_prefix(factors) -> list[int]:
    """[1, f0, f0*f1, ...] — block size below each level."""
    out = [1]
    for f in factors:
        out.append(out[-1] * f)
    return out


def digitrev_permutation(factors) -> np.ndarray:
    """pos[u] = the digit-reversed position of u (mixed radix, first digit
    fastest on input, slowest on output)."""
    n = math.prod(factors) if factors else 1
    idx = np.arange(n, dtype=np.int64)
    pos = np.zeros(n, dtype=np.int64)
    m = 1
    weight = n
    for p in factors:
        digit = (idx // m) % p
        weight //= p
        pos += digit * weight
        m *= p
    return pos


def dit_exponents(factors) -> np.ndarray:
    """Exponent pattern of a decimation-in-time enumeration of a cyclic group
    of order prod(factors): position j holds generator^e[j]."""
    n = math.prod(factors) if factors else 1
    idx = np.arange(n, dtype=np.int64)
    e = np.zeros(n, dtype=np.int64)
    m = 1
    running = 1
    for p in factors:
        digit = (idx // m) % p
        running *= p
        e += digit * (n // running)
        m *= p
    return e


def _vandermonde_inverses(field: Field, nodes: np.ndarray) -> np.ndarray:
    """Batched inverse Vandermonde: nodes (N, p) -> Vi (N, p, p) with
    Vi[J] @ vand(nodes[J]) = I, computed per block via Lagrange basis
    coefficients (synthetic division of the master polynomial)."""
    F = field
    N, p = nodes.shape
    master = np.zeros((N, p + 1), dtype=np.int64)
    master[:, 0] = 1
    for a in range(p):
        negx = F.neg(nodes[:, a])
        shifted = np.zeros_like(master)
        shifted[:, 1:] = master[:, :-1]
        master = F.add(shifted, F.mul(master, negx[:, None]))
    Vi = np.zeros((N, p, p), dtype=np.int64)
    for a in range(p):
        x = nodes[:, a]
        basis = np.zeros((N, p), dtype=np.int64)
        carry = master[:, p]
        for j in range(p - 1, -1, -1):
            basis[:, j] = carry
            carry = F.add(master[:, j], F.mul(carry, x))
        denom = basis[:, p - 1]
        for j in range(p - 2, -1, -1):
            denom = F.add(F.mul(denom, x), basis[:, j])
        scale = F.inv(denom)
        Vi[:, :, a] = F.mul(basis, scale[:, None])
    return Vi


class GfftPlan:
    """Precomputed transform plan for one evaluation set.

    Attributes
    ----------
    field       the coefficient field
    factors     chain radices (p_1, ..., p_r), finest level first
    n           number of evaluation points (= prod factors)
    gen         r+1 value tables; gen[s][j] is the level-s generator at point j
                (gen[0] is the evaluation point itself for polynomial plans,
                gen[r] is constant)
    """

    def __init__(self, field: Field, factors, gen_tables, group=None,
                 smoothness_bound=None, check: bool = True, _shared=None,
                 deriv_info=None):
        self.field = field
        self.deriv_info = deriv_info
        self.factors = [int(f) for f in factors]
        self.gen = [np.asarray(g, dtype=np.int64) for g in gen_tables]
        self.n = int(len(self.gen[0]))
        self.group = group
        self.ms = products_prefix(self.factors)
        if self.ms[-1] != self.n:
            raise LengthMismatch("factor product disagrees with table length")
        if len(self.gen) != len(self.factors) + 1:
            raise LengthMismatch("need one generator table per level plus top")
        if smoothness_bound is not None and self.factors:
            worst = max(self.factors)
            if worst > smoothness_bound:
                raise SmoothnessExceeded(
                    f"chain radix {worst} exceeds bound {smoothness_bound}")
        if check:
            self._check_tables()
        if _shared is not None:
            self._lv_tabs, self._lvi_tabs = _shared
        else:
            self._build_butterflies()
        self._drev_cache: dict[int, np.ndarray] = {}
        self._sub_cache: dict[int, GfftPlan] = {}
        self._cyclic = -1  # lazily computed by cyclic()
        # (start, length) -> (mask, lam, lamp), least recently used first;
        # see rs.plan_window_tables
        self._window_cache: dict[tuple, tuple] = {}
        self._row_codes: dict = {}  # k -> rs.RsCode; see rs.row_code

    # -- setup --

    def _check_tables(self) -> None:
        n = self.n
        for s, tab in enumerate(self.gen):
            if len(tab) != n:
                raise LengthMismatch("generator table length mismatch")
            m = self.ms[s] if s < len(self.ms) else self.ms[-1]
            if m > 1:
                blocks = tab.reshape(n // m, m)
                if not np.array_equal(blocks, np.broadcast_to(
                        blocks[:, :1], blocks.shape)):
                    raise DuplicatePoints(
                        f"level-{s} generator varies inside its blocks")
        if len(np.unique(self.gen[0])) != n and self.group is not None:
            raise DuplicatePoints("evaluation points are not distinct")

    def _build_butterflies(self) -> None:
        """Per level d, the log0 tables of the block Vandermonde matrices:
        _lv_tabs[d][u, a, J] = log0(node[J, a]^u) and
        _lvi_tabs[d][a, u, J] = log0(Vi[J, u, a]), laid out so that each
        butterfly step reads one contiguous slab."""
        F = self.field
        self._lv_tabs = []
        self._lvi_tabs = []
        for d, p in enumerate(self.factors):
            m = self.ms[d]
            nodes = self.gen[d][::m].reshape(-1, p)
            srt = np.sort(nodes, axis=1)
            if np.any(srt[:, 1:] == srt[:, :-1]):
                raise DuplicatePoints(
                    f"level-{d} generator repeats within a block")
            V = np.empty((p,) + nodes.T.shape, dtype=np.int64)
            V[0] = 1
            for u in range(1, p):
                V[u] = F.mul(V[u - 1], nodes.T)
            self._lv_tabs.append(F._log0[V])
            Vi = _vandermonde_inverses(F, nodes)
            self._lvi_tabs.append(
                np.ascontiguousarray(F._log0[Vi].transpose(2, 1, 0)))

    def _drev(self, s: int) -> np.ndarray:
        if s not in self._drev_cache:
            self._drev_cache[s] = digitrev_permutation(self.factors[:s])
        return self._drev_cache[s]

    # -- properties --

    @property
    def points(self) -> np.ndarray:
        return self.gen[0]

    @property
    def depth(self) -> int:
        return len(self.factors)

    def block_size(self, s: int) -> int:
        """m_s = number of points per level-s block."""
        if not 0 <= s <= self.depth:
            raise LevelOutOfRange(f"level {s} not in 0..{self.depth}")
        return self.ms[s]

    def cyclic(self):
        """(xi, alpha, exps, pos_of) when points[j] = xi * alpha^exps[j] with
        exps the chain's decimation-in-time exponent pattern (dit_exponents)
        and pos_of its inverse permutation; None otherwise.  The points are
        in natural order, points[j] = xi * alpha^j, iff exps is the
        identity."""
        if self._cyclic == -1:
            self._cyclic = None
            pts = self.points
            if np.all(pts != 0):
                F = self.field
                exps = dit_exponents(self.factors)
                pos_of = np.argsort(exps)
                xi = int(pts[0])
                alpha = F.div(int(pts[pos_of[1]]), xi) if self.n > 1 else 1
                if F.pow(alpha, self.n) == 1 and np.array_equal(
                        pts, F.geometric(alpha, self.n, first=xi)[exps]):
                    self._cyclic = (xi, alpha, exps, pos_of)
        return self._cyclic

    # -- core engine --

    def _as_batch(self, vec, length: int):
        arr = np.asarray(vec, dtype=np.int64)
        if arr.ndim == 1:
            if arr.shape[0] != length:
                raise LengthMismatch(
                    f"expected length {length}, got {arr.shape[0]}")
            return arr[None, :], True
        if arr.ndim == 2:
            if arr.shape[1] != length:
                raise LengthMismatch(
                    f"expected row length {length}, got {arr.shape[1]}")
            return arr, False
        raise LengthMismatch("expected a vector or a batch of vectors")

    def _ascend(self, B: np.ndarray, d_hi: int) -> np.ndarray:
        """Run butterfly combine steps for depths d_hi-1 .. 0.

        B: (batch, N) where N = prod(factors[:d_hi]) * (values per sub-problem).
        Each level is p-1 steps of one exp0 lookup and one field add, run on
        slabs of about CHUNK elements; field elements stay in exp0's narrow
        dtype between levels in characteristic 2.
        """
        F = self.field
        log0, exp0 = F._log0, F._exp0n
        char2 = F.p == 2  # addition is XOR, done in place
        dt = exp0.dtype if char2 else np.int64
        batch, N = B.shape
        for d in reversed(range(d_hi)):
            p = self.factors[d]
            m_d = self.ms[d]
            nJ = N // (m_d * p)
            LV = self._lv_tabs[d]
            A = B.reshape(batch * m_d, p, nJ)
            out = np.empty((batch * m_d, nJ, p), dtype=dt)
            step = max(1, CHUNK // (p * nJ))
            for lo in range(0, batch * m_d, step):
                Ac = A[lo:lo + step]
                LA = log0.take(Ac[:, 1:])
                # node^0 = 1: output a starts from coefficient 0 for every a
                acc = np.repeat(Ac[:, :1].astype(dt, copy=False), p, axis=1)
                for u in range(1, p):
                    term = exp0.take(LV[u] + LA[:, u - 1, None])
                    if char2:
                        acc ^= term
                    else:
                        acc = F.add(acc, term)
                # accumulated as (row, a, J) so each step's add runs along J;
                # the level's output order is (row, J, a)
                out[lo:lo + step] = acc.transpose(0, 2, 1)
            B = out.reshape(batch, N)
        return B.astype(np.int64, copy=False)

    def _descend(self, B: np.ndarray, d_hi: int) -> np.ndarray:
        """Run butterfly split steps for depths 0 .. d_hi-1 (inverse order)."""
        F = self.field
        log0, exp0 = F._log0, F._exp0n
        char2 = F.p == 2  # addition is XOR, done in place
        dt = exp0.dtype if char2 else np.int64
        batch, N = B.shape
        for d in range(d_hi):
            p = self.factors[d]
            m_d = self.ms[d]
            nJ = N // (m_d * p)
            LVi = self._lvi_tabs[d]
            A = B.reshape(batch * m_d, nJ, p)
            out = np.empty((batch * m_d, p, nJ), dtype=dt)
            step = max(1, CHUNK // (p * nJ))
            for lo in range(0, batch * m_d, step):
                LA = log0.take(A[lo:lo + step])
                acc = exp0.take(LVi[0] + LA[:, None, :, 0]).astype(
                    dt, copy=False)
                for a in range(1, p):
                    term = exp0.take(LVi[a] + LA[:, None, :, a])
                    if char2:
                        acc ^= term
                    else:
                        acc = F.add(acc, term)
                out[lo:lo + step] = acc
            B = out.reshape(batch, N)
        return B.astype(np.int64, copy=False)

    # -- public transforms --

    def forward(self, coeffs):
        """Composite-basis coefficients -> values on the points."""
        B, single = self._as_batch(coeffs, self.n)
        out = np.empty_like(B)
        out[:, self._drev(self.depth)] = B
        out = self._ascend(out, self.depth)
        return out[0] if single else out

    def inverse(self, values):
        """Values on the points -> composite-basis coefficients."""
        B, single = self._as_batch(values, self.n)
        B = self._descend(B, self.depth)
        out = B[:, self._drev(self.depth)]
        return out[0] if single else out

    def tau_forward(self, s: int, values):
        """Values of one length-n vector -> the m_s x n_s matrix whose row i
        holds the values of the i-th interleaved component on the level-s
        quotient points (gen[s] sampled once per block)."""
        if not 0 <= s <= self.depth:
            raise LevelOutOfRange(f"level {s} not in 0..{self.depth}")
        B, single = self._as_batch(values, self.n)
        m_s = self.ms[s]
        n_s = self.n // m_s
        B = self._descend(B, s)
        M = B.reshape(B.shape[0], m_s, n_s)
        M = M[:, self._drev(s), :]
        return M[0] if single else M

    def tau_inverse(self, s: int, mat):
        """Inverse of tau_forward."""
        if not 0 <= s <= self.depth:
            raise LevelOutOfRange(f"level {s} not in 0..{self.depth}")
        M = np.asarray(mat, dtype=np.int64)
        single = M.ndim == 2
        if single:
            M = M[None]
        m_s = self.ms[s]
        n_s = self.n // m_s
        if M.shape[1] != m_s or M.shape[2] != n_s:
            raise LengthMismatch(
                f"expected {m_s} x {n_s} matrix, got {M.shape[1]} x {M.shape[2]}")
        B = np.empty_like(M)
        B[:, self._drev(s), :] = M
        B = B.reshape(M.shape[0], self.n)
        B = self._ascend(B, s)
        return B[0] if single else B

    def sub_plan(self, s: int) -> "GfftPlan":
        """Plan for the level-s quotient set (one point per level-s block)."""
        if not 0 <= s < self.depth:
            raise LevelOutOfRange(f"level {s} not in 0..{self.depth - 1}")
        if s == 0:
            return self
        if s not in self._sub_cache:
            m_s = self.ms[s]
            gen = [g[::m_s] for g in self.gen[s:]]
            shared = (self._lv_tabs[s:], self._lvi_tabs[s:])
            sub_deriv = None
            if self.deriv_info is not None:
                w, cs = self.deriv_info
                if s <= w:
                    # chain rule: the quotient variable is a linearized image
                    # of x, so linear coefficients divide through
                    sub_deriv = (w - s, [self.field.div(cs[s + i], cs[s])
                                         for i in range(w - s + 1)])
                else:
                    sub_deriv = (0, [1])
            self._sub_cache[s] = GfftPlan(
                self.field, self.factors[s:], gen, group=None,
                check=False, _shared=shared, deriv_info=sub_deriv)
        return self._sub_cache[s]


def plan_build(field: Field, group: AffineGroupSpec,
               smoothness_bound: int | None = None) -> GfftPlan:
    """Build the transform plan for a unit-coset evaluation set.

    Generator functions: level i <= wdim is the linearized polynomial of the
    first i subspace basis vectors; level wdim+j is that polynomial raised to
    the running product of the first j chain factors of t.
    """
    points = enumerate_coset_points(field, group)
    factors = group.chain_factors()
    w = group.wdim
    gen = [points]
    lincoeffs = [1]
    for i in range(1, w + 1):
        L = linearized_polynomial(field, group.w_basis[:i], group.ell)
        gen.append(L.eval(points))
        lincoeffs.append(L.linear_coeff)
    xw = gen[w]
    running = 1
    for radix in factors[w:]:
        running *= radix
        gen.append(field.pow(xw, running))
    return GfftPlan(field, factors, gen, group=group,
                    smoothness_bound=smoothness_bound,
                    deriv_info=(w, lincoeffs))


def composite_derivative(plan: GfftPlan, coeffs):
    """d/dx of a composite-basis coefficient vector, in the same basis.

    Every additive-level generator is a linearized polynomial, so its formal
    derivative is its linear coefficient; the multiplicative tail contributes
    the usual monomial rule on the quotient index.  The whole map is a sparse
    shift-and-scale with at most (wdim + 1) terms per coefficient.
    """
    if plan.deriv_info is None:
        raise LevelOutOfRange("plan carries no differentiation structure")
    w, cs = plan.deriv_info
    F = plan.field
    p = F.p
    n = plan.n
    B, single = plan._as_batch(coeffs, n)
    D = np.zeros_like(B)
    idx = np.arange(n)
    for s in range(w):
        m_s = plan.ms[s]
        dig = (idx // m_s) % plan.factors[s]
        small = dig % p
        mask = small != 0
        if not np.any(mask):
            continue
        scale = F.mul(small[mask], cs[s])
        src = idx[mask]
        D[:, src - m_s] = F.add(D[:, src - m_s],
                                F.mul(B[:, src], scale[None, :]))
    m_w = plan.ms[w]
    quot = idx // m_w
    small = quot % p
    mask = small != 0
    if np.any(mask):
        scale = F.mul(small[mask], cs[w])
        src = idx[mask]
        D[:, src - m_w] = F.add(D[:, src - m_w],
                                F.mul(B[:, src], scale[None, :]))
    return D[0] if single else D

