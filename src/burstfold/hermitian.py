"""Hermitian-curve evaluation codes on top of the chain transforms.

The curve y^kappa + y = x^(kappa+1) over GF(kappa^2) has kappa places above
every affine x-value: the fiber is b0 + K where K is the kernel of the
F_p-linear map b -> b^kappa + b (dimension r_c = log_p kappa).  Choosing an
F_p-chain inside K extends any x-line transform plan by r_c radix-p levels:
the combined chain first quotients out the fiber (generators = linearized
polynomials in y), then follows the base plan in x.  Everything downstream
— transforms, folding, the interleaved burst decoders — is shared with the
Reed-Solomon path; only the coefficient support (a Weierstrass-style
staircase instead of a degree cut-off) differs.

Function basis: the pair (u, j) stands for Y^(u) * X_j where Y^(u) is the
y-chain composite element of y-degree u (< kappa) and X_j the base plan's
composite element of x-degree j; its pole order at infinity is
u*(kappa+1) + j*kappa, and these orders are pairwise distinct.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ConfigInfeasible,
    DimensionOutOfRange,
    FieldOrderMismatch,
    IndexOutsideBasis,
    LambdaTooSmall,
)
from .decoders import unique_decode, unique_decode_batch
from .fields import Field, linearized_polynomial
from .folding import row_dims
from .gfft import GfftPlan


class HermitianCurve:
    """y^kappa + y = x^(kappa+1) over GF(kappa^2), with a fixed F_p-chain in
    the fiber kernel."""

    def __init__(self, field: Field, kappa: int):
        if field.q != kappa * kappa:
            raise FieldOrderMismatch(
                f"need field of order {kappa}^2, got {field.q}")
        rc = 0
        k = kappa
        while k > 1:
            if k % field.p:
                raise FieldOrderMismatch(
                    f"{kappa} is not a power of the characteristic {field.p}")
            k //= field.p
            rc += 1
        self.field = field
        self.kappa = kappa
        self.rc = rc
        self.genus = kappa * (kappa - 1) // 2
        F = field
        allb = np.arange(F.q, dtype=np.int64)
        self._trace_map = F.add(F.pow(allb, kappa), allb)
        kernel = np.flatnonzero(self._trace_map == 0)
        # deterministic greedy F_p basis of the kernel
        basis: list[int] = []
        span = {0}
        for cand in kernel:
            c = int(cand)
            if c in span or c == 0:
                continue
            basis.append(c)
            span = {F.add(s, F.mul(t, c)) for s in span for t in range(F.p)}
            if len(basis) == rc:
                break
        assert len(basis) == rc and len(span) == kappa
        self.kernel_basis = basis
        # fibers: x-value a -> sorted roots b of b^kappa + b = a^(kappa+1)
        self._fiber_base: dict[int, int] = {}
        rhs = F.pow(allb, kappa + 1)
        for a in range(F.q):
            roots = np.flatnonzero(self._trace_map == int(rhs[a]))
            self._fiber_base[a] = int(roots[0])

    def fiber(self, a: int) -> np.ndarray:
        """The kappa y-values above x=a, in chain-digit order."""
        F = self.field
        vals = np.array([self._fiber_base[int(a)]], dtype=np.int64)
        for w in self.kernel_basis:
            vals = np.concatenate(
                [F.add(vals, F.mul(c, w)) for c in range(F.p)])
        return vals


def rr_basis(curve: HermitianCurve, order_bound: int,
             base_size: int | None = None) -> list[tuple[int, int]]:
    """Function basis pairs (u, j) with pole order u(kappa+1)+j*kappa up to
    order_bound, sorted by pole order (which is injective on pairs)."""
    kappa = curve.kappa
    if order_bound < kappa:
        raise LambdaTooSmall(
            f"order bound {order_bound} admits no nonconstant function "
            f"(smallest nonconstant pole order is {kappa})")
    pairs = []
    for u in range(kappa):
        top = (order_bound - u * (kappa + 1)) // kappa
        if top < 0:
            continue
        if base_size is not None and top >= base_size:
            raise DimensionOutOfRange(
                f"order bound {order_bound} needs x-degree {top} but only "
                f"{base_size} base points exist")
        for j in range(top + 1):
            pairs.append((u * (kappa + 1) + j * kappa, u, j))
    pairs.sort()
    return [(u, j) for _, u, j in pairs]


def staircase_dims(curve: HermitianCurve, order_bound: int) -> list[int]:
    """k_u = number of admissible x-degrees for each y-degree u."""
    kappa = curve.kappa
    return [max(0, (order_bound - u * (kappa + 1)) // kappa + 1)
            for u in range(kappa)]


class HermitianCode:
    """Evaluation code of the order-bound function space on the places above
    a base x-plan's points."""

    def __init__(self, curve: HermitianCurve, base_plan: GfftPlan,
                 order_bound: int):
        if base_plan.field != curve.field:
            raise FieldOrderMismatch("base plan lives in a different field")
        self.curve = curve
        self.base = base_plan
        self.order_bound = order_bound
        F = curve.field
        kappa = curve.kappa
        self.basis = rr_basis(curve, order_bound, base_size=base_plan.n)
        self.dims_y = staircase_dims(curve, order_bound)
        self.k = len(self.basis)
        self.n = kappa * base_plan.n
        # combined plan: fiber digits first, then the base chain
        bvals = np.concatenate(
            [curve.fiber(int(a)) for a in base_plan.points])
        gen: list[np.ndarray] = []
        for i in range(curve.rc):
            L = linearized_polynomial(F, curve.kernel_basis[:i], F.p)
            gen.append(L.eval(bvals))
        for g in base_plan.gen:
            gen.append(np.repeat(g, kappa))
        factors = [F.p] * curve.rc + base_plan.factors
        self.plan = GfftPlan(F, factors, gen, group=None)
        # coefficient support: combined index u + kappa*j is allowed iff
        # j < k_u
        mask = np.zeros(self.n, dtype=bool)
        for u, kd in enumerate(self.dims_y):
            mask[u + kappa * np.arange(min(kd, base_plan.n))] = True
        self.coeff_mask = mask
        self.basis_indices = np.array(
            [u + kappa * j for u, j in self.basis], dtype=np.int64)
        self.places = [(int(a), int(b))
                       for ai, a in enumerate(base_plan.points)
                       for b in bvals[ai * kappa:(ai + 1) * kappa]]

    # -- encoding / membership --

    def encode(self, message):
        msg = self.curve.field.check_symbols(message)
        if msg.shape[-1] != self.k:
            raise IndexOutsideBasis(
                f"message length {msg.shape[-1]} != dim {self.k}")
        co = np.zeros(msg.shape[:-1] + (self.n,), dtype=np.int64)
        co[..., self.basis_indices] = msg
        return self.plan.forward(co)

    def message_from_word(self, word):
        return self.plan.inverse(word)[..., self.basis_indices]

    def is_codeword(self, word) -> bool:
        co = self.plan.inverse(np.asarray(word, dtype=np.int64))
        return bool(np.all(co[..., ~self.coeff_mask] == 0))

    # -- folding --

    def fold_dims(self, level: int) -> list[int]:
        """Row dimensions of the level fold (level >= rc: fiber fully
        quotiented, rows indexed by (u, base row i))."""
        rc, kappa = self.curve.rc, self.curve.kappa
        if level < rc:
            raise ConfigInfeasible(
                "fold level must quotient out the whole fiber")
        m_base = self.base.ms[level - rc]
        by_u = [row_dims(self.dims_y[u], m_base) for u in range(kappa)]
        return [by_u[u][i] for i in range(m_base) for u in range(kappa)]

    def default_list_radius(self, level: int) -> int:
        """m(W-1)-1 with W = n_s - kmax the erasure window width."""
        m = self.plan.block_size(level)
        W = self.n // m - max(self.fold_dims(level))
        return m * (W - 1) - 1

    def row_plan(self, level: int) -> GfftPlan:
        """The x-line plan the fold rows live on (carries differentiation
        structure, unlike the combined plan's own sub-plan)."""
        sub = self.base.sub_plan(level - self.curve.rc) \
            if level - self.curve.rc < self.base.depth else None
        if sub is None:
            raise ConfigInfeasible("fold level leaves no columns")
        return sub


# Hermitian codes decode through the shared front ends of decoders.py.  These
# two names stay as functions of their own, not re-exported aliases, because
# code that wraps or times them by identity would otherwise catch RS decodes
# too.

def ag_unique_decode(code: HermitianCode, received, level: int, e: int = 1,
                     radius: int | None = None, strict: bool = False):
    return unique_decode(code, received, level, e=e, radius=radius,
                         strict=strict)


def ag_unique_decode_batch(code: HermitianCode, received, level: int,
                           e: int = 1, radius: int | None = None,
                           strict: bool = False):
    return unique_decode_batch(code, received, level, e=e, radius=radius,
                               strict=strict)
