"""Finite fields GF(p^d) with table-driven vectorized arithmetic.

Elements are canonical integer codes in [0, p^d): the code of
sum(c_i * x^i) is sum(c_i * p^i), so for p = 2 the code is the usual
bit-packing and addition is XOR.  All arithmetic methods accept either
python ints or numpy int64 arrays (elementwise, broadcasting allowed)
and return the same kind.

A discrete exp/log table pair is built once per field (fields are cached),
which makes multiplication, inversion and powering O(1) table lookups and
keeps the hot paths fully vectorized.  Multiplication uses a zero-absorbing
pair (log0, exp0), so it needs no zero mask.  Fields above TABLE_LIMIT
elements are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from .errors import (
    DependentBasis,
    DivisionByZero,
    DuplicatePoints,
    FieldTooLarge,
    GammaInKernel,
    InvalidSymbol,
    NonPrimeCharacteristic,
    NoSuchOrder,
    ReducibleModulus,
)

# Largest field supported: its exp/log tables are materialized, and at 2^20
# elements the zero-absorbing exp table alone is 4 * 2^20 int64 (32 MB).
TABLE_LIMIT = 1 << 20

# Conway-free default moduli (lexicographically smallest irreducible would do;
# these are the common textbook choices so codes match familiar tables).
DEFAULT_MODULI = {
    (2, 2): 0x7,
    (2, 3): 0xB,
    (2, 4): 0x13,
    (2, 5): 0x25,
    (2, 6): 0x43,
    (2, 7): 0x83,
    (2, 8): 0x11D,
    (2, 10): 0x409,
    (2, 12): 0x1053,
    (2, 16): 0x1100B,
    (3, 2): 10,  # x^2 + 1 over GF(3)
}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization as (prime, multiplicity) pairs, ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            m = 0
            while n % f == 0:
                n //= f
                m += 1
            out.append((f, m))
        f += 1 if f == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def prime_factors_with_multiplicity(n: int) -> list[int]:
    """e.g. 12 -> [2, 2, 3]."""
    out = []
    for p, m in factorize(n):
        out.extend([p] * m)
    return out


# ---------------------------------------------------------------------------
# GF(p)[x] helpers on integer-packed polynomials (digit i of the integer in
# base p is the coefficient of x^i).  Only used during field construction.
# ---------------------------------------------------------------------------

def _pdigits(a: int, p: int) -> list[int]:
    out = []
    while a:
        out.append(a % p)
        a //= p
    return out


def _ppack(digits, p: int) -> int:
    out = 0
    for c in reversed(digits):
        out = out * p + c
    return out


def _pdeg(a: int, p: int) -> int:
    return len(_pdigits(a, p)) - 1


def _pmul(a: int, b: int, p: int) -> int:
    da, db = _pdigits(a, p), _pdigits(b, p)
    if not da or not db:
        return 0
    res = [0] * (len(da) + len(db) - 1)
    for i, ca in enumerate(da):
        if ca:
            for j, cb in enumerate(db):
                res[i + j] = (res[i + j] + ca * cb) % p
    return _ppack(res, p)


def _pmod(a: int, m: int, p: int) -> int:
    dm = _pdigits(m, p)
    da = _pdigits(a, p)
    dm_deg = len(dm) - 1
    inv_lead = pow(dm[-1], p - 2, p)
    while len(da) - 1 >= dm_deg and any(da):
        if da[-1] == 0:
            da.pop()
            continue
        shift = len(da) - 1 - dm_deg
        scale = (da[-1] * inv_lead) % p
        for i, c in enumerate(dm):
            da[shift + i] = (da[shift + i] - scale * c) % p
        while da and da[-1] == 0:
            da.pop()
    return _ppack(da, p)


def _pgcd(a: int, b: int, p: int) -> int:
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def _ppowmod_x(e: int, m: int, p: int) -> int:
    """x^e mod m(x) over GF(p)."""
    result = 1
    base = p  # the polynomial x
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), m, p)
        base = _pmod(_pmul(base, base, p), m, p)
        e >>= 1
    return result


def _is_irreducible(m: int, p: int, d: int) -> bool:
    """Rabin test for a degree-d polynomial over GF(p)."""
    if _pdeg(m, p) != d:
        return False
    # x^(p^d) == x mod m
    if _ppowmod_x(p ** d, m, p) != p:
        return False
    for r, _ in factorize(d):
        # gcd(x^(p^(d/r)) - x, m) must be trivial
        h = _ppowmod_x(p ** (d // r), m, p)
        diff_digits = _pdigits(h, p)
        while len(diff_digits) < 2:
            diff_digits.append(0)
        diff_digits[1] = (diff_digits[1] - 1) % p
        diff = _ppack(diff_digits, p)
        if diff == 0 or _pdeg(_pgcd(m, diff, p), p) > 0:
            return False
    return True


def _find_modulus(p: int, d: int) -> int:
    if (p, d) in DEFAULT_MODULI:
        return DEFAULT_MODULI[(p, d)]
    for m in range(p ** d + 1, 2 * p ** d):
        if _is_irreducible(m, p, d):
            return m
    raise ReducibleModulus(f"no irreducible polynomial found for GF({p}^{d})")


# ---------------------------------------------------------------------------
# Field
# ---------------------------------------------------------------------------

class Field:
    """Arithmetic context for GF(p^d)."""

    def __init__(self, p: int, d: int = 1, modulus: int | None = None):
        if not _is_prime(p):
            raise NonPrimeCharacteristic(f"{p} is not prime")
        if d < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.d = d
        self.q = p ** d
        if self.q > TABLE_LIMIT:
            raise FieldTooLarge(
                f"GF({p}^{d}) has more than {TABLE_LIMIT} elements")
        if d == 1:
            self.modulus = None
        else:
            if modulus is None:
                modulus = _find_modulus(p, d)
            if not _is_irreducible(modulus, p, d):
                raise ReducibleModulus(
                    f"0x{modulus:x} is reducible over GF({p})"
                )
            self.modulus = modulus
        self._build_tables()

    # -- construction-time scalar arithmetic (no tables yet) --

    def _scalar_mul(self, a: int, b: int) -> int:
        p, d = self.p, self.d
        if d == 1:
            return (a * b) % p
        if p == 2:
            r = 0
            top = 1 << d
            while b:
                if b & 1:
                    r ^= a
                b >>= 1
                a <<= 1
                if a & top:
                    a ^= self.modulus
            return r
        return _pmod(_pmul(a, b, p), self.modulus, p)

    def _scalar_pow(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._scalar_mul(r, a)
            a = self._scalar_mul(a, a)
            e >>= 1
        return r

    def _find_generator(self) -> int:
        order = self.q - 1
        fac = [r for r, _ in factorize(order)]
        for cand in range(2, self.q):
            if all(self._scalar_pow(cand, order // r) != 1 for r in fac):
                return cand
        raise NoSuchOrder("no multiplicative generator found")  # unreachable

    def _build_tables(self) -> None:
        q = self.q
        q1 = q - 1
        g = self._find_generator()
        self.generator = g
        # exp0 is the doubled exp table followed by a zero tail, and log0 is
        # log with log0[0] = 2(q-1): a product with a zero factor indexes the
        # tail, so exp0[log0[a] + log0[b]] = a*b holds for all a, b unmasked
        exp0 = np.zeros(4 * q1 + 1, dtype=np.int64)
        log = np.zeros(q, dtype=np.int64)
        x = 1
        for i in range(q1):
            exp0[i] = x
            log[x] = i
            x = self._scalar_mul(x, g)
        exp0[q1:2 * q1] = exp0[:q1]
        self._exp = exp0[:2 * q1]
        self._log = log
        self._exp0 = exp0
        self._log0 = log.astype(np.int32)
        self._log0[0] = 2 * q1
        # narrow copy for the transform butterflies: uint8 up to GF(2^8),
        # uint16 up to GF(2^16), so the table stays cache-sized
        self._exp0n = exp0.astype(np.min_scalar_type(q1))

    # -- input boundary --

    def check_symbols(self, values) -> np.ndarray:
        """values as an int64 array; raises InvalidSymbol unless every entry
        is an element code in [0, q).  One pass: viewed as unsigned, a
        negative code is at least 2^63."""
        arr = np.asarray(values, dtype=np.int64)
        if arr.size and arr.view(np.uint64).max() >= self.q:
            bad = arr[(arr < 0) | (arr >= self.q)].flat[0]
            raise InvalidSymbol(
                f"{bad} is not the code of an element of GF({self.q})")
        return arr

    # -- public arithmetic: int or int64 ndarray, elementwise --

    def add(self, a, b):
        p = self.p
        if p == 2:
            return a ^ b
        if self.d == 1:
            return (a + b) % p
        out, pw = 0, 1
        for _ in range(self.d):
            out = out + ((a % p + b % p) % p) * pw
            a = a // p
            b = b // p
            pw *= p
        return out

    def neg(self, a):
        p = self.p
        if p == 2:
            return a
        if self.d == 1:
            return (p - a) % p
        out, pw = 0, 1
        for _ in range(self.d):
            out = out + ((p - a % p) % p) * pw
            a = a // p
            pw *= p
        return out

    def sub(self, a, b):
        if self.p == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.d == 1:
            return (a * b) % self.p
        if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
            return int(self._exp0[self._log0[a] + self._log0[b]])
        return self._exp0.take(self._log0.take(a) + self._log0.take(b))

    def inv(self, a):
        q = self.q
        if isinstance(a, (int, np.integer)):
            if a == 0:
                raise DivisionByZero("inverse of zero")
            return int(self._exp[q - 1 - self._log[a]])
        a = np.asarray(a)
        if np.any(a == 0):
            raise DivisionByZero("inverse of zero")
        return self._exp[q - 1 - self._log[a]]

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e: int):
        """a**e with integer exponent e (negative allowed for units)."""
        q1 = self.q - 1
        if isinstance(a, (int, np.integer)):
            if a == 0:
                if e == 0:
                    return 1
                if e < 0:
                    raise DivisionByZero("0 to a negative power")
                return 0
            return int(self._exp[(self._log[a] * (e % q1)) % q1])
        a = np.asarray(a)
        if e < 0 and np.any(a == 0):
            raise DivisionByZero("0 to a negative power")
        out = self._exp[(self._log[a] * (e % q1)) % q1]
        zero = a == 0
        if e == 0:
            return np.where(zero, 1, out)
        return np.where(zero, 0, out)

    def geometric(self, ratio: int, n: int, first: int = 1) -> np.ndarray:
        """[first, first*ratio, ..., first*ratio^(n-1)] for nonzero arguments."""
        if ratio == 0 or first == 0:
            raise DivisionByZero("geometric progression needs unit arguments")
        q1 = self.q - 1
        e = (self._log[first] + self._log[ratio] * np.arange(n, dtype=np.int64)) % q1
        return self._exp[e]

    # -- structure --

    def order_of(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("zero has no multiplicative order")
        q1 = self.q - 1
        return q1 // math.gcd(q1, int(self._log[a]))

    def subfield_elements(self, ell: int) -> np.ndarray:
        """All codes of the subfield GF(ell), ascending; ell = p^s with s | d."""
        p, d = self.p, self.d
        s = 0
        e = ell
        while e > 1:
            if e % p:
                raise ValueError(f"{ell} is not a power of {p}")
            e //= p
            s += 1
        if s == 0 or d % s:
            raise ValueError(f"GF({ell}) is not a subfield of GF({self.q})")
        if ell == self.q:
            return np.arange(self.q, dtype=np.int64)
        stride = (self.q - 1) // (ell - 1)
        elems = self._exp[: (self.q - 1)][::stride][: ell - 1]
        out = np.concatenate(([0], np.sort(elems)))
        return out.astype(np.int64)

    # -- parsing / formatting --

    @classmethod
    def parse(cls, text: str) -> "Field":
        """Parse 'p^d:0xM', 'p^d' (default modulus) or bare 'p'."""
        text = text.strip()
        mod = None
        if ":" in text:
            text, mtxt = text.split(":", 1)
            mod = int(mtxt, 0)
        if "^" in text:
            ptxt, dtxt = text.split("^", 1)
            p, d = int(ptxt), int(dtxt)
        else:
            p, d = int(text), 1
        return get_field(p, d, mod)

    def spec_string(self) -> str:
        if self.d == 1:
            return f"{self.p}^1"
        return f"{self.p}^{self.d}:0x{self.modulus:x}"

    def __repr__(self) -> str:
        return f"Field({self.spec_string()})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, Field)
                and (self.p, self.d, self.modulus) == (other.p, other.d, other.modulus))

    def __hash__(self) -> int:
        return hash((self.p, self.d, self.modulus))


@lru_cache(maxsize=None)
def _get_field_cached(p: int, d: int, modulus) -> Field:
    return Field(p, d, modulus)


def get_field(p: int, d: int = 1, modulus: int | None = None) -> Field:
    """Cached Field constructor (table building is the expensive part)."""
    return _get_field_cached(p, d, modulus)


def element_of_order(field: Field, n: int) -> int:
    """Smallest-code element of exact multiplicative order n."""
    if n < 1 or (field.q - 1) % n:
        raise NoSuchOrder(f"no element of order {n} in GF({field.q})")
    if n == 1:
        return 1
    for a in range(2, field.q):
        if field.order_of(a) == n:
            return a
    raise NoSuchOrder(f"no element of order {n} in GF({field.q})")  # unreachable


# ---------------------------------------------------------------------------
# Linearized (additive) polynomials over a subfield GF(ell)
# ---------------------------------------------------------------------------

@dataclass
class LinearizedPoly:
    """L(x) = sum coeffs[i] * x^(ell^i); an F_ell-linear map with kernel the
    span of the basis it was built from."""
    field: Field
    ell: int
    coeffs: list[int]  # coeffs[i] multiplies x^(ell^i), length = dim + 1

    def eval(self, x):
        F = self.field
        acc = F.mul(x, self.coeffs[0]) if self.coeffs[0] != 1 else (
            np.asarray(x) if isinstance(x, np.ndarray) else x)
        y = x
        for c in self.coeffs[1:]:
            y = F.pow(y, self.ell)
            if c:
                acc = F.add(acc, F.mul(y, c))
        return acc

    @property
    def linear_coeff(self) -> int:
        return self.coeffs[0]


def linearized_polynomial(field: Field, basis, ell: int | None = None) -> LinearizedPoly:
    """Monic linearized polynomial vanishing exactly on span_{GF(ell)}(basis).

    Built by the classical recursion L_{i+1}(x) = L_i(x)^ell - L_i(w_{i+1})^(ell-1) L_i(x);
    raises DependentBasis if some w_{i+1} already lies in the span so far.
    """
    F = field
    if ell is None:
        ell = F.p
    coeffs = [1]  # L_0(x) = x
    for w in basis:
        Lw = _lin_eval_scalar(F, coeffs, ell, int(w))
        if Lw == 0:
            raise DependentBasis(f"basis vector 0x{int(w):x} is dependent")
        scale = F.pow(Lw, ell - 1)
        new = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            new[i + 1] = F.add(new[i + 1], F.pow(c, ell))
            new[i] = F.sub(new[i], F.mul(scale, c))
        coeffs = new
    return LinearizedPoly(F, ell, coeffs)


def _lin_eval_scalar(F: Field, coeffs, ell: int, x: int) -> int:
    acc = F.mul(coeffs[0], x)
    y = x
    for c in coeffs[1:]:
        y = F.pow(y, ell)
        acc = F.add(acc, F.mul(y, c))
    return acc


# ---------------------------------------------------------------------------
# Affine evaluation groups: a cyclic unit subgroup T acting on a coset of an
# F_ell-subspace W, giving n = |T| * |W| distinct evaluation points.
# ---------------------------------------------------------------------------

@dataclass
class AffineGroupSpec:
    """Parameters of a T x W evaluation set inside GF(q)*:

    t        order of the cyclic unit group T (t | ell - 1)
    ell      subfield size over which W is a subspace (power of p)
    w_basis  F_ell-basis of W (list of element codes; may be empty)
    gamma    coset representative (points are u*(gamma+v), u in T, v in W)
    t_factors   optional chain factorization of t (default: ascending primes)
    t_generator optional generator of T (default: smallest element of order t)
    """
    t: int
    ell: int
    w_basis: list[int] = dc_field(default_factory=list)
    gamma: int = 0
    t_factors: list[int] | None = None
    t_generator: int | None = None

    @property
    def wdim(self) -> int:
        return len(self.w_basis)

    def chain_factors(self) -> list[int]:
        tail = self.t_factors if self.t_factors is not None else (
            prime_factors_with_multiplicity(self.t) if self.t > 1 else [])
        return [self.ell] * self.wdim + list(tail)

    def size(self) -> int:
        return self.t * self.ell ** self.wdim

    @classmethod
    def parse(cls, field: Field, text: str) -> "AffineGroupSpec":
        """Parse 't=12,wdim=0,gamma=0x1' (wbasis entries ';'-separated)."""
        kv = {}
        for part in text.split(","):
            key, val = part.split("=", 1)
            kv[key.strip()] = val.strip()
        t = int(kv.get("t", "1"))
        wdim = int(kv.get("wdim", "0"))
        gamma = int(kv["gamma"], 0) if "gamma" in kv else 0
        ell = infer_subfield_order(field, t)
        if "wbasis" in kv and kv["wbasis"]:
            basis = [int(x, 0) for x in kv["wbasis"].split(";")]
            if len(basis) != wdim:
                raise ValueError("wbasis length disagrees with wdim")
        else:
            basis = default_subspace_basis(field, ell, wdim)
        tf = None
        if "tfactors" in kv and kv["tfactors"]:
            tf = [int(x) for x in kv["tfactors"].split(";")]
        return cls(t=t, ell=ell, w_basis=basis, gamma=gamma, t_factors=tf)

    def spec_string(self) -> str:
        parts = [f"t={self.t}", f"wdim={self.wdim}", f"gamma=0x{self.gamma:x}"]
        if self.w_basis:
            parts.append("wbasis=" + ";".join(f"0x{b:x}" for b in self.w_basis))
        return ",".join(parts)


def infer_subfield_order(field: Field, t: int) -> int:
    """Smallest subfield GF(p^s) (s | d) whose unit group contains order t."""
    p, d = field.p, field.d
    for s in range(1, d + 1):
        if d % s == 0 and (p ** s - 1) % t == 0:
            return p ** s
    raise NoSuchOrder(f"{t} does not divide p^s - 1 for any subfield of GF({field.q})")


def default_subspace_basis(field: Field, ell: int, wdim: int) -> list[int]:
    """Deterministic GF(ell)-basis: greedy over ascending codes."""
    if wdim == 0:
        return []
    scalars = field.subfield_elements(ell)
    basis: list[int] = []
    span = {0}
    for cand in range(1, field.q):
        if cand in span:
            continue
        basis.append(cand)
        new_span = set()
        for s in span:
            for c in scalars:
                new_span.add(field.add(s, field.mul(int(c), cand)))
        span = new_span
        if len(basis) == wdim:
            return basis
    raise DependentBasis(f"field too small for a {wdim}-dim GF({ell}) subspace")


def enumerate_coset_points(field: Field, group: AffineGroupSpec) -> np.ndarray:
    """Evaluation points u*(gamma+v) in chain-digit order (finest digit first).

    The j-th additive digit (radix ell) selects the multiple of w_basis[j];
    multiplicative digits (radices = chain factors of t) select the power of
    the T generator via the standard decimation-in-time exponent pattern.
    """
    F = field
    if group.t > 1:
        if (F.q - 1) % group.t:
            raise NoSuchOrder(f"t={group.t} does not divide q-1")
        L = linearized_polynomial(F, group.w_basis, group.ell)
        if L.eval(int(group.gamma)) == 0:
            raise GammaInKernel(
                "gamma lies in span(W); points would collide under T")
    scalars = field.subfield_elements(group.ell)
    pts = np.array([group.gamma], dtype=np.int64)
    for w in group.w_basis:
        shifts = [F.mul(int(c), int(w)) for c in scalars]
        pts = np.concatenate([F.add(pts, s) for s in shifts])
    if group.t > 1:
        g = (group.t_generator if group.t_generator is not None
             else element_of_order(F, group.t))
        tail = group.chain_factors()[group.wdim:]
        t_running = 1
        for radix in tail:
            t_running *= radix
            step = F.pow(g, group.t // t_running)
            mults = [F.pow(step, j) for j in range(radix)]
            pts = np.concatenate([F.mul(pts, m) for m in mults])
    if len(np.unique(pts)) != len(pts):
        raise DuplicatePoints("evaluation points are not distinct")
    return pts
