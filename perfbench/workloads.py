"""The benchmark's workloads: the code each one decodes, its burst mix, and
the decoder entry points it calls.

Every workload builds its code from spec strings and makes its own messages
and bursts with its own generator, so a change to the library's helpers
cannot change the inputs.  Decoders are reached through module attributes
(``rs.wu_decode_batch``, not an imported name) so that the traced run's
wrappers see every call.  All four fields have characteristic 2, where field
addition is XOR; the inputs are built with plain numpy XOR for that reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from burstfold import decoders, errors, fields, gfft, hermitian, rs


@dataclass(frozen=True)
class Workload:
    """One decode configuration and the traffic sent to it.

    radius        bursts of length 1..radius are in radius and must decode
    beyond        length range of the beyond-radius bursts, or None
    beyond_share  exact share of every input block that is beyond radius
    cyclic        bursts run over consecutive generator exponents (wrap)
    batch         words per batch-decode call
    encode_batch  messages per encode call
    listing       the decoder returns a candidate list per word
    """
    name: str
    build: Callable[[], object]
    batch_decode: Callable[[object, np.ndarray], list]
    single_decode: Callable[[object, np.ndarray], object]
    radius: int
    beyond: tuple[int, int] | None
    beyond_share: float
    cyclic: bool
    batch: int
    encode_batch: int
    listing: bool = False


@dataclass
class Inputs:
    sent: np.ndarray        # (count, n) transmitted codewords
    received: np.ndarray    # (count, n) codewords plus one burst each
    in_radius: np.ndarray   # (count,) bool


def make_inputs(wl: Workload, code, rng: np.random.Generator, count: int,
                length: int | None = None) -> Inputs:
    """count fresh words with wl's burst mix (or every burst of the given
    length), the beyond-radius share exact within the block."""
    q, n = code.plan.field.q, code.n
    sent = code.encode(rng.integers(0, q, (count, code.k)))
    lengths = rng.integers(1, wl.radius + 1, count)
    n_beyond = round(wl.beyond_share * count)
    if wl.beyond is not None and n_beyond:
        idx = rng.choice(count, n_beyond, replace=False)
        lengths[idx] = rng.integers(wl.beyond[0], wl.beyond[1] + 1, n_beyond)
    if length is not None:
        lengths[:] = length
    err = np.zeros((count, n), dtype=np.int64)
    for i, ln in enumerate(lengths):
        ln = int(ln)
        if wl.cyclic:
            pos = (int(rng.integers(0, n)) + np.arange(ln)) % n
        else:
            start = int(rng.integers(0, n - ln + 1))
            pos = np.arange(start, start + ln)
        err[i, pos] = rng.integers(1, q, ln)
    if wl.cyclic:
        # exponent order -> the plan's enumeration order
        err = code.from_natural(err)
    return Inputs(sent, sent ^ err, lengths <= wl.radius)


def _rs(field_spec: str, group_spec: str, k: int):
    F = fields.Field.parse(field_spec)
    plan = gfft.plan_build(F, fields.AffineGroupSpec.parse(F, group_spec))
    return rs.RsCode(plan, k)


def _unique_or_none(decode, *args, **kw):
    try:
        return decode(*args, **kw)[1]
    except errors.DetectedFailure:
        return None


def _codewords(outcomes):
    return [o.codeword if o.status == "ok" else None for o in outcomes]


def _hermitian_4080():
    F = fields.Field.parse("2^8:0x11d")
    curve = hermitian.HermitianCurve(F, 16)
    base = gfft.plan_build(
        F, fields.AffineGroupSpec.parse(F, "t=255,gamma=0x1,tfactors=15;17"))
    return hermitian.HermitianCode(curve, base, 600)


HERMITIAN_LEVEL = 5   # rc + 1 = 4 fiber levels + one base level: 240 x 17

# Why each workload exists is recorded in BENCHMARK.json and README.md.  The
# radii are the documented ones (for wu-255, n-k-e-1 as in acceptance test
# 4), written out so that the inputs do not depend on library code.
WORKLOADS = {wl.name: wl for wl in [
    Workload(
        name="wu-255",
        build=lambda: _rs("2^8:0x11d", "t=255,gamma=0x1", 223),
        batch_decode=lambda c, r: _codewords(rs.wu_decode_batch(c, r, 2)),
        single_decode=lambda c, w: _codewords([rs.wu_decode(c, w, 2)])[0],
        radius=29, beyond=(30, 58), beyond_share=0.10, cyclic=True,
        batch=1000, encode_batch=1000),
    Workload(
        name="unique-255",
        build=lambda: _rs("2^8:0x11d", "t=255,gamma=0x1,tfactors=15;17", 120),
        batch_decode=lambda c, r: _codewords(
            decoders.unique_decode_batch(c, r, 1, e=2)),
        single_decode=lambda c, w: _unique_or_none(
            decoders.unique_decode, c, w, 1, e=2),
        radius=74, beyond=(75, 140), beyond_share=0.20, cyclic=False,
        batch=1000, encode_batch=1000),
    Workload(
        name="list-16k",
        build=lambda: _rs("2^16", "t=1,wdim=14", 4096),
        batch_decode=lambda c, r: decoders.list_decode_batch(c, r, 10),
        single_decode=lambda c, w: decoders.list_decode(c, w, 10),
        radius=10240, beyond=None, beyond_share=0.0, cyclic=False,
        batch=100, encode_batch=100, listing=True),
    Workload(
        name="hermitian-4080",
        build=_hermitian_4080,
        batch_decode=lambda c, r: _codewords(hermitian.ag_unique_decode_batch(
            c, r, HERMITIAN_LEVEL, e=2)),
        single_decode=lambda c, w: _unique_or_none(
            hermitian.ag_unique_decode, c, w, HERMITIAN_LEVEL, e=2),
        radius=2399, beyond=None, beyond_share=0.0, cyclic=False,
        batch=1000, encode_batch=200),
]}
