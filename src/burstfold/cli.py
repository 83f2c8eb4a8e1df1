"""Command-line front end: encode, corrupt, decode, Monte-Carlo, benchmark.

Word files are plain text: an optional header line

    # gf <p> <d> 0x<modulus> n=<length>

followed by one lowercase-hex field element per line.  Several words in one
file are separated by single blank lines.  '-' means stdin/stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from .errors import (
    BurstfoldError,
    FieldOrderMismatch,
    InvalidSymbol,
    LengthMismatch,
)
from .fields import AffineGroupSpec, Field, default_subspace_basis
from .gfft import plan_build
from .rs import RsCode, wu_decode, wu_decode_batch
from .decoders import list_decode, unique_decode_batch
from .hermitian import HermitianCode, HermitianCurve

Z95 = 1.959963984540054


# ---------------------------------------------------------------------------
# word-file I/O
# ---------------------------------------------------------------------------

def read_words(path: str, field: Field | None = None):
    """Returns a list of int64 arrays; validates the header against field
    when both are present, and every symbol: a hex code in [0, q)."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as f:
            text = f.read()
    words: list[list[int]] = [[]]
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) >= 4 and parts[0] == "gf" and field is not None:
                p, d = int(parts[1]), int(parts[2])
                mod = int(parts[3], 0)
                if (p, d) != (field.p, field.d) or \
                        (d > 1 and mod != field.modulus):
                    raise FieldOrderMismatch(
                        f"file header says gf {p} {d} 0x{mod:x}, expected "
                        f"{field.spec_string()}")
            continue
        if not line:
            if words[-1]:
                words.append([])
            continue
        try:
            v = int(line, 16)
        except ValueError:
            v = -1
        if v < 0 or (field is not None and v >= field.q):
            raise InvalidSymbol(
                f"{path}: {line!r} is not the hex code of a field element"
                + (f" of GF({field.q})" if field is not None else ""))
        words[-1].append(v)
    if not words[-1]:
        words.pop()
    if not words:
        raise LengthMismatch(f"no words found in {path}")
    return [np.array(w, dtype=np.int64) for w in words]


def write_words(path: str, field: Field, words) -> None:
    words = [np.atleast_1d(np.asarray(w, dtype=np.int64)) for w in words]
    # prime fields have no modulus; read_words ignores it when d = 1
    lines = [f"# gf {field.p} {field.d} 0x{field.modulus or 0:x} "
             f"n={words[0].shape[-1]}"]
    for i, w in enumerate(words):
        if i:
            lines.append("")
        lines.extend(format(int(v), "x") for v in w)
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


def write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def build_code(args):
    F = Field.parse(args.field)
    group = AffineGroupSpec.parse(F, args.group)
    plan = plan_build(F, group)
    return F, RsCode(plan, args.k)


def _check_burst_len(length: int, n: int) -> None:
    if not 0 <= length <= n:
        raise BurstfoldError(f"burst length {length} outside 0..{n}")


def plant_index_burst(F, rng, word, length, start):
    """Additive noise confined to [start, start+length), nonzero at both
    ends so the planted burst has exactly the stated span.  Length 0 is a
    no-op copy."""
    bad = np.array(word, dtype=np.int64)
    if length == 0:
        return bad
    noise = rng.integers(1, F.q, length)
    bad[start:start + length] = F.add(bad[start:start + length], noise)
    for edge in (start, start + length - 1):
        if F.sub(int(bad[edge]), int(word[edge])) == 0:
            bad[edge] = F.add(int(word[edge]), 1)
    return bad


def plant_cyclic_burst(code, rng, word, length, start_exp):
    """Same, but on a window of consecutive generator exponents (wraps)."""
    F = code.plan.field
    if length == 0:
        return np.array(word, dtype=np.int64)
    nat = code.to_natural(np.array(word, dtype=np.int64))
    n = nat.shape[0]
    pos = [(start_exp + i) % n for i in range(length)]
    noise = rng.integers(1, F.q, length)
    nat[pos] = F.add(nat[pos], noise)
    for edge in (pos[0], pos[-1]):
        if F.sub(int(nat[edge]), int(code.to_natural(word)[edge])) == 0:
            nat[edge] = F.add(int(code.to_natural(word)[edge]), 1)
    return code.from_natural(nat)


def wilson_interval(successes: int, trials: int, z: float = Z95):
    if trials == 0:
        return 0.0, 1.0
    ph = successes / trials
    denom = 1 + z * z / trials
    centre = ph + z * z / (2 * trials)
    rad = z * math.sqrt(ph * (1 - ph) / trials + z * z / (4 * trials ** 2))
    return (centre - rad) / denom, (centre + rad) / denom


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_encode(args) -> int:
    F, code = build_code(args)
    msgs = read_words(args.infile, F)
    for m in msgs:
        if m.shape[0] != code.k:
            raise LengthMismatch(
                f"message has {m.shape[0]} symbols, expected k={code.k}")
    cws = [code.encode(m) for m in msgs]
    write_words(args.outfile, F, cws)
    return 0


def cmd_corrupt(args) -> int:
    F = Field.parse(args.field)
    rng = np.random.default_rng(args.seed)
    words = read_words(args.infile, F)
    out = []
    code = None
    if args.cyclic:
        if not args.group:
            raise BurstfoldError("--cyclic needs --group to fix the "
                                 "exponent order")
        plan = plan_build(F, AffineGroupSpec.parse(F, args.group))
        code = RsCode(plan, 1)
    for w in words:
        _check_burst_len(args.burst_len, w.shape[0])
        if args.cyclic:
            start = args.start if args.start is not None \
                else int(rng.integers(0, w.shape[0]))
            out.append(plant_cyclic_burst(code, rng, w, args.burst_len,
                                          start))
        else:
            start = args.start if args.start is not None \
                else int(rng.integers(0, w.shape[0] - args.burst_len + 1))
            out.append(plant_index_burst(F, rng, w, args.burst_len, start))
    write_words(args.outfile, F, out)
    return 0


def _decode_words(args, code, level) -> int:
    """decode / ag-decode: decode every word of args.infile with args.mode
    at the fold level, write the results and return the exit code."""
    F = code.plan.field
    words = read_words(args.infile, F)
    for w in words:
        if w.shape[0] != code.n:
            raise LengthMismatch(
                f"word has {w.shape[0]} symbols, expected n={code.n}")
    if args.mode == "list":
        blocks = [list_decode(code, w, level, radius=args.radius)
                  for w in words]
        good = [c for cands in blocks for c in cands]
        doc = {"mode": "list",
               "candidates": [[[int(v) for v in c] for c in cands]
                              for cands in blocks]}
        status = [f"candidates={len(good)}"]
        failed = not good
    else:
        if args.mode == "wu":
            outs = wu_decode_batch(code, np.stack(words), e=args.e)
        else:
            outs = unique_decode_batch(code, np.stack(words), level,
                                       e=args.e, radius=args.radius,
                                       strict=args.strict)
        good, results = [], []
        for o in outs:
            window = o.window if args.mode == "wu" else o.col_window
            r = {"status": o.status,
                 "window": list(window) if window else None}
            if args.mode == "wu":
                r["run"] = o.run_length
            r["ambiguous"] = o.ambiguous
            r["reason"] = o.reason
            if o.status == "ok":
                good.append(code.message_from_word(o.codeword)
                            if args.emit == "message" else o.codeword)
                if args.mode == "unique" and args.format == "json":
                    r["codeword"] = [int(v) for v in o.codeword]
                    r["message"] = [int(v) for v in
                                    code.message_from_word(o.codeword)]
            results.append(r)
        doc = {"mode": args.mode, "results": results}
        status = [f"word {i}: status={r['status']} window={r['window']}"
                  for i, r in enumerate(results)]
        failed = len(good) < len(outs)
    if args.format == "json":
        write_text(args.outfile, json.dumps(doc) + "\n")
    elif good:
        write_words(args.outfile, F, good)
    else:
        write_text(args.outfile, "")
    for line in status:
        print(line, file=sys.stderr)
    return 1 if failed else 0


def cmd_decode(args) -> int:
    _, code = build_code(args)
    return _decode_words(args, code, args.fold_level)


def _mc_trial(code, args, t):
    """One seeded trial; outcome is ok / miscorrect / detected, where
    miscorrect means the decoder asserted a codeword different from the
    transmitted one."""
    F = code.plan.field
    rng = np.random.default_rng([args.seed, t])
    msg = rng.integers(0, F.q, code.k)
    cw = code.encode(msg)
    n = code.n
    if args.mc_mode == "wu":
        start = int(rng.integers(0, n))
        rcv = plant_cyclic_burst(code, rng, cw, args.burst_len, start)
        out = wu_decode(code, rcv, e=args.e)
        if out.status != "ok":
            return start, "detected"
        return start, ("ok" if np.array_equal(out.codeword, cw)
                       else "miscorrect")
    if args.mc_mode == "unique":
        start = int(rng.integers(0, n - args.burst_len + 1))
        rcv = plant_index_burst(F, rng, cw, args.burst_len, start)
        out = unique_decode_batch(code, rcv[None], args.fold_level,
                                  e=args.e, radius=args.radius,
                                  strict=args.strict)[0]
        if out.status != "ok":
            return start, "detected"
        return start, ("ok" if np.array_equal(out.codeword, cw)
                       else "miscorrect")
    start = int(rng.integers(0, n - args.burst_len + 1))
    rcv = plant_index_burst(F, rng, cw, args.burst_len, start)
    cands = list_decode(code, rcv, args.fold_level, radius=args.radius)
    if any(np.array_equal(c, cw) for c in cands):
        return start, "ok"
    return start, ("miscorrect" if cands else "detected")


def cmd_mc(args) -> int:
    _, code = build_code(args)
    _check_burst_len(args.burst_len, code.n)
    header = "trial,n,k,length,e,start,outcome"
    if args.timing:
        header += ",wall_time_ns"
    lines = [header]
    counts = {"ok": 0, "miscorrect": 0, "detected": 0}
    for t in range(args.trials):
        t0 = time.perf_counter_ns()
        start, outcome = _mc_trial(code, args, t)
        dt = time.perf_counter_ns() - t0
        counts[outcome] += 1
        row = (f"{t},{code.n},{code.k},{args.burst_len},{args.e},"
               f"{start},{outcome}")
        if args.timing:
            row += f",{dt}"
        lines.append(row)
    lo, hi = wilson_interval(counts["ok"], args.trials)
    lines.append(f"# trials={args.trials} ok={counts['ok']} "
                 f"miscorrect={counts['miscorrect']} "
                 f"detected={counts['detected']} "
                 f"rate={counts['ok'] / max(args.trials, 1):.6f} "
                 f"wilson95={lo:.6f},{hi:.6f}")
    write_text(args.outfile, "\n".join(lines) + "\n")
    return 0


def _bench_once(fn) -> int:
    fn()  # warm
    best = []
    for _ in range(5):
        t0 = time.perf_counter_ns()
        fn()
        best.append(time.perf_counter_ns() - t0)
    best.sort()
    return best[2]


def cmd_bench(args) -> int:
    F = Field.parse(args.field)
    rng = np.random.default_rng(args.seed)
    if args.max_log_n < args.min_log_n:
        raise BurstfoldError("--max-log-n below --min-log-n")
    lines = ["n,mode,median_ns,normalized"]
    for w in range(args.min_log_n, args.max_log_n + 1):
        if w > F.d:
            raise BurstfoldError(f"2^{w} points do not fit in GF({F.q})")
        basis = default_subspace_basis(F, F.p, w)
        plan = plan_build(F, AffineGroupSpec(
            t=1, ell=F.p, w_basis=basis, gamma=0))
        n = plan.n
        if args.mode == "transform":
            data = rng.integers(0, F.q, n)
            med = _bench_once(lambda: plan.forward(data))
        else:
            k = n // 4
            code = RsCode(plan, k)
            level = w - args.log2_cols
            msg = rng.integers(0, F.q, k)
            cw = code.encode(msg)
            ln = n - k - 2 * plan.block_size(level)
            rcv = plant_index_burst(F, rng, cw, ln,
                                    int(rng.integers(0, n - ln + 1)))
            med = _bench_once(lambda: list_decode(code, rcv, level))
        lines.append(f"{n},{args.mode},{med},"
                     f"{med / (n * math.log2(max(n, 2))):.3f}")
    write_text(args.outfile, "\n".join(lines) + "\n")
    return 0


def build_ag(args):
    F = Field.parse(args.field)
    curve = HermitianCurve(F, args.kappa)
    base = plan_build(F, AffineGroupSpec.parse(F, args.group))
    return F, HermitianCode(curve, base, args.order_bound)


def cmd_ag_encode(args) -> int:
    F, code = build_ag(args)
    msgs = read_words(args.infile, F)
    cws = [code.encode(m) for m in msgs]
    write_words(args.outfile, F, cws)
    return 0


def cmd_ag_decode(args) -> int:
    _, code = build_ag(args)
    level = args.level if args.level is not None else code.curve.rc
    return _decode_words(args, code, level)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_field_group(sp, group_required=True):
    sp.add_argument("--field", required=True,
                    help="p, p^d, or p^d:0xMOD")
    sp.add_argument("--group", required=group_required,
                    help="t=..[,wdim=..][,gamma=0x..][,wbasis=a;b;..]"
                         "[,tfactors=f1;f2;..]")


def _add_io(sp):
    sp.add_argument("--in", dest="infile", default="-")
    sp.add_argument("--out", dest="outfile", default="-")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="burstfold",
        description="Burst-error decoding of evaluation codes via chain "
                    "transforms and short interleaved quotients.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("encode", help="message words -> codewords")
    _add_field_group(sp)
    sp.add_argument("--k", type=int, required=True)
    _add_io(sp)
    sp.set_defaults(fn=cmd_encode)

    sp = sub.add_parser("corrupt", help="add a burst to each word")
    sp.add_argument("--field", required=True)
    sp.add_argument("--group", help="needed with --cyclic")
    sp.add_argument("--burst-len", type=int, required=True)
    sp.add_argument("--start", type=int, default=None,
                    help="fixed start (default: random)")
    sp.add_argument("--cyclic", action="store_true",
                    help="burst on consecutive generator exponents")
    sp.add_argument("--seed", type=int, default=0)
    _add_io(sp)
    sp.set_defaults(fn=cmd_corrupt)

    sp = sub.add_parser("decode", help="burst-decode received words")
    _add_field_group(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--mode", choices=["wu", "list", "unique"],
                    default="unique",
                    help="wu: root-run location of a cyclic exponent "
                         "window; list/unique: folded index bursts")
    sp.add_argument("--fold-level", type=int, default=0)
    sp.add_argument("--e", type=int, default=1,
                    help="extra root-run margin (unique mode)")
    sp.add_argument("--radius", type=int, default=None)
    sp.add_argument("--strict", action="store_true")
    sp.add_argument("--emit", choices=["codeword", "message"],
                    default="codeword",
                    help="what to write for each successfully decoded word")
    sp.add_argument("--format", choices=["hex", "json"], default="hex")
    _add_io(sp)
    sp.set_defaults(fn=cmd_decode)

    sp = sub.add_parser("mc", help="Monte-Carlo burst recovery runs (CSV)")
    _add_field_group(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--mode", dest="mc_mode",
                    choices=["wu", "unique", "list"], default="wu")
    sp.add_argument("--fold-level", type=int, default=0)
    sp.add_argument("--burst-len", type=int, required=True)
    sp.add_argument("--e", type=int, default=1)
    sp.add_argument("--radius", type=int, default=None)
    sp.add_argument("--strict", action="store_true")
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--timing", action="store_true",
                    help="append a wall_time_ns column (makes the CSV "
                         "non-reproducible byte-for-byte)")
    sp.add_argument("--out", dest="outfile", default="-")
    sp.set_defaults(fn=cmd_mc)

    sp = sub.add_parser("bench", help="timing table (CSV)")
    sp.add_argument("--field", default="2^16")
    sp.add_argument("--min-log-n", type=int, default=10)
    sp.add_argument("--max-log-n", type=int, default=12)
    sp.add_argument("--mode", choices=["transform", "list"],
                    default="transform")
    sp.add_argument("--log2-cols", type=int, default=4,
                    help="list mode: log2 of the quotient length")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", dest="outfile", default="-")
    sp.set_defaults(fn=cmd_bench)

    sp = sub.add_parser("ag-encode", help="Hermitian code encoding")
    _add_field_group(sp)
    sp.add_argument("--curve", choices=["hermitian"], default="hermitian")
    sp.add_argument("--kappa", type=int, required=True)
    sp.add_argument("--order-bound", type=int, required=True)
    _add_io(sp)
    sp.set_defaults(fn=cmd_ag_encode)

    sp = sub.add_parser("ag-decode", help="Hermitian code burst decoding")
    _add_field_group(sp)
    sp.add_argument("--curve", choices=["hermitian"], default="hermitian")
    sp.add_argument("--kappa", type=int, required=True)
    sp.add_argument("--order-bound", type=int, required=True)
    sp.add_argument("--mode", choices=["list", "unique"], default="unique")
    sp.add_argument("--level", type=int, default=None,
                    help="fold level of the combined chain (default: the "
                         "fiber depth)")
    sp.add_argument("--e", type=int, default=1)
    sp.add_argument("--radius", type=int, default=None)
    sp.add_argument("--strict", action="store_true")
    sp.add_argument("--emit", choices=["codeword", "message"],
                    default="codeword")
    _add_io(sp)
    sp.set_defaults(fn=cmd_ag_decode, format="hex")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BurstfoldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
