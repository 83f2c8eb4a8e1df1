"""Run one burstfold benchmark workload and print its metrics.

    python3 perfbench/run.py --workload wu-255 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` makes a fixed-size traced run instead and prints the
per-layer metrics, plus the tracing overhead and any wrapped name that no
longer exists; its spans go to ``perfbench/out/``.  ``--workload all`` runs
every workload in its own process, one after the other.

Each line before the last gives a value with its unit; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 1 when a decoded word fails the correctness gate and 2
when the library cannot be found next to this directory.
"""

from __future__ import annotations

import os

# single-threaded: the workloads are timed one process at a time
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_REPS = 11       # set-up varies about 30% single-shot; report the median
WARM_WORDS = 8        # decoded before each timed phase, never timed
MIN_SINGLES = 200     # so that at least 10 samples lie beyond p95
SINGLE_BLOCK = 20
TRACE_SINGLES = 100
SHARES = {"encode": 0.05, "batch": 0.5, "single": 0.45}   # of --seconds
PHASES = ("setup", "encode", "warm", "batch", "single")


def _rng(seed: int, phase: str, i: int):
    return np.random.default_rng([seed, PHASES.index(phase), i])


def _clear_caches() -> None:
    """Drop the library's function caches, so set-up starts cold."""
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").split(".")[0] == "burstfold":
            for v in list(vars(mod).values()):
                if callable(getattr(v, "cache_clear", None)):
                    v.cache_clear()


def _judge(wl, code, inp, outputs):
    return check.judge(inp.sent, inp.received, inp.in_radius, outputs,
                       wl.radius, wl.listing, code.is_codeword)


def _setup(wl, seed, tally):
    """Median seconds from spec parsing to a decoded first word."""
    code = wl.build()
    inp = workloads.make_inputs(wl, code, _rng(seed, "setup", 0), SETUP_REPS,
                                length=max(1, wl.radius // 2))
    times, outs = [], []
    for r in range(SETUP_REPS):
        _clear_caches()
        gc.collect()
        t0 = time.perf_counter()
        code = wl.build()
        outs += wl.batch_decode(code, inp.received[r:r + 1])
        times.append(time.perf_counter() - t0)
    tally.add(_judge(wl, code, inp, outs))
    return float(np.median(times)), code


def _fresh(wl, seed, i, tally, single):
    """A new code whose lazy tables were built by decoding warm-up words
    that no timed phase decodes again."""
    code = wl.build()
    inp = workloads.make_inputs(wl, code, _rng(seed, "warm", i), WARM_WORDS)
    if single:
        outs = [wl.single_decode(code, w) for w in inp.received]
    else:
        outs = wl.batch_decode(code, inp.received)
    tally.add(_judge(wl, code, inp, outs))
    return code


def measure(wl, seed: int, seconds: float):
    """The end-to-end metrics, untraced, over about `seconds` seconds.

    Encode rounds, batch rounds and single-word blocks are interleaved:
    the next step is always the activity furthest behind its share of the
    time, so a stall of the machine lands on a few rounds of each metric
    rather than on all rounds of one."""
    t_end = time.perf_counter() + seconds
    tally = check.Tally()
    setup_s, enc_code = _setup(wl, seed, tally)
    q = enc_code.plan.field.q
    single_code = _fresh(wl, seed, 0, tally, single=True)
    single_before = tracing.cache_footprint(single_code)[0]
    spent = dict.fromkeys(SHARES, 0.0)
    enc, rates, growth, lat = [], [], [], []
    last_batch = 0.0
    while True:
        left = t_end - time.perf_counter()
        short = [p for p, n, least in (("encode", len(enc), 3),
                                       ("batch", len(rates), 1),
                                       ("single", len(lat), MIN_SINGLES))
                 if n < least]
        if left <= 0 and not short:
            break
        ready = short if left <= 0 else [
            p for p in SHARES if p != "batch" or last_batch < left]
        phase = min(ready, key=lambda p: spent[p] / SHARES[p])
        t_phase = time.perf_counter()
        if phase == "encode":
            msgs = _rng(seed, "encode", len(enc)).integers(
                0, q, (wl.encode_batch, enc_code.k))
            t0 = time.perf_counter()
            enc_code.encode(msgs)
            enc.append(wl.encode_batch / (time.perf_counter() - t0))
        elif phase == "batch":
            i = len(rates)
            code = _fresh(wl, seed, i + 1, tally, single=False)
            inp = workloads.make_inputs(wl, code, _rng(seed, "batch", i),
                                        wl.batch)
            before = tracing.cache_footprint(code)[0]
            gc.collect()
            t0 = time.perf_counter()
            outs = wl.batch_decode(code, inp.received)
            last_batch = time.perf_counter() - t0
            rates.append(wl.batch / last_batch)
            growth.append(tracing.cache_footprint(code)[0] - before)
            tally.add(_judge(wl, code, inp, outs))
            del code, inp, outs   # free the round's arrays before going on
        else:
            inp = workloads.make_inputs(
                wl, single_code, _rng(seed, "single", len(lat)),
                SINGLE_BLOCK)
            outs = []
            for w in inp.received:
                t0 = time.perf_counter()
                outs.append(wl.single_decode(single_code, w))
                lat.append(time.perf_counter() - t0)
            tally.add(_judge(wl, single_code, inp, outs))
        spent[phase] += time.perf_counter() - t_phase
    single_growth = tracing.cache_footprint(single_code)[0] - single_before

    lat_ms = np.asarray(lat) * 1e3
    p50, p95 = np.percentile(lat_ms, [50, 95])
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (setup_s, "s", f"median of {SETUP_REPS} cold builds"),
        "encode_words_per_s": (float(np.median(enc)), "words/s",
                               f"median of {len(enc)} x {wl.encode_batch}"),
        "decode_words_per_s": (float(np.median(rates)), "words/s",
                               f"median of {len(rates)} x {wl.batch}"),
        "decode_p50_ms": (float(p50), "ms", f"{len(lat)} samples"),
        "decode_p95_ms": (float(p95), "ms", f"{len(lat)} samples, "
                          f"{int(np.sum(lat_ms > p95))} beyond"),
        "recovered_frac": (1.0 - tally.fail_frac, "frac",
                           f"{tally.in_radius} in-radius words"),
        "no_miscorrect_frac": (1.0 - tally.miscorrect_frac, "frac",
                               f"{tally.attempted} words"),
        "peak_rss_mb": (rss, "MB", "whole process"),
    }
    notes = [
        ("fail_frac", tally.fail_frac, "frac", f"{tally.failed} words"),
        ("miscorrect_frac", tally.miscorrect_frac, "frac",
         f"{tally.miscorrected} words"),
        ("window_cache.new_entries.batch", float(np.median(growth)),
         "count", "median per batch"),
        ("window_cache.new_entries.single", single_growth, "count",
         f"over {len(lat)} words"),
    ]
    return tally, metrics, notes


def traced(wl, seed: int):
    """The per-layer metrics from a fixed amount of work, so that counts
    repeat exactly for a seed."""
    tally = check.Tally()
    # untraced reference for the tracing overhead: the same words, decoded
    # by a fresh code before any wrapper is installed
    code = _fresh(wl, seed, 1, tally, single=False)
    inp = workloads.make_inputs(wl, code, _rng(seed, "batch", 0), wl.batch)
    gc.collect()
    t0 = time.perf_counter()
    outs = wl.batch_decode(code, inp.received)
    plain_s = time.perf_counter() - t0
    tally.add(_judge(wl, code, inp, outs))

    tr = tracing.Tracer()
    tr.install(tracing.LAYERS)
    with tr.request("setup"):
        _, code = _setup(wl, seed, tally)
    tr.phase = "encode"
    msgs = _rng(seed, "encode", 0).integers(0, code.plan.field.q,
                                            (wl.encode_batch, code.k))
    with tr.request("encode"):
        code.encode(msgs)
    tr.phase = "warm"
    code = _fresh(wl, seed, 1, tally, single=False)
    tr.phase = "batch"
    gc.collect()
    t0 = time.perf_counter()
    with tr.request("batch"):
        outs = wl.batch_decode(code, inp.received)
    traced_s = time.perf_counter() - t0
    tr.phase = "check"
    tally.add(_judge(wl, code, inp, outs))
    cache = tracing.cache_footprint(code)

    tr.phase = "warm"
    code = _fresh(wl, seed, 0, tally, single=True)
    single = workloads.make_inputs(wl, code, _rng(seed, "single", 0),
                                   TRACE_SINGLES)
    tr.phase = "single"
    outs = []
    for w in single.received:
        with tr.request("single"):
            outs.append(wl.single_decode(code, w))
    tr.phase = "check"
    tally.add(_judge(wl, code, single, outs))
    cache = max(cache, tracing.cache_footprint(code))

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tr.write(out_dir / f"spans-{wl.name}-seed{seed}.jsonl")
    metrics = {k: (v, u, "missing" if miss else "")
               for k, (v, u, miss) in tracing.layer_metrics(tr).items()}
    metrics.update({
        "rs.window_cache.entries": (cache[0], "count", "largest phase"),
        "rs.window_cache.mb": (cache[1] / 2**20, "MB", "largest phase"),
        "trace.overhead_s": (traced_s - plain_s, "s",
                             f"batch of {wl.batch}: traced minus untraced"),
        "trace.overhead_frac": ((traced_s - plain_s) / plain_s, "frac",
                                f"untraced {plain_s:.3f} s"),
        "trace.missing_targets": (len(tr.missing), "count",
                                  " ".join(tr.missing)),
        "trace.spans": (len(tr.spans), "count", "written to perfbench/out"),
    })
    return tally, metrics, []


def run_all(args) -> int:
    """Every workload in its own process, one at a time."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            res = {"correct": False, "attempted": 0, "failed": 0,
                   "metrics": {}}
        merged["correct"] &= bool(res["correct"]) and proc.returncode == 0
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update(
            {f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)} or all")
    check.selftest()
    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}: bursts 1..{wl.radius}"
          + (f", {wl.beyond_share:.0%} {wl.beyond[0]}..{wl.beyond[1]}"
             if wl.beyond else "")
          + f"; batch {wl.batch}; encode batch {wl.encode_batch}")
    if args.trace:
        tally, metrics, notes = traced(wl, args.seed)
    else:
        tally, metrics, notes = measure(wl, args.seed, args.seconds)
    for name, (value, unit, detail) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit:9s} {detail}")
    for name, value, unit, detail in notes:
        print(f"  {name:40s} {value:14.6g} {unit:9s} {detail}")
    print(f"  correctness gate: {'pass' if tally.passed else 'FAIL'} "
          f"(recovered >= {check.MIN_RECOVERED_FRAC}, miscorrect <= "
          f"{check.MAX_MISCORRECT_FRAC})")
    print(json.dumps({
        "correct": tally.passed, "attempted": tally.attempted,
        "failed": tally.bad,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in metrics.items()}}))
    return 0 if tally.passed else 1


if __name__ == "__main__":
    if not (SRC / "burstfold" / "__init__.py").is_file():
        print(f"burstfold sources not found at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import numpy as np

    import check
    import tracing
    import workloads
    sys.exit(main())
