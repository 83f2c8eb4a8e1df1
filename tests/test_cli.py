"""End-to-end checks of the command-line interface (in-process)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import burstfold
from burstfold.cli import main, read_words, wilson_interval, write_words
from burstfold.errors import InvalidSymbol
from burstfold.fields import get_field

G255 = "t=255,gamma=0x1"
G255F = "t=255,gamma=0x1,tfactors=15;17"
AGG = "t=15,gamma=0x1,tfactors=15"


def write_msg(path, values):
    with open(path, "w") as f:
        f.write("\n".join(format(int(v), "x") for v in values) + "\n")


def read_vals(path):
    out = [[]]
    for line in open(path):
        s = line.strip()
        if s.startswith("#"):
            continue
        if not s:
            if out[-1]:
                out.append([])
            continue
        out[-1].append(int(s, 16))
    if not out[-1]:
        out.pop()
    return out


def test_word_file_roundtrip(tmp_path, gf256):
    p = tmp_path / "w.txt"
    words = [np.arange(10, dtype=np.int64), np.arange(5, 15, dtype=np.int64)]
    write_words(str(p), gf256, words)
    back = read_words(str(p), gf256)
    assert len(back) == 2
    assert all(np.array_equal(a, b) for a, b in zip(words, back))
    first = p.read_text().splitlines()[0]
    assert first == "# gf 2 8 0x11d n=10"


def test_word_file_header_mismatch(tmp_path, gf256):
    p = tmp_path / "w.txt"
    write_words(str(p), get_field(2, 4), [np.arange(4, dtype=np.int64)])
    rc = main(["decode", "--field", "2^8:0x11d", "--group", G255,
               "--k", "223", "--in", str(p), "--out", "-"])
    assert rc == 2


def test_word_file_rejects_bad_symbols(tmp_path, gf16):
    p = tmp_path / "m.txt"
    base = ["--field", "2^4", "--group", "t=15,gamma=0x1", "--k", "3"]
    # negative, not below q = 16, not hex
    for bad in ("-1", "1f", "zz"):
        p.write_text(f"1\n{bad}\n2\n")
        with pytest.raises(InvalidSymbol):
            read_words(str(p), gf16)
        assert main(["encode", *base, "--in", str(p), "--out", "-"]) == 2
    p.write_text("1\nf\n2\n")
    assert read_words(str(p), gf16)[0].tolist() == [1, 15, 2]


def test_module_entry_point():
    src = str(Path(burstfold.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         "burstfold.cli", "--help"],
        env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("usage: burstfold")


def test_encode_corrupt_decode_unique(tmp_path, gf256):
    rng = np.random.default_rng(17)
    msg = rng.integers(0, 256, 120)
    mp, cp, bp, rp = (str(tmp_path / x) for x in
                      ("m.txt", "c.txt", "b.txt", "r.txt"))
    write_msg(mp, msg)
    base = ["--field", "2^8:0x11d", "--group", G255F, "--k", "120"]
    assert main(["encode", *base, "--in", mp, "--out", cp]) == 0
    assert main(["corrupt", "--field", "2^8:0x11d", "--burst-len", "40",
                 "--seed", "4", "--in", cp, "--out", bp]) == 0
    assert main(["decode", *base, "--mode", "unique", "--fold-level", "1",
                 "--e", "2", "--emit", "message", "--in", bp,
                 "--out", rp]) == 0
    assert read_vals(rp) == [list(int(v) for v in msg)]
    # default emission is the codeword itself
    assert main(["decode", *base, "--mode", "unique", "--fold-level", "1",
                 "--e", "2", "--in", bp, "--out", rp]) == 0
    assert read_vals(rp) == read_vals(cp)


def test_prime_field_roundtrip(tmp_path):
    # GF(13) has no modulus: the header carries 0x0, which read_words ignores
    msg = [1, 2, 3, 4]
    mp, cp, bp, rp = (str(tmp_path / x) for x in
                      ("m.txt", "c.txt", "b.txt", "r.txt"))
    write_msg(mp, msg)
    base = ["--field", "13", "--group", "t=12,gamma=0x1", "--k", "4"]
    assert main(["encode", *base, "--in", mp, "--out", cp]) == 0
    assert open(cp).readline().split()[:4] == ["#", "gf", "13", "1"]
    assert main(["corrupt", "--field", "13", "--group", "t=12,gamma=0x1",
                 "--cyclic", "--burst-len", "3", "--seed", "5",
                 "--in", cp, "--out", bp]) == 0
    assert read_vals(bp) != read_vals(cp)
    assert main(["decode", *base, "--mode", "wu", "--in", bp,
                 "--out", rp]) == 0
    assert read_vals(rp) == read_vals(cp)
    assert main(["decode", *base, "--mode", "wu", "--emit", "message",
                 "--in", bp, "--out", rp]) == 0
    assert read_vals(rp) == [msg]


def test_decode_wu_wrapped_burst(tmp_path):
    rng = np.random.default_rng(8)
    msg = rng.integers(0, 256, 223)
    mp, cp, bp, rp = (str(tmp_path / x) for x in
                      ("m.txt", "c.txt", "b.txt", "r.txt"))
    write_msg(mp, msg)
    base = ["--field", "2^8:0x11d", "--group", G255, "--k", "223"]
    assert main(["encode", *base, "--in", mp, "--out", cp]) == 0
    # fixed start near the top exponent so the window wraps
    assert main(["corrupt", "--field", "2^8:0x11d", "--group", G255,
                 "--cyclic", "--burst-len", "29", "--start", "240",
                 "--seed", "9", "--in", cp, "--out", bp]) == 0
    assert main(["decode", *base, "--mode", "wu", "--e", "2",
                 "--emit", "message", "--in", bp, "--out", rp]) == 0
    assert read_vals(rp) == [list(int(v) for v in msg)]


def test_decode_list_json(tmp_path):
    rng = np.random.default_rng(5)
    msg = rng.integers(0, 64, 15)
    mp, cp, bp, rp = (str(tmp_path / x) for x in
                      ("m.txt", "c.txt", "b.txt", "r.json"))
    write_msg(mp, msg)
    base = ["--field", "2^6", "--group", "t=63,gamma=0x1", "--k", "15"]
    assert main(["encode", *base, "--in", mp, "--out", cp]) == 0
    assert main(["corrupt", "--field", "2^6", "--burst-len", "25",
                 "--seed", "2", "--in", cp, "--out", bp]) == 0
    assert main(["decode", *base, "--mode", "list", "--fold-level", "2",
                 "--format", "json", "--in", bp, "--out", rp]) == 0
    data = json.loads(open(rp).read())
    cw = read_vals(cp)[0]
    assert data["mode"] == "list"
    assert cw in data["candidates"][0]


def test_decode_garbage_fails(tmp_path):
    rng = np.random.default_rng(123)
    bp, rp = str(tmp_path / "b.txt"), str(tmp_path / "r.txt")
    write_msg(bp, rng.integers(0, 256, 255))
    rc = main(["decode", "--field", "2^8:0x11d", "--group", G255,
               "--k", "223", "--mode", "wu", "--e", "2",
               "--in", bp, "--out", rp])
    assert rc == 1


def test_corrupt_span_and_start(tmp_path, gf256):
    rng = np.random.default_rng(3)
    w = rng.integers(0, 256, 100)
    cp, bp = str(tmp_path / "c.txt"), str(tmp_path / "b.txt")
    write_msg(cp, w)
    assert main(["corrupt", "--field", "2^8:0x11d", "--burst-len", "12",
                 "--start", "30", "--seed", "1",
                 "--in", cp, "--out", bp]) == 0
    bad = np.array(read_vals(bp)[0])
    diff = np.flatnonzero(gf256.sub(bad, w))
    assert diff[0] == 30 and diff[-1] == 41


def test_zero_length_corrupt_identity(tmp_path):
    rng = np.random.default_rng(21)
    msg = rng.integers(0, 64, 15)
    mp, cp, bp, rp = (str(tmp_path / x) for x in
                      ("m.txt", "c.txt", "b.txt", "r.txt"))
    write_msg(mp, msg)
    base = ["--field", "2^6", "--group", "t=63,gamma=0x1", "--k", "15"]
    assert main(["encode", *base, "--in", mp, "--out", cp]) == 0
    assert main(["corrupt", "--field", "2^6", "--burst-len", "0",
                 "--seed", "3", "--in", cp, "--out", bp]) == 0
    assert read_vals(bp) == read_vals(cp)
    assert main(["decode", *base, "--mode", "unique", "--fold-level", "2",
                 "--emit", "message", "--in", bp, "--out", rp]) == 0
    assert read_vals(rp) == [list(int(v) for v in msg)]


def test_list_clean_input_single_candidate(tmp_path):
    rng = np.random.default_rng(31)
    msg = rng.integers(0, 64, 15)
    mp, cp, rp = (str(tmp_path / x) for x in ("m.txt", "c.txt", "r.json"))
    write_msg(mp, msg)
    base = ["--field", "2^6", "--group", "t=63,gamma=0x1", "--k", "15"]
    assert main(["encode", *base, "--in", mp, "--out", cp]) == 0
    assert main(["decode", *base, "--mode", "list", "--fold-level", "2",
                 "--format", "json", "--in", cp, "--out", rp]) == 0
    data = json.loads(open(rp).read())
    assert data["candidates"] == [[read_vals(cp)[0]]]


def test_oracle_decode_matches_fast_path():
    from burstfold import (AffineGroupSpec, Field, NotACodeword, RsCode,
                           WindowTooLong, erasure_decode, plan_build)
    from burstfold.cli import plant_index_burst
    from reference import oracle_decode

    F = Field.parse("2^6")
    plan = plan_build(F, AffineGroupSpec.parse(F, "t=63,gamma=0x1"))
    code = RsCode(plan, 15)
    rng = np.random.default_rng(2)
    for _ in range(25):
        cw = code.encode(rng.integers(0, 64, 15))
        ln = int(rng.integers(0, 49))
        st = int(rng.integers(0, 64 - ln))
        rcv = plant_index_burst(F, rng, cw, ln, st)
        assert np.array_equal(oracle_decode(code, rcv, (st, ln)),
                              erasure_decode(code, rcv, (st, ln))[1])
    cw = code.encode(rng.integers(0, 64, 15))
    assert np.array_equal(oracle_decode(code, cw, (0, 0)), cw)
    with pytest.raises(WindowTooLong):
        oracle_decode(code, cw, (0, 49))
    bad = np.array(cw)
    bad[60] ^= 5
    with pytest.raises(NotACodeword):
        oracle_decode(code, bad, (0, 8))


def test_mc_deterministic_and_shaped(tmp_path):
    args = ["mc", "--field", "2^8:0x11d", "--group", G255, "--k", "223",
            "--mode", "wu", "--burst-len", "29", "--e", "2",
            "--trials", "12", "--seed", "6"]
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main([*args, "--out", p1]) == 0
    assert main([*args, "--out", p2]) == 0
    b1, b2 = open(p1, "rb").read(), open(p2, "rb").read()
    assert b1 == b2
    lines = b1.decode().splitlines()
    assert lines[0] == "trial,n,k,length,e,start,outcome"
    assert len(lines) == 14 and lines[-1].startswith("# trials=12 ")
    row = lines[1].split(",")
    assert row[1:5] == ["255", "223", "29", "2"]
    assert all(l.split(",")[6] in ("ok", "miscorrect", "detected")
               for l in lines[1:-1])


def test_mc_timing_column(tmp_path):
    p = str(tmp_path / "t.csv")
    assert main(["mc", "--field", "2^8:0x11d", "--group", G255,
                 "--k", "223", "--mode", "wu", "--burst-len", "10",
                 "--e", "2", "--trials", "2", "--seed", "0", "--timing",
                 "--out", p]) == 0
    lines = open(p).read().splitlines()
    assert lines[0].endswith(",wall_time_ns")
    assert int(lines[1].split(",")[7]) > 0


def test_mc_zero_length_burst(tmp_path):
    p = str(tmp_path / "z.csv")
    assert main(["mc", "--field", "2^8:0x11d", "--group", G255,
                 "--k", "223", "--mode", "wu", "--burst-len", "0",
                 "--e", "2", "--trials", "4", "--seed", "1",
                 "--out", p]) == 0
    lines = open(p).read().splitlines()
    assert all(l.split(",")[6] == "ok" for l in lines[1:-1])
    assert "miscorrect=0" in lines[-1] and "rate=1.000000" in lines[-1]


def test_mc_interleaved_modes(tmp_path):
    for mode in ("unique", "list"):
        p = str(tmp_path / f"{mode}.csv")
        assert main(["mc", "--field", "2^8:0x11d", "--group", G255F,
                     "--k", "120", "--mode", mode, "--fold-level", "1",
                     "--burst-len", "40", "--e", "2", "--trials", "5",
                     "--seed", "2", "--out", p]) == 0
        rows = [l for l in open(p).read().splitlines()
                if l and not l.startswith("#")][1:]
        assert len(rows) == 5
        assert all(r.split(",")[6] == "ok" for r in rows)


def test_bench_csv(tmp_path):
    p = str(tmp_path / "bench.csv")
    assert main(["bench", "--field", "2^10:0x409", "--min-log-n", "7",
                 "--max-log-n", "8", "--mode", "transform", "--seed", "0",
                 "--out", p]) == 0
    lines = open(p).read().splitlines()
    assert lines[0] == "n,mode,median_ns,normalized"
    assert [l.split(",")[0] for l in lines[1:]] == ["128", "256"]


def test_ag_cli_roundtrip(tmp_path):
    rng = np.random.default_rng(44)
    msg = rng.integers(0, 16, 15)
    mp, cp, bp, rp = (str(tmp_path / x) for x in
                      ("m.txt", "c.txt", "b.txt", "r.txt"))
    write_msg(mp, msg)
    base = ["--field", "2^4", "--group", AGG, "--kappa", "4",
            "--order-bound", "20"]
    assert main(["ag-encode", *base, "--in", mp, "--out", cp]) == 0
    assert main(["corrupt", "--field", "2^4", "--burst-len", "17",
                 "--start", "11", "--seed", "5",
                 "--in", cp, "--out", bp]) == 0
    assert main(["ag-decode", *base, "--mode", "unique", "--e", "2",
                 "--emit", "message", "--in", bp, "--out", rp]) == 0
    assert read_vals(rp) == [list(int(v) for v in msg)]


def test_bad_config_exit_codes(tmp_path):
    mp = str(tmp_path / "m.txt")
    write_msg(mp, np.zeros(10, dtype=np.int64))
    # gamma=0 collides the multiplicative coset
    assert main(["encode", "--field", "2^8:0x11d", "--group", "t=255",
                 "--k", "10", "--in", mp, "--out", "-"]) == 2
    # message length != k
    assert main(["encode", "--field", "2^8:0x11d", "--group", G255,
                 "--k", "223", "--in", mp, "--out", "-"]) == 2
    # a field too large for the arithmetic tables
    assert main(["encode", "--field", "2^21", "--group", "t=1,wdim=2",
                 "--k", "2", "--in", mp, "--out", "-"]) == 2


def test_negative_margin_exit_code(tmp_path):
    rng = np.random.default_rng(31)
    wp = str(tmp_path / "w.txt")
    write_words(wp, get_field(2, 8), [rng.integers(0, 256, 255)])
    base = ["--field", "2^8:0x11d", "--group", G255F, "--k", "120"]
    for mode in ("wu", "unique"):
        assert main(["decode", *base, "--mode", mode, "--fold-level", "1",
                     "--e", "-1", "--in", wp, "--out", "-"]) == 2
    assert main(["mc", *base, "--mode", "wu", "--burst-len", "3",
                 "--e", "-1", "--trials", "2", "--out", "-"]) == 2


@pytest.mark.parametrize("length", ["-1", "256"])
def test_burst_length_outside_word_exit_code(tmp_path, capsys, length):
    rng = np.random.default_rng(32)
    wp = str(tmp_path / "w.txt")
    write_msg(wp, rng.integers(0, 256, 255))
    for extra in ([], ["--cyclic", "--group", G255]):
        assert main(["corrupt", "--field", "2^8:0x11d", "--burst-len",
                     length, *extra, "--in", wp, "--out", "-"]) == 2
    for mode in ("wu", "unique", "list"):
        assert main(["mc", "--field", "2^8:0x11d", "--group", G255F,
                     "--k", "120", "--mode", mode, "--fold-level", "1",
                     "--burst-len", length, "--e", "2", "--trials", "2",
                     "--out", "-"]) == 2
    err = capsys.readouterr().err
    assert err.count(f"burst length {length} outside 0..255") == 5


@pytest.mark.parametrize("field,group,why", [
    ("2^8:0x11d", "t=abc", "is not key=value pairs"),
    ("abc", G255, "is not p, p^d or p^d:0xMOD"),
    ("2^0", G255, "extension degree must be >= 1"),
    ("2^8:0x11d", "t", "is not key=value pairs"),
    ("2^8:0x11d", "t=1,wdim=2,wbasis=0x1", "wbasis length disagrees"),
    # a chain whose product is not t would build a code on fewer points
    ("2^8:0x11d", "t=255,gamma=0x1,tfactors=3", "whose product is t=255"),
    ("2^8:0x11d", "t=255,gamma=0x1,tfactors=15;3", "whose product is t=255"),
])
def test_malformed_spec_exit_code(tmp_path, capsys, field, group, why):
    mp, cp = str(tmp_path / "m.txt"), str(tmp_path / "c.txt")
    write_msg(mp, [1])
    assert main(["encode", "--field", field, "--group", group, "--k", "1",
                 "--in", mp, "--out", cp]) == 2
    assert why in capsys.readouterr().err
    assert not os.path.exists(cp)


def test_malformed_file_header_exit_code(tmp_path, capsys):
    p = tmp_path / "w.txt"
    p.write_text("# gf 2 8 zz n=3\n1\n2\n3\n")
    assert main(["corrupt", "--field", "2^8:0x11d", "--burst-len", "1",
                 "--in", str(p), "--out", "-"]) == 2
    assert "bad file header" in capsys.readouterr().err


@pytest.mark.parametrize("start", ["300", "-2", "254"])
def test_corrupt_start_outside_word_exit_code(tmp_path, capsys, start):
    wp = str(tmp_path / "w.txt")
    write_msg(wp, np.arange(255))
    assert main(["corrupt", "--field", "2^8:0x11d", "--burst-len", "3",
                 "--start", start, "--in", wp, "--out", "-"]) == 2
    assert f"burst start {start} outside 0..252" in capsys.readouterr().err


def test_missing_input_and_unwritable_output_exit_code(tmp_path, capsys):
    mp = str(tmp_path / "m.txt")
    write_msg(mp, [1, 2, 3])
    base = ["encode", "--field", "2^4", "--group", "t=15,gamma=0x1",
            "--k", "3"]
    missing = str(tmp_path / "absent.txt")
    assert main([*base, "--in", missing, "--out", "-"]) == 2
    assert f"cannot read {missing}" in capsys.readouterr().err
    nowhere = str(tmp_path / "no_such_dir" / "c.txt")
    assert main([*base, "--in", mp, "--out", nowhere]) == 2
    assert f"cannot write {nowhere}" in capsys.readouterr().err


def test_negative_trials_exit_code(capsys):
    assert main(["mc", "--field", "2^8:0x11d", "--group", G255,
                 "--k", "223", "--burst-len", "3", "--trials", "-1",
                 "--out", "-"]) == 2
    err = capsys.readouterr()
    assert "--trials -1 is negative" in err.err and not err.out


def test_wilson_interval():
    lo, hi = wilson_interval(999, 1000)
    assert 0.99 < lo < 0.999 < hi <= 1.0
    lo0, hi0 = wilson_interval(0, 50)
    assert lo0 == pytest.approx(0.0, abs=1e-9) and hi0 < 0.12
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_decode_wu_batch_matches_per_word(tmp_path, capsys):
    from burstfold.cli import plant_cyclic_burst
    from burstfold.rs import RsCode

    F = get_field(2, 8)
    base = ["--field", "2^8:0x11d", "--group", G255, "--k", "223"]
    code = RsCode(burstfold.plan_build(
        F, burstfold.AffineGroupSpec.parse(F, G255)), 223)
    rng = np.random.default_rng(12)
    cws = code.encode(rng.integers(0, 256, (4, 223)))
    words = [plant_cyclic_burst(code, rng, cws[0], 29, 250), cws[1],
             rng.integers(0, 256, 255),
             plant_cyclic_burst(code, rng, cws[3], 12, 7)]
    bp = str(tmp_path / "b.txt")
    write_words(bp, F, words)

    def decode(path, fmt, out):
        rc = main(["decode", *base, "--mode", "wu", "--e", "2",
                   "--format", fmt, "--in", path, "--out", out])
        return rc, capsys.readouterr().err

    for fmt in ("hex", "json"):
        out = str(tmp_path / f"all.{fmt}")
        rc, err = decode(bp, fmt, out)
        assert rc == 1  # the random word fails
        whole = open(out).read()
        parts, errs = [], []
        for i, w in enumerate(words):
            wp, op = (str(tmp_path / f"{x}{i}.{fmt}") for x in ("w", "o"))
            write_words(wp, F, [w])
            rc_i, err_i = decode(wp, fmt, op)
            assert rc_i == (1 if i == 2 else 0)
            parts.append(open(op).read())
            errs.append(err_i.replace("word 0:", f"word {i}:"))
        assert err == "".join(errs)
        if fmt == "json":
            results = [json.loads(p)["results"][0] for p in parts]
            assert json.loads(whole) == {"mode": "wu", "results": results}
            assert [r["reason"] for r in results] == \
                [None, None, "short_run", None]
        else:
            assert read_vals(out) == [v for p in (tmp_path / f"o{i}.hex"
                                                  for i in (0, 1, 3))
                                      for v in read_vals(str(p))]
            assert read_vals(out) == [list(map(int, cws[i]))
                                      for i in (0, 1, 3)]
