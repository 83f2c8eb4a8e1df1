"""Correctness gate: every decoded word is compared with the sent codeword.

A unique decoder's answer is a codeword or None (failure detected).  A list
decoder's answer is a list of codewords.  The thresholds are those of the
acceptance tests: in-radius recovery of at least 0.999, and at most 10
miscorrections in 10^4 words.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MIN_RECOVERED_FRAC = 0.999
MAX_MISCORRECT_FRAC = 1e-3


@dataclass
class Tally:
    attempted: int = 0       # words decoded
    in_radius: int = 0       # of which the burst was within the radius
    failed: int = 0          # in-radius words not returned correctly
    miscorrected: int = 0    # words where a wrong codeword was asserted
    bad: int = 0             # words in either of the last two counts

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.in_radius += other.in_radius
        self.failed += other.failed
        self.miscorrected += other.miscorrected
        self.bad += other.bad

    @property
    def fail_frac(self) -> float:
        return self.failed / self.in_radius if self.in_radius else 0.0

    @property
    def miscorrect_frac(self) -> float:
        return self.miscorrected / self.attempted if self.attempted else 0.0

    @property
    def passed(self) -> bool:
        return (self.attempted > 0
                and 1.0 - self.fail_frac >= MIN_RECOVERED_FRAC
                and self.miscorrect_frac <= MAX_MISCORRECT_FRAC)


def _burst_span(a: np.ndarray, b: np.ndarray) -> int:
    diff = np.flatnonzero(a != b)
    return int(diff[-1] - diff[0] + 1) if diff.size else 0


def judge(sent, received, in_radius, outputs, radius: int, listing: bool,
          is_codeword) -> Tally:
    """Tally one block of decodes.  A list decoder miscorrects when it lists
    a word other than the sent one that is not a codeword or differs from
    the received word over a span longer than the radius."""
    t = Tally(attempted=len(outputs), in_radius=int(np.sum(in_radius)))
    for i, out in enumerate(outputs):
        if listing:
            found = any(np.array_equal(c, sent[i]) for c in out)
            wrong = any(not np.array_equal(c, sent[i])
                        and (_burst_span(c, received[i]) > radius
                             or not is_codeword(c)) for c in out)
        else:
            found = out is not None and np.array_equal(out, sent[i])
            wrong = out is not None and not found
        lost = bool(in_radius[i]) and not found
        t.failed += lost
        t.miscorrected += wrong
        t.bad += lost or wrong
    return t


def selftest() -> None:
    """Feed the gate deliberately wrong decodes; raise if it does not fire."""
    sent = np.zeros((2, 8), dtype=np.int64)
    received = sent.copy()
    received[:, 2:4] = 5
    wrong = np.ones(8, dtype=np.int64)
    cases = [   # (list decoder, in radius, outputs, failed, miscorrected)
        (False, [False, True], [wrong, sent[1]], 0, 1),
        (False, [True, True], [None, sent[1]], 1, 0),
        (True, [True, True], [[wrong], [sent[1]]], 1, 1),
    ]
    for listing, in_radius, outputs, failed, miscorrected in cases:
        t = judge(sent, received, np.array(in_radius), outputs, 2, listing,
                  lambda c: True)
        if (t.failed, t.miscorrected) != (failed, miscorrected) or t.passed:
            raise AssertionError(f"correctness gate did not fire: {t}")
