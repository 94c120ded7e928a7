"""Fixed reference computation that measures how fast the host runs
Python right now.

    python3 perfbench/hostref.py

run.py starts this as a child process between the jobs of a workload and
scales every time it reports by REF_S over the mean time of these runs (see
README.md).  It imports nothing from bbsuper, so its cost is the same at
every commit; it does the kind of work the CLI does (truncated products of
sparse integer series keyed by exponent tuples, and exact elimination over
Fractions) so that it slows down as the CLI does when the host is busy.
It prints a checksum, which run.py compares with CHECKSUM.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product

CHECKSUM = 772312016


def series_product(a: dict, b: dict, bound: int) -> dict:
    out = {}
    for ea, ca in a.items():
        ha = sum(ea)
        for eb, cb in b.items():
            if ha + sum(eb) > bound:
                continue
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def fraction_rank(rows: list) -> int:
    rows = [row[:] for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            if factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def main() -> int:
    base = {e: 1 + sum(e) % 3 for e in product(range(4), repeat=4) if sum(e) <= 3}
    series = {(0, 0, 0, 0): 1}
    for _ in range(5):
        series = series_product(series, base, 10)
    checksum = sum(v * (1 + sum(k)) for k, v in series.items())
    size = 9
    for shift in range(36):
        matrix = [[Fraction((i * 7 + j * 3 + shift) % 11 - 5, 1 + (i + 2 * j) % 5)
                   for j in range(size)] for i in range(size)]
        checksum += fraction_rank(matrix)
    checksum %= 2**31 - 1
    print(checksum)
    return 0 if checksum == CHECKSUM else 1


if __name__ == "__main__":
    raise SystemExit(main())
