"""Write the pinned Demazure polynomials of the n=6 staircase to pins.json.

    python3 perfbench/make_pins.py

For each of the 720 permutations p, the digest of the generating polynomial
of {T in SSYT(5,4,3,2,1) : scanning(T) <= key(p)}, the scanning route of
``gen_fn(demazure_set(p, shape))``.  Checking a ``poly dd`` query on this
shape by building the set takes seconds; the digests make it a lookup.  Each
tableau is scanned once and grouped by its scanning key, so the table takes
about a minute.
"""

from __future__ import annotations

import itertools
import json
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from parakat import RPermutation, Shape, content, enumerate_tableaux, key_of_perm, scanning  # noqa: E402
from parakat.tableaux import entrywise_le  # noqa: E402
from workloads import STAIRCASE6, poly_digest  # noqa: E402


def staircase_digests() -> dict[str, str]:
    n, parts = STAIRCASE6
    shape = Shape(n, parts)
    by_key: dict = {}
    for t in enumerate_tableaux(shape):
        by_key.setdefault(scanning(t), Counter())[content(t)] += 1
    out = {}
    r = shape.r_subset.elements
    for perm in itertools.permutations(range(1, n + 1)):
        y = key_of_perm(RPermutation.of(n, r, perm), shape)
        total: Counter = Counter()
        for key, weights in by_key.items():
            if entrywise_le(key, y):
                total.update(weights)
        out[",".join(map(str, perm))] = poly_digest(total.items())
    return out


def main() -> int:
    path = HERE / "pins.json"
    pins = json.loads(path.read_text()) if path.exists() else {}
    pins["staircase6_demazure"] = staircase_digests()
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
