"""A fixed piece of pure-Python work that gauges the machine's speed.

On a shared host the same work can take up to 1.7 times as long from one
second to the next, in spells of seconds to minutes, and process CPU time
moves with it.  So each pass runs ``chunk()`` before its first timed unit
and after every unit, and reports its times as multiples of the median
chunk, converted to seconds at ``REFERENCE_S``.  The chunk uses minmatch in
no way, so a change to minmatch moves the reported times and a change in the
machine's speed largely does not.
"""

from __future__ import annotations

import random
import time

# Seconds one chunk takes on a 2-vCPU Intel Xeon host at 2.0 GHz (Python
# 3.11.7) when nothing else slows it: reported times are seconds at that speed.
REFERENCE_S = 0.015

_N = 400
# A fixed sparse graph: a ring plus one random chord per vertex.
_ADJ: dict[int, set[int]] = {v: set() for v in range(_N)}
_rng = random.Random(0)
for _v in range(_N):
    for _w in ((_v + 1) % _N, _rng.randrange(_N)):
        if _w != _v:
            _ADJ[_v].add(_w)
            _ADJ[_w].add(_v)


def _work() -> int:
    """Depth-first searches from 80 roots, with the set, list and tuple
    traffic that graph code in pure Python makes."""
    total = 0
    for root in range(0, _N, 5):
        seen = {root}
        stack = [root]
        order = []
        while stack:
            v = stack.pop()
            order.append((v, len(seen)))
            for w in _ADJ[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        total += len(order)
    return total


def chunk() -> float:
    """Seconds one run of the reference work took just now."""
    a = time.perf_counter()
    _work()
    return time.perf_counter() - a
