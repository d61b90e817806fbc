"""Random-growth graphs with many corner-implying paths, and their certificates.

Each step attaches a new vertex outside the outer cycle, adjacent to a
random run of two to four consecutive outer vertices whose
non-consecutive members are not yet adjacent.  Such a step adds no
separating triangle, and a run of two turns its edge into a chord, so
large graphs carry many corner-implying paths (CIPs) and plan() must
refuse them.  The growth is incremental: O(degree) per step.
"""

from __future__ import annotations

import random


def growth_graph(n: int, rng: random.Random) -> dict:
    """Graph document of a random-growth graph with n vertices."""
    rot = {1: [2, 3], 2: [3, 1], 3: [1, 2]}
    adj = {v: set(ns) for v, ns in rot.items()}
    nxt, prv = {1: 2, 2: 3, 3: 1}, {1: 3, 2: 1, 3: 2}
    outer = [1, 2, 3]  # outer vertices in no order, for uniform draws
    where = {v: i for i, v in enumerate(outer)}
    for x in range(4, n + 1):
        while True:
            arc = [outer[rng.randrange(len(outer))]]
            for _ in range(rng.choice((2, 3, 4)) - 1):
                arc.append(nxt[arc[-1]])
            if len(set(arc)) < len(arc) or arc[0] == nxt[arc[-1]]:
                continue
            if not any(arc[j] in adj[arc[i]] for i in range(len(arc)) for j in range(i + 2, len(arc))):
                break
        rot[x] = arc[::-1]
        adj[x] = set(arc)
        for v in arc:
            ring = rot[v]
            ring.insert(ring.index(prv[v]) + 1, x)
            adj[v].add(x)
        first, last = arc[0], arc[-1]
        for v in arc[1:-1]:  # these become interior
            k = where.pop(v)
            tail = outer.pop()
            if tail != v:
                outer[k] = tail
                where[tail] = k
            del nxt[v], prv[v]
        nxt[first], prv[x], nxt[x], prv[last] = x, first, last, x
        where[x] = len(outer)
        outer.append(x)
    cycle = [outer[0]]
    while nxt[cycle[-1]] != cycle[0]:
        cycle.append(nxt[cycle[-1]])
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    new = dict(zip(range(1, n + 1), ids))
    return {
        "vertices": [{"id": new[v], "label": f"g{new[v]}"} for v in range(1, n + 1)],
        "rotation": {str(new[v]): [new[u] for u in rot[v]] for v in range(1, n + 1)},
        "outer": [new[v] for v in cycle],
    }


def cip_count(doc: dict) -> int:
    """Corner-implying paths: chord arcs that hold no other chord.

    A chord joins two outer vertices that are not consecutive on the
    outer cycle.  Each clockwise boundary arc between its ends is a CIP
    when no other chord has both ends on that arc.
    """
    outer = doc["outer"]
    k = len(outer)
    pos = {v: i for i, v in enumerate(outer)}
    chords = []
    for key, nbrs in doc["rotation"].items():
        u = int(key)
        if u not in pos:
            continue
        for v in nbrs:
            if v in pos and u < v and (pos[u] - pos[v]) % k not in (1, k - 1):
                chords.append((pos[u], pos[v]))
    count = 0
    for a, b in chords:
        for s, t in ((a, b), (b, a)):
            span = (t - s) % k
            if not any(
                (x, y) != (a, b) and (x - s) % k <= span and (y - s) % k <= span
                for x, y in chords
            ):
                count += 1
    return count
