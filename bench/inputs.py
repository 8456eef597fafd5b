"""Seeded benchmark inputs, generated without the library under test.

A diagram is a tuple of PD rows: four edge labels per crossing in
counterclockwise slot order, dart ``4*c + s`` at slot ``s`` of crossing
``c``.  Faces are the orbits of ``d -> next slot of alpha(d)``, the same
rotation-system convention the PD format fixes.  Nothing here calls the
``turaev`` library (genus comes from the independent union-find oracle
in ``tests/oracles.py``), so the same seed gives the same inputs on every
commit of the library.
"""

from __future__ import annotations

import hashlib
import random

from oracles import circle_count_unionfind

Rows = tuple[tuple[int, int, int, int], ...]

# Cyclic arrangements of the four stubs of a new crossing, as in any
# insertion grower: (tail1, head1, tail2, head2) in each cyclic order, with
# both over/under choices.  Invalid (non-planar) choices are rejected.
_ORDERS = ((0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3), (0, 2, 3, 1), (0, 3, 1, 2), (0, 3, 2, 1))
_ONE_CROSSING = ((1, 1, 2, 2),), ((1, 2, 2, 1),)


def alpha_of(rows) -> list[int] | None:
    """Dart involution, or None when a label does not occur exactly twice."""
    where: dict[int, int] = {}
    alpha = [-1] * (4 * len(rows))
    for d in range(4 * len(rows)):
        lab = rows[d >> 2][d & 3]
        other = where.pop(lab, None)
        if other is None:
            where[lab] = d
        else:
            alpha[d], alpha[other] = other, d
    return None if where else alpha


def face_walks(alpha: list[int]) -> list[list[int]]:
    seen = bytearray(len(alpha))
    walks = []
    for start in range(len(alpha)):
        if seen[start]:
            continue
        walk = []
        d = start
        while not seen[d]:
            seen[d] = 1
            walk.append(d)
            a = alpha[d]
            d = (a & ~3) | ((a + 1) & 3)
        walks.append(walk)
    return walks


def is_planar_connected(rows) -> bool:
    alpha = alpha_of(rows)
    if alpha is None:
        return False
    n = len(rows)
    seen = {0}
    stack = [0]
    while stack:
        c = stack.pop()
        for s in range(4):
            o = alpha[4 * c + s] >> 2
            if o not in seen:
                seen.add(o)
                stack.append(o)
    return len(seen) == n and n - 2 * n + len(face_walks(alpha)) == 2


def is_prime_rows(rows) -> bool:
    """No two distinct edges lie on the same two faces.

    Such a pair is exactly a loop meeting the diagram in two edge points
    with crossings on both sides (each side holds an end of each edge).
    """
    alpha = alpha_of(rows)
    face = [0] * len(alpha)
    for fid, walk in enumerate(face_walks(alpha)):
        for d in walk:
            face[d] = fid
    pairs = set()
    for d, a in enumerate(alpha):
        if d < a:
            key = (min(face[d], face[a]), max(face[d], face[a]))
            if key in pairs:
                return False
            pairs.add(key)
    return True


def normalize(rows) -> Rows:
    """Relabel edges 1..2n in order of first appearance."""
    new: dict[int, int] = {}
    return tuple(tuple(new.setdefault(lab, len(new) + 1) for lab in row) for row in rows)


def _insert(rng: random.Random, rows: Rows, *, kinks: bool) -> Rows | None:
    """One random crossing insertion, or None when the draw is not planar."""
    alpha = alpha_of(rows)
    m = max(lab for row in rows for lab in row)
    new = [list(row) for row in rows]
    if kinks and rng.random() < 0.15:
        u = rng.randrange(len(alpha))
        au = alpha[u]
        new[u >> 2][u & 3], new[au >> 2][au & 3] = m + 1, m + 2
        stubs = (m + 1, m + 2, m + 3, m + 3)
    else:
        walk = rng.choice(face_walks(alpha))
        if len(walk) < 2:
            return None
        u, v = rng.sample(walk, 2)
        if v in (u, alpha[u]):
            return None
        au, av = alpha[u], alpha[v]
        new[u >> 2][u & 3], new[au >> 2][au & 3] = m + 1, m + 2
        new[v >> 2][v & 3], new[av >> 2][av & 3] = m + 3, m + 4
        stubs = (m + 1, m + 2, m + 3, m + 4)
    order = rng.choice(_ORDERS)
    row = [stubs[i] for i in order]
    if rng.random() < 0.5:
        row = row[1:] + row[:1]
    new.append(row)
    return tuple(map(tuple, new)) if is_planar_connected(new) else None


def random_rows(rng: random.Random, n: int) -> Rows:
    """A random connected diagram with n crossings, grown by insertions."""
    rows = rng.choice(_ONE_CROSSING)
    while len(rows) < n:
        rows = _insert(rng, rows, kinks=True) or rows
    return normalize(rows)


def genus_rows(rows) -> int:
    """Turaev genus from the independent union-find circle oracle."""
    n = len(rows)
    sa = circle_count_unionfind(rows, "A" * n)
    sb = circle_count_unionfind(rows, "B" * n)
    return (n + 2 - sa - sb) // 2


def prime_rows(rng: random.Random, n: int, cap: int | None) -> Rows:
    """A prime diagram with n crossings and Turaev genus in 1..cap.

    Every insertion keeps the diagram prime and its genus within the cap,
    so the growth never backtracks; a growth that stalls or ends
    alternating starts over.
    """
    while True:
        rows = _ONE_CROSSING[0]
        stalls = 0
        while len(rows) < n and stalls < 200:
            nxt = _insert(rng, rows, kinks=False)
            if nxt is None or not is_prime_rows(nxt):
                stalls += 1
                continue
            if cap is not None and genus_rows(nxt) > cap:
                stalls += 1
                continue
            rows, stalls = nxt, 0
        if len(rows) == n and genus_rows(rows) >= 1:
            return normalize(rows)


def table_small(seed: int, count: int = 2000, max_n: int = 12) -> list[Rows]:
    """Random connected diagrams, the same number at each of 1..max_n
    crossings (the acceptance corpus draws the size uniformly)."""
    rng = random.Random(seed)
    return [random_rows(rng, 1 + k % max_n) for k in range(count)]


# The prime-mid diagram set is drawn once from this seed.  Their check
# costs are heavy-tailed (the Hayashi search takes 1 ms on most and
# seconds on a few, depending on the diagram and its labeling), so a set
# redrawn per run would change throughput threefold between runs; with a
# fixed set the slow diagrams are the same in every run and a fix to them
# shows as a step.  The run seed orders the set.
PRIME_MID_POOL_SEED = 20260808


def prime_mid(seed: int, count: int = 200, lo: int = 8, hi: int = 60) -> list[Rows]:
    """Prime non-alternating diagrams: a third each capped at genus 1, at
    genus 2 and uncapped, sizes spread evenly over lo..hi, in an order
    drawn from ``seed``."""
    rng = random.Random(PRIME_MID_POOL_SEED)
    caps = (1, 2, None)
    out = []
    for k in range(count):
        n = lo + (k * (hi - lo + 1) // count + rng.randrange(3)) % (hi - lo + 1)
        out.append(prime_rows(rng, n, caps[k % 3]))
    random.Random(seed).shuffle(out)
    return out


def digest(rows_list) -> str:
    h = hashlib.sha256()
    for rows in rows_list:
        h.update(pd_text(rows).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def pd_text(rows) -> str:
    return " ".join("X[%d,%d,%d,%d]" % tuple(row) for row in rows)
