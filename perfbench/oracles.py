"""Ground truth for the benchmark's correctness checks.

Nothing here imports qscd. Permutations are plain tuples of 1-based images,
graphs are a node count plus a set of (u, v) edges with u < v, and ciphertext
text is parsed by hand, so a fault in qscd's arithmetic, search, sampling or
serialization cannot hide behind the code that checks it.
"""

from __future__ import annotations

import cmath
import itertools
import math

AMP_TOL = 1e-12
# Chance of a false failure allowed for one statistical check. Far below what
# any run could notice: a run makes a few thousand checks at most.
FALSE_FAILURE = 1e-12


def compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """(a b)(i) = a(b(i))."""
    return tuple(a[x - 1] for x in b)


def power(p: tuple[int, ...], t: int) -> tuple[int, ...]:
    out = tuple(range(1, len(p) + 1))
    for _ in range(t):
        out = compose(out, p)
    return out


def cycle_lengths(p: tuple[int, ...]) -> list[int]:
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        if seen[start]:
            continue
        length, point = 0, start
        while not seen[point]:
            seen[point] = True
            point = p[point] - 1
            length += 1
        lengths.append(length)
    return lengths


def in_key_class(p: tuple[int, ...], m: int) -> bool:
    """Membership in K_n (m = 2) or K_n^m: a bijection whose cycles all have length m."""
    return sorted(p) == list(range(1, len(p) + 1)) and all(c == m for c in cycle_lengths(p))


def random_key(n: int, m: int, rng) -> tuple[int, ...]:
    """Uniform key with all cycles of length m: cut a shuffle into m-blocks."""
    points = [int(x) + 1 for x in rng.permutation(n)]
    image = [0] * n
    for start in range(0, n, m):
        block = points[start:start + m]
        for a, b in zip(block, block[1:] + block[:1]):
            image[a - 1] = b
    return tuple(image)


def coset_state_error(amps: dict[tuple[int, ...], complex], key: tuple[int, ...], m: int, symbol: int) -> str | None:
    """Why amps is not a coset state sum_t w^(st) |x key^t> / sqrt(m), or None.

    The support must be one left coset {x key^t : t in Z_m}, every amplitude
    must be an m-th root of unity over sqrt(m), and the amplitude ratio
    between x key^t and x must be w^(st) with w = exp(2 pi i / m). For the
    single-bit scheme m = 2 and the symbol is the message bit, so the ratio
    is (-1)^bit.
    """
    if len(amps) != m:
        return f"support {len(amps)} != {m}"
    x = min(amps)
    coset = [compose(x, power(key, t)) for t in range(m)]
    if set(coset) != set(amps):
        return "support is not a coset of the key's cyclic group"
    scale = 1.0 / math.sqrt(m)
    base = amps[x]
    if min(abs(base - scale * cmath.exp(2j * math.pi * k / m)) for k in range(m)) > AMP_TOL:
        return f"amplitude {base} is not a root of unity over sqrt({m})"
    for t, y in enumerate(coset):
        want = base * cmath.exp(2j * math.pi * symbol * t / m)
        if abs(amps[y] - want) > AMP_TOL:
            return f"amplitude at key power {t} is {amps[y]}, want {want}"
    return None


def parse_ciphertext_text(text: str) -> tuple[str, int, dict[tuple[int, tuple[int, ...]], complex]]:
    """(mode tag, modulus, amplitude map) from the documented ciphertext format."""
    lines = text.split("\n")
    tag, mode, m = lines[0].split()
    head, n, state_m, count = lines[1].split()
    if tag != "CIPHERTEXT" or head != "QSTATE":
        raise ValueError("bad ciphertext header")
    amps = {}
    for line in lines[2:2 + int(count)]:
        control, re, im, rest = line.split(maxsplit=3)
        degree, images = rest.split(":")
        perm = tuple(int(x) for x in images.split())
        if len(perm) != int(degree) or int(degree) != int(n):
            raise ValueError("bad permutation line")
        amps[(int(control), perm)] = complex(float(re), float(im))
    if lines[2 + int(count):] != [""]:
        raise ValueError("trailing text after the state block")
    return mode, int(m), amps


def advantage_halfwidth(trials: int) -> float:
    """Half-width t with P(|gap - expected gap| >= t) <= FALSE_FAILURE.

    The gap is the difference of two acceptance rates over `trials`
    independent 0/1 outcomes each; Hoeffding over the 2 * trials terms gives
    P >= t at most 2 exp(-trials t^2).
    """
    return math.sqrt(math.log(2.0 / FALSE_FAILURE) / trials)


def all_graphs(n: int) -> list[frozenset[tuple[int, int]]]:
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    return [
        frozenset(p for bit, p in enumerate(pairs) if mask >> bit & 1)
        for mask in range(2 ** len(pairs))
    ]


def _mapped(p: tuple[int, ...], edges) -> frozenset[tuple[int, int]]:
    return frozenset((min(p[u - 1], p[v - 1]), max(p[u - 1], p[v - 1])) for u, v in edges)


def brute_automorphisms(n: int, edges: frozenset[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Every automorphism, by scanning all of S_n (n <= 6 keeps this at 720)."""
    if n > 6:
        raise ValueError("brute force is for at most 6 nodes")
    return [p for p in itertools.permutations(range(1, n + 1)) if _mapped(p, edges) == edges]


def _connected(n: int, edges) -> bool:
    adj = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen, stack = {1}, [1]
    while stack:
        for w in adj[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == n


def first_yes_pair(n: int, edges: frozenset[tuple[int, int]]) -> int | None:
    """Position, in the reduction's scan order, of the first YES query, by brute force.

    The reduction scans (i, j) with i from n down to 1 and j from i + 1 to n
    on the graph, or on its complement when the graph is disconnected, and
    stops at the first pair that some automorphism swaps while fixing
    1..i-1. The position sets how many queries are made and how large they
    are, so it is the property the 5-node sample is stratified by. None means
    the graph is rigid and every pair is queried.
    """
    if n > 1 and not _connected(n, edges):
        edges = frozenset(itertools.combinations(range(1, n + 1), 2)) - edges
    auts = brute_automorphisms(n, edges)
    position = 0
    for i in range(n, 0, -1):
        for j in range(i + 1, n + 1):
            position += 1
            for p in auts:
                if p[i - 1] == j and p[j - 1] == i and all(p[x - 1] == x for x in range(1, i)):
                    return position
    return None


def nx_automorphisms(n: int, edges) -> list[dict[int, int]]:
    """Every automorphism of a larger graph, from networkx's VF2 matcher."""
    import networkx as nx
    from networkx.algorithms.isomorphism import GraphMatcher

    g = nx.Graph()
    g.add_nodes_from(range(1, n + 1))
    g.add_edges_from(edges)
    return list(GraphMatcher(g, g).isomorphisms_iter())


def has_nontrivial_automorphism(n: int, edges) -> bool:
    if n <= 6:
        return len(brute_automorphisms(n, frozenset(edges))) > 1
    return len(nx_automorphisms(n, edges)) > 1


def promise_answer(n: int, edges) -> int:
    """1 for a unique fixed-point-free involutive automorphism, 0 for a rigid graph."""
    auts = nx_automorphisms(n, edges)
    if len(auts) == 1:
        return 0
    others = [a for a in auts if any(a[v] != v for v in a)]
    if len(others) != 1:
        raise ValueError("instance is outside the promise")
    image = tuple(others[0][v] for v in range(1, n + 1))
    if not in_key_class(image, 2):
        raise ValueError("instance is outside the promise")
    return 1
