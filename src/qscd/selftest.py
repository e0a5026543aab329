"""The acceptance suite as a deterministic, seedable self-test.

Each criterion draws its randomness from a documented stream of the root
seed (stream index = criterion number), so two runs with the same seed
produce byte-identical reports. Nothing time-dependent is printed.
"""

from __future__ import annotations

import itertools
import math

from .graphauto import (
    Graph,
    PromiseInstance,
    PromiseViolation,
    _hang_label,
    build_query,
    disjoint_union,
    koebler_reduce,
)
from .permgroup import (
    Permutation,
    SecurityParam,
    compose,
    conjugate,
    cyclic_class,
    random_permutation,
    sample_cyclic,
    sample_fpf_involution,
)
from .pkc import decrypt, encrypt_cyc, encrypt_ff, issue_key_copy, issue_key_series, keygen
from .qscdcyc import decode_cyc, decode_distribution, gen_cyc
from .qscdff import distinguish
from .qstate import SparseState, states_equal
from .reductions import (
    AttackParams,
    basis_measure_distinguisher,
    cyc_source,
    estimate_advantage,
    ga_attack,
    hybrid_to_iota,
    iota_source,
    minus_source,
    omniscient_distinguisher,
    plus_source,
)
from .seeding import derive_rng

TOL = 1e-12

# Frozen planted instances: a rigid 6-node witness (triangle with pendant
# tails of lengths 1 and 2), and two rigid, mutually non-isomorphic 7-node
# graphs (triangle with tails 1 and 3; the spider tree with legs 1, 2, 3).
RIGID6 = Graph(6, frozenset({(1, 2), (1, 3), (2, 3), (1, 4), (2, 5), (5, 6)}))
RIGID7A = Graph(7, frozenset({(1, 2), (1, 3), (2, 3), (1, 4), (2, 5), (5, 6), (6, 7)}))
RIGID7B = Graph(7, frozenset({(1, 2), (1, 3), (3, 4), (1, 5), (5, 6), (6, 7)}))


def planted_yes_instance() -> PromiseInstance:
    """Two copies of a rigid 7-node graph with the copy swap planted."""
    graph = disjoint_union(RIGID7A, RIGID7A)
    swap = Permutation(tuple(range(8, 15)) + tuple(range(1, 8)))
    return PromiseInstance(graph, certified=swap)


def planted_no_instance() -> PromiseInstance:
    """The disjoint union of two non-isomorphic rigid 7-node graphs: rigid."""
    return PromiseInstance(disjoint_union(RIGID7A, RIGID7B))


def path_graph(n: int) -> Graph:
    return Graph(n, frozenset((i, i + 1) for i in range(1, n)))


def _all_graphs(n: int):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for mask in range(2 ** len(pairs)):
        yield Graph(n, frozenset(p for b, p in enumerate(pairs) if mask >> b & 1))


def _has_nontrivial_automorphism(g: Graph) -> bool:
    # Independent ground truth: scan all of S_n.
    edges = g.edges
    for images in itertools.permutations(range(1, g.node_count + 1)):
        sigma = Permutation(images)
        if all(sigma(i) == i for i in range(1, g.node_count + 1)):
            continue
        if all((min(sigma(u), sigma(v)), max(sigma(u), sigma(v))) in edges for u, v in edges):
            return True
    return False


def criterion_trapdoor(seed: int) -> tuple[bool, str]:
    """1000 random single-bit roundtrips at n in {2, 6, 10}: exact decryption."""
    errors = 0
    worst = 0.0
    for idx, n in enumerate([2, 6, 10]):
        rng = derive_rng(seed, 1, idx)
        params = SecurityParam.ff(n)
        for _ in range(1000):
            kp = keygen(params, rng)
            bit = int(rng.integers(2))
            ct = encrypt_ff(bit, issue_key_copy(kp, rng))
            probs = decode_distribution(ct.state, kp.secret)
            worst = max(worst, probs[1 - bit])
            if decrypt(kp, ct, rng) != bit:
                errors += 1
    ok = errors == 0 and worst < TOL
    return ok, f"roundtrips=3000 errors={errors} worst_wrong_branch={worst:.3e}"


def criterion_multibit(seed: int) -> tuple[bool, str]:
    """200 roundtrips per symbol at (n, m) in {(6,3), (8,4), (12,6)}."""
    errors = 0
    worst = 0.0
    total = 0
    for idx, (n, m) in enumerate([(6, 3), (8, 4), (12, 6)]):
        rng = derive_rng(seed, 2, idx)
        params = SecurityParam.cyc(n, m)
        for s in range(m):
            for _ in range(200):
                kp = keygen(params, rng)
                ct = encrypt_cyc(s, issue_key_series(kp, rng))
                probs = decode_distribution(ct.state, kp.secret)
                worst = max(worst, 1.0 - probs[s])
                if decrypt(kp, ct, rng) != s:
                    errors += 1
                total += 1
    ok = errors == 0 and worst < TOL
    return ok, f"roundtrips={total} errors={errors} worst_wrong_outcome={worst:.3e}"


def criterion_coincidence(seed: int) -> tuple[bool, str]:
    """At m = 2 the cyclic draws are the plus/minus states and pass the trapdoor test."""
    rng = derive_rng(seed, 3)
    params = SecurityParam.ff(6)
    agree = 0
    for _ in range(1000):
        pi = sample_fpf_involution(params, rng)
        s = int(rng.integers(2))
        state = gen_cyc(pi, s, 2, rng)
        # (|sigma> + (-1)^s |sigma pi>) / sqrt(2), from either support point.
        sigma = next(iter(state.amps))[1]
        amp = 1 / math.sqrt(2)
        two_point = SparseState(6, 1, {(0, sigma): amp, (0, compose(sigma, pi)): (-1) ** s * amp})
        is_two_point = states_equal(state, two_point, up_to_global_phase=True)
        decoded = decode_cyc(state, pi, rng)
        via_ff = 0 if distinguish(state, pi, rng) == 1 else 1
        if is_two_point and decoded == via_ff == s:
            agree += 1
    return agree == 1000, f"agree={agree}/1000"


def criterion_conjugation(seed: int) -> tuple[bool, str]:
    """Conjugation by uniform tau is exactly uniform over K_6."""
    # Imported here: scipy.stats dominates the import time of the package.
    from scipy import stats

    rng = derive_rng(seed, 4)
    k6 = cyclic_class(6, 2)
    pi0 = k6[0]
    counts = {p.image: 0 for p in k6}
    for images in itertools.permutations(range(1, 7)):
        counts[conjugate(pi0, Permutation(images)).image] += 1
    exhaustive_ok = sorted(counts.values()) == [48] * 15
    observed = {p.image: 0 for p in k6}
    for _ in range(15000):
        observed[conjugate(pi0, random_permutation(6, rng)).image] += 1
    pvalue = float(stats.chisquare(list(observed.values())).pvalue)
    ok = exhaustive_ok and pvalue > 0.001
    return ok, f"exhaustive_48x15={'yes' if exhaustive_ok else 'no'} chisq_p={pvalue:.6f}"


def criterion_koebler(seed: int) -> tuple[bool, str]:
    """Reduction output matches brute-force ground truth, promise never violated."""
    rng = derive_rng(seed, 5)
    graphs = []
    for n in range(1, 5):
        graphs.extend(_all_graphs(n))
    for _ in range(100):
        edges = {
            (u, v)
            for u, v in itertools.combinations(range(1, 6), 2)
            if rng.integers(2)
        }
        graphs.append(Graph(5, frozenset(edges)))
    mismatches = 0
    violations = 0
    for g in graphs:
        truth = 1 if _has_nontrivial_automorphism(g) else 0
        try:
            got = koebler_reduce(g)
        except PromiseViolation:
            violations += 1
            continue
        if got != truth:
            mismatches += 1
    ok = mismatches == 0 and violations == 0
    return ok, f"graphs={len(graphs)} mismatches={mismatches} promise_violations={violations}"


def criterion_labels(seed: int) -> tuple[bool, str]:
    """Gadget sizes and query node sets, counted from the built edges."""
    bad_sizes = 0
    for n in range(1, 7):
        for j in range(1, 7):
            edges = set(path_graph(n).edges)
            _hang_label(edges, 1, n, n, j)
            nodes = {v for e in edges for v in e}
            if not len(edges) - (n - 1) == len(nodes) - n == 2 * n + j + 3:
                bad_sizes += 1
    bad_counts = 0
    queries = 0
    for n in range(2, 7):
        g = path_graph(n)
        for i in range(n, 0, -1):
            for j in range(i + 1, n + 1):
                q = build_query(g, list(range(1, i)), i, j)
                queries += 1
                ends = {v for e in q.edges for v in e}
                if ends != set(range(1, q.node_count + 1)) or q.node_count % 4 != 2:
                    bad_counts += 1
    ok = bad_sizes == 0 and bad_counts == 0
    return ok, f"size_mismatches={bad_sizes} queries={queries} off_count={bad_counts}"


def criterion_attack(seed: int) -> tuple[bool, str]:
    """Planted YES accepted and planted NO rejected, 20/20 each."""
    rng = derive_rng(seed, 7)
    params = AttackParams(k=1, p=1, tuples_per_side=32, threshold=16)
    yes_inst = planted_yes_instance()
    dist = omniscient_distinguisher(yes_inst.hidden_key())
    yes_hits = sum(ga_attack(yes_inst, dist, params, rng) for _ in range(20))
    no_inst = planted_no_instance()
    no_hits = sum(ga_attack(no_inst, dist, params, rng) for _ in range(20))
    ok = yes_hits == 20 and no_hits == 0
    return ok, f"yes_accepted={yes_hits}/20 no_accepted={no_hits}/20"


def criterion_hybrid(seed: int) -> tuple[bool, str]:
    """The plus-vs-iota hybrid keeps at least a quarter of a unit advantage."""
    rng = derive_rng(seed, 8)
    pi = sample_fpf_involution(SecurityParam.ff(6), rng)
    dist = omniscient_distinguisher(pi)
    eps = estimate_advantage(dist, plus_source(pi), minus_source(pi), 1000, rng).advantage
    report = estimate_advantage(hybrid_to_iota(dist), plus_source(pi), iota_source(6), 4000, rng)
    bound = 0.25 - 2 * report.ci_halfwidth
    ok = eps == 1.0 and report.advantage >= bound
    return ok, (
        f"eps={eps:.6f} hybrid_advantage={report.advantage:.6f} "
        f"bound={bound:.6f} ci={report.ci_halfwidth:.6f}"
    )


def criterion_blindness(seed: int) -> tuple[bool, str]:
    """Basis measurement sees nothing: advantage within the interval of zero."""
    rng = derive_rng(seed, 9)
    dist = basis_measure_distinguisher()
    pi = sample_fpf_involution(SecurityParam.ff(6), rng)
    ff_report = estimate_advantage(dist, plus_source(pi), minus_source(pi), 4000, rng)
    pi3 = sample_cyclic(SecurityParam.cyc(6, 3), rng)
    cyc_report = estimate_advantage(dist, cyc_source(pi3, 0, 3), cyc_source(pi3, 1, 3), 4000, rng)
    ok = (
        ff_report.advantage <= ff_report.ci_halfwidth
        and cyc_report.advantage <= cyc_report.ci_halfwidth
    )
    return ok, (
        f"ff_advantage={ff_report.advantage:.6f} cyc_advantage={cyc_report.advantage:.6f} "
        f"ci={ff_report.ci_halfwidth:.6f}"
    )


CRITERIA = [
    (1, "trapdoor-determinism", criterion_trapdoor),
    (2, "multibit-correctness", criterion_multibit),
    (3, "ff-cyc-coincidence", criterion_coincidence),
    (4, "worst-to-average-uniformity", criterion_conjugation),
    (5, "reduction-equivalence", criterion_koebler),
    (6, "label-arithmetic", criterion_labels),
    (7, "attack-pipeline", criterion_attack),
    (8, "hybrid-bound", criterion_hybrid),
    (9, "blindness", criterion_blindness),
]


def run_selftest(seed: int) -> tuple[str, bool]:
    """Run every criterion; returns (report text, all passed)."""
    lines = [f"selftest seed={seed}"]
    all_ok = True
    for number, name, fn in CRITERIA:
        ok, detail = fn(seed)
        all_ok = all_ok and ok
        lines.append(f"criterion={number} name={name} pass={'yes' if ok else 'no'} {detail}")
    lines.append(f"selftest result={'pass' if all_ok else 'fail'}")
    return "\n".join(lines) + "\n", all_ok
