"""The three workloads: what one operation is, its inputs, and its checks.

A workload is built once per process (its set-up, timed as part of
``setup_s``) and then yields rounds. Every round holds the same operations in
the same order; only the random inputs change from round to round, and they
come from the run's seed alone. An operation is a callable into qscd; its
check compares the output with ``oracles``, which shares no code with qscd.

qscd functions are looked up on their modules at call time, so the traced
run sees the wrappers ``tracing.Tracer.install`` puts there.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import oracles

# Smallest number of samples beyond the tail percentile (see ``tail_quantile``).
TAIL_SAMPLES = 10
TAIL_LADDER = (0.999, 0.99, 0.9)


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


@dataclass
class Workload:
    name: str
    ops_per_round: int
    min_rounds: int
    round: Callable[[int], list[Op]]
    # Checks over the whole run, made after the timed loop.
    finish: Callable[[], list[str]] = field(default=lambda: [])

    def tail_quantile(self) -> float:
        """Highest ladder quantile with TAIL_SAMPLES beyond it in the shortest run.

        Fixed per workload rather than read from the sample count, so that a
        run that fits in one more round reports the same percentile.
        """
        shortest = self.ops_per_round * self.min_rounds
        for q in TAIL_LADDER:
            if shortest * (1 - q) >= TAIL_SAMPLES:
                return q
        raise ValueError(f"{self.name}: a run of {shortest} operations has no tail")


def min_rounds(size: str, ops_per_round: int, full: int) -> int:
    """Rounds a run makes at least: `full` at full size; at smoke size enough for a p90."""
    if size == "full":
        return full
    return math.ceil(TAIL_SAMPLES / (1 - TAIL_LADDER[-1]) / ops_per_round)


# --- protocol ---------------------------------------------------------------

# (kind, n, m, roundtrips per message value and round). A round has 6 ff
# roundtrips at about 0.4 ms, 6 at (6,3) at about 0.6 ms and 6 at (12,6) at
# about 2.5 ms, so the median falls in the middle of the (6,3) roundtrips and
# the tail among the (12,6) ones, rather than on the edge between two kinds.
PROTOCOL_CONFIGS = [("ff", 6, 2, 1), ("ff", 10, 2, 1), ("ff", 14, 2, 1), ("cyc", 6, 3, 2), ("cyc", 12, 6, 1)]


def protocol(qscd, seed: int, size: str) -> Workload:
    """Full encryption roundtrips over every message value of each parameter set."""
    pkc, seeding = qscd.pkc, qscd.seeding
    SecurityParam = qscd.permgroup.SecurityParam
    plan = []
    for kind, n, m, copies in PROTOCOL_CONFIGS:
        params = SecurityParam.ff(n) if kind == "ff" else SecurityParam.cyc(n, m)
        label = f"{kind}{n}" + ("" if kind == "ff" else f"m{m}")
        plan.extend((label, params, s) for s in range(m) for _ in range(copies))

    def roundtrip(params, message, stream):
        rng = seeding.derive_rng(seed, *stream)
        kp = pkc.keygen(params, rng)
        if params.kind == "ff":
            ct = pkc.encrypt_ff(message, pkc.issue_key_copy(kp, rng))
        else:
            ct = pkc.encrypt_cyc(message, pkc.issue_key_series(kp, rng))
        text = pkc.format_ciphertext(ct)
        back = pkc.parse_ciphertext(text)
        return kp.secret.image, ct, text, back, pkc.decrypt(kp, back, rng)

    def check(params, message):
        def verify(out) -> str | None:
            key, ct, text, back, decrypted = out
            if decrypted != message:
                return f"decrypted {decrypted}, sent {message}"
            if not oracles.in_key_class(key, params.m):
                return "secret key is outside its key class"
            amps = {(r, p.image): a for (r, p), a in ct.state.amps.items()}
            if {r for r, _ in amps} != {0} or ct.state.m != 1 or ct.m != params.m:
                return "ciphertext carries a control register or the wrong modulus"
            error = oracles.coset_state_error({p: a for (_, p), a in amps.items()}, key, params.m, message)
            if error:
                return error
            mode, m, parsed = oracles.parse_ciphertext_text(text)
            if mode != params.kind.upper() or m != params.m or parsed != amps:
                return "ciphertext text does not hold the ciphertext exactly"
            if {(r, p.image): a for (r, p), a in back.state.amps.items()} != amps:
                return "parsed ciphertext differs from the one written"
            if (back.mode, back.m) != (ct.mode, ct.m):
                return "parsed ciphertext has another mode"
            return None

        return verify

    def make_round(r: int) -> list[Op]:
        return [
            Op(kind, lambda p=params, s=s, i=i: roundtrip(p, s, (0, r, i)), check(params, s))
            for i, (kind, params, s) in enumerate(plan)
        ]

    return Workload("protocol", len(plan), min_rounds(size, len(plan), 56), make_round)


# --- trials -----------------------------------------------------------------

# Two rigid, mutually non-isomorphic 7-node graphs: a triangle with tails of
# lengths 1 and 3, and the spider with legs 1, 2, 3. Two copies of the first
# carry exactly the copy swap; one copy of each is rigid.
RIGID7A = frozenset({(1, 2), (1, 3), (2, 3), (1, 4), (2, 5), (5, 6), (6, 7)})
RIGID7B = frozenset({(1, 2), (1, 3), (3, 4), (1, 5), (5, 6), (6, 7)})


def _union(a, b, shift=7):
    return a | frozenset((u + shift, v + shift) for u, v in b)


@dataclass
class TrialKind:
    name: str
    expected: float  # acceptance gap the method must give, or the attack's answer
    trials: int = 0  # per side; 0 marks an attack call
    acc_gap: int = 0  # summed over the run, for the pooled check
    total: int = 0


def trials(qscd, seed: int, size: str, tracer) -> Workload:
    """Fixed-size calls of the trial loops in reductions."""
    reductions, graphauto, seeding = qscd.reductions, qscd.graphauto, qscd.seeding
    Permutation = qscd.permgroup.Permutation
    smoke = size == "smoke"
    t = 40 if smoke else 200
    yes_edges, no_edges = _union(RIGID7A, RIGID7A), _union(RIGID7A, RIGID7B)
    yes_graph = graphauto.Graph(14, yes_edges)
    no_graph = graphauto.Graph(14, no_edges)
    swap = Permutation(tuple(range(8, 15)) + tuple(range(1, 8)))
    # 128 tuples a side with threshold 64: a NO instance reaches the
    # threshold with probability at most 2 exp(-64^2 / 128) < 3e-14
    # (Hoeffding), a YES instance with the omniscient distinguisher always.
    attack = reductions.AttackParams(k=1, p=1, tuples_per_side=128, threshold=64)
    kinds = {
        k.name: k
        for k in [
            TrialKind("omniscient-ff6", 1.0, t),
            TrialKind("omniscient-ff10-k3", 1.0, t),
            TrialKind("hybrid-ff6-iota", 0.5, t),
            TrialKind("basis-ff6", 0.0, t),
            TrialKind("basis-cyc6m3", 0.0, t),
            TrialKind("attack-yes", 1),
            TrialKind("attack-no", 0),
        ]
    }

    def estimate(dist, a, b, stream):
        return reductions.estimate_advantage(tracer().distinguisher(dist), a, b, t, seeding.derive_rng(seed, *stream))

    def run_attack(graph, planted, stream):
        inst = graphauto.PromiseInstance(graph, certified=planted)
        dist = tracer().distinguisher(reductions.omniscient_distinguisher(swap))
        return reductions.ga_attack(inst, dist, attack, seeding.derive_rng(seed, *stream))

    def check(kind: TrialKind):
        def verify(out) -> str | None:
            kind.total += 1
            if not kind.trials:
                return None if out == kind.expected else f"attack answered {out}"
            if (out.trials0, out.trials1) != (kind.trials, kind.trials):
                return "report has the wrong trial counts"
            kind.acc_gap += out.acc0 - out.acc1
            gap = (out.acc0 - out.acc1) / kind.trials
            bound = oracles.advantage_halfwidth(kind.trials)
            if abs(gap - kind.expected) > bound:
                return f"gap {gap:.4f} is more than {bound:.4f} from {kind.expected}"
            return None

        return verify

    def make_round(r: int) -> list[Op]:
        rng = np.random.default_rng([seed, 1, r])
        pi6 = Permutation(oracles.random_key(6, 2, rng))
        pi10 = Permutation(oracles.random_key(10, 2, rng))
        pi3 = Permutation(oracles.random_key(6, 3, rng))
        omni, hybrid, basis = (
            reductions.omniscient_distinguisher,
            reductions.hybrid_to_iota,
            reductions.basis_measure_distinguisher,
        )
        runs = {
            "omniscient-ff6": lambda: estimate(
                omni(pi6), reductions.plus_source(pi6), reductions.minus_source(pi6), (1, r, 0)),
            "omniscient-ff10-k3": lambda: estimate(
                omni(pi10), reductions.plus_source(pi10, 3), reductions.minus_source(pi10, 3), (1, r, 1)),
            "hybrid-ff6-iota": lambda: estimate(
                hybrid(omni(pi6)), reductions.plus_source(pi6), reductions.iota_source(6), (1, r, 2)),
            "basis-ff6": lambda: estimate(
                basis(), reductions.plus_source(pi6), reductions.minus_source(pi6), (1, r, 3)),
            "basis-cyc6m3": lambda: estimate(
                basis(), reductions.cyc_source(pi3, 0, 3), reductions.cyc_source(pi3, 1, 3), (1, r, 4)),
            "attack-yes": lambda: run_attack(yes_graph, swap, (1, r, 5)),
            "attack-no": lambda: run_attack(no_graph, None, (1, r, 6)),
        }
        return [Op(name, runs[name], check(kind)) for name, kind in kinds.items()]

    def finish() -> list[str]:
        errors = []
        for kind in kinds.values():
            if kind.trials and kind.total:
                gap = kind.acc_gap / (kind.trials * kind.total)
                bound = oracles.advantage_halfwidth(kind.trials * kind.total)
                if abs(gap - kind.expected) > bound:
                    errors.append(f"{kind.name}: pooled gap {gap:.4f} is more than {bound:.4f} from {kind.expected}")
        # The planted answers themselves, from networkx rather than qscd.
        if oracles.promise_answer(14, yes_edges) != 1 or oracles.promise_answer(14, no_edges) != 0:
            errors.append("planted instances are not the YES and NO instances they claim to be")
        if tuple(swap.image) not in {tuple(a[v] for v in range(1, 15)) for a in oracles.nx_automorphisms(14, yes_edges)}:
            errors.append("planted swap is not an automorphism")
        return errors

    return Workload("trials", len(kinds), min_rounds(size, len(kinds), 15), make_round, finish)


# --- reduction --------------------------------------------------------------

# Indices into oracles.all_graphs(5) by the position of the first YES query
# in the reduction's scan: one graph at position 1 (the slow ones: the first
# query already has 170 nodes and answers YES), two at 2 and 3, three at 4 to
# 10. Drawn once, in this order, from a shuffle of all 1024 graphs with
# numpy's default_rng([20260810, 2]) (20260810 is the acceptance suite's
# seed), and fixed here rather than drawn from the run's seed: within one
# stratum the cost of a graph still ranges over a factor of two, and a
# sample that changed with the run's seed made the run's throughput change
# with it. The run's seed orders the rounds. Every run checks the positions
# again after its timed loop (``reduction``'s ``finish``).
FIVE_NODE_SAMPLE = {
    1: (993,), 2: (944, 240), 3: (731, 336), 4: (812, 539, 491), 5: (799, 864, 453),
    6: (829, 287, 671), 7: (964, 858, 106), 8: (215, 808, 705), 9: (312, 38, 227), 10: (790, 100, 779),
}
SMOKE_FIVE_NODE = {4: 1, 7: 1}
PATHS = (8, 10, 13)


def reduction_corpus(size: str) -> list[tuple[str, int, frozenset]]:
    """(label, node count, edges) for every graph the round decides.

    Every labelled graph on 1 to 4 nodes; the 5-node sample
    (FIVE_NODE_SAMPLE); and paths, whose queries have 398 to 962 nodes. The
    14-node path is left out: its first query overflows the recursive search
    (see CHANGES.md).
    """
    corpus = []
    for n in range(1, 4 if size == "smoke" else 5):
        corpus.extend((f"all{n}-{i}", n, e) for i, e in enumerate(oracles.all_graphs(n)))
    five = oracles.all_graphs(5)
    for pos, indices in FIVE_NODE_SAMPLE.items():
        if size == "smoke":
            indices = indices[:SMOKE_FIVE_NODE.get(pos, 0)]
        corpus.extend((f"five-{idx}-first-yes-{pos}", 5, five[idx]) for idx in indices)
    for n in PATHS[:1] if size == "smoke" else PATHS:
        corpus.append((f"path{n}", n, frozenset((i, i + 1) for i in range(1, n))))
    return corpus


def reduction(qscd, seed: int, size: str) -> Workload:
    """koebler_reduce with the promise oracle on every graph of the corpus."""
    graphauto = qscd.graphauto
    corpus = reduction_corpus(size)
    graphs = [graphauto.Graph(n, edges) for _, n, edges in corpus]
    answers: dict[int, set[int]] = {}

    # Worked out on first use, after set-up, so that setup_s covers qscd alone.
    @functools.cache
    def truth(idx: int) -> int:
        _, n, edges = corpus[idx]
        return int(oracles.has_nontrivial_automorphism(n, edges))

    def check(idx: int):
        def verify(out) -> str | None:
            answers.setdefault(idx, set()).add(out)
            if corpus[idx][1] <= 6 and out != truth(idx):
                return f"{corpus[idx][0]}: answered {out}"
            return None

        return verify

    def make_round(r: int) -> list[Op]:
        # A fresh order each round spreads every kind of graph over the whole
        # run, so that no percentile rests on one stretch of machine speed.
        order = np.random.default_rng([seed, 3, r]).permutation(len(corpus))
        return [
            Op(corpus[i][0], lambda g=graphs[i]: graphauto.koebler_reduce(g, oracle=graphauto.unique_ga_ff_oracle),
               check(int(i)))
            for i in order
        ]

    def finish() -> list[str]:
        # Graphs above 6 nodes are checked here, after the timed loop, so
        # that networkx's import does not count in the run's memory peak.
        errors = []
        for idx, got in answers.items():
            label, n, _ = corpus[idx]
            if n > 6 and got != {truth(idx)}:
                errors.append(f"{label}: answered {sorted(got)}")
        five = oracles.all_graphs(5)
        for pos, indices in FIVE_NODE_SAMPLE.items():
            for idx in indices:
                got = oracles.first_yes_pair(5, five[idx])
                if got != pos:
                    errors.append(f"5-node graph {idx} has its first YES query at {got}, not {pos}")
        return errors

    return Workload("reduction", len(corpus), min_rounds(size, len(corpus), 1), make_round, finish)


def build(name: str, qscd, seed: int, size: str, tracer) -> Workload:
    if name == "protocol":
        return protocol(qscd, seed, size)
    if name == "trials":
        return trials(qscd, seed, size, tracer)
    if name == "reduction":
        return reduction(qscd, seed, size)
    raise ValueError(f"unknown workload {name!r}")
