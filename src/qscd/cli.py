"""Command-line front end.

Every randomized subcommand requires --seed, and identical (argv, seed)
produce byte-identical output. Exit codes: 0 success, 2 usage error,
3 promise violation, 4 tolerance or roundtrip failure, 5 internal error
(any other exception inside a command, such as MemoryError), reported as
one ``internal-error: <Type>: <message>`` line.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .graphauto import (
    PromiseInstance,
    PromiseViolation,
    group_order,
    koebler_reduce,
    parse_graph,
    unique_ga_ff_oracle,
)
from .permgroup import (
    FF,
    Permutation,
    SecurityParam,
    format_permutation,
    sample_cyclic,
    sample_fpf_involution,
)
from .pkc import (
    decrypt,
    encrypt_cyc,
    encrypt_ff,
    format_ciphertext,
    format_key,
    issue_key_copy,
    issue_key_series,
    keygen,
    parse_ciphertext,
    parse_key,
)
from .reductions import (
    AttackParams,
    basis_measure_distinguisher,
    coin_distinguisher,
    cyc_source,
    estimate_advantage,
    ga_attack,
    iota_source,
    minus_source,
    omniscient_distinguisher,
    plus_source,
)
from .seeding import derive_rng
from .selftest import run_selftest

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PROMISE = 3
EXIT_TOLERANCE = 4
EXIT_INTERNAL = 5


def _params_from_args(args) -> SecurityParam:
    if args.mode == "ff":
        if args.m is not None:
            raise ValueError("--m applies only to --mode cyc")
        return SecurityParam.ff(args.n)
    return SecurityParam.cyc(args.n, 2 if args.m is None else args.m)


def cmd_keygen(args) -> int:
    params = _params_from_args(args)
    kp = keygen(params, derive_rng(args.seed))
    Path(args.out).write_text(format_key(kp))
    extra = f" m={params.m}" if args.mode == "cyc" else ""
    print(f"mode={args.mode} n={args.n}{extra} seed={args.seed}")
    print(f"secret={format_permutation(kp.secret)}")
    print(f"written={args.out}")
    return EXIT_OK


def cmd_encrypt(args) -> int:
    kp = parse_key(Path(args.key).read_text())
    rng = derive_rng(args.seed)
    if kp.params.kind == FF:
        ct = encrypt_ff(args.message, issue_key_copy(kp, rng))
    else:
        ct = encrypt_cyc(args.message, issue_key_series(kp, rng))
    Path(args.out).write_text(format_ciphertext(ct))
    print(f"mode={kp.params.kind} message={args.message} seed={args.seed}")
    print(f"support={len(ct.state.amps)}")
    print(f"written={args.out}")
    return EXIT_OK


def cmd_decrypt(args) -> int:
    kp = parse_key(Path(args.key).read_text())
    ct = parse_ciphertext(Path(args.ciphertext).read_text())
    value = decrypt(kp, ct, derive_rng(args.seed))
    print(f"mode={kp.params.kind} seed={args.seed}")
    print(f"decrypted={value}")
    return EXIT_OK


def cmd_demo(args) -> int:
    params = _params_from_args(args)
    rng = derive_rng(args.seed)
    extra = f" m={params.m}" if args.mode == "cyc" else ""
    print(f"mode={args.mode} n={args.n}{extra} seed={args.seed}")
    kp = keygen(params, rng)
    print(f"step=keygen secret={format_permutation(kp.secret)}")
    if params.kind == FF:
        message = int(rng.integers(2))
        copy = issue_key_copy(kp, rng)
        print(f"step=key-copy support={len(copy.state.amps)}")
        ct = encrypt_ff(message, copy)
    else:
        message = int(rng.integers(params.m))
        series = issue_key_series(kp, rng)
        print(f"step=key-series count={len(series)}")
        ct = encrypt_cyc(message, series)
    print(f"step=encrypt message={message} support={len(ct.state.amps)}")
    value = decrypt(kp, ct, rng)
    print(f"step=decrypt value={value}")
    if value == message:
        print("decrypted=original")
        return EXIT_OK
    print("decrypted=mismatch")
    return EXIT_TOLERANCE


def cmd_ga(args) -> int:
    g = parse_graph(Path(args.graph).read_text())
    order = group_order(g, node_limit=args.limit)
    print(f"nodes={g.node_count} edges={len(g.edges)} automorphisms={order}")
    print("YES" if order > 1 else "NO")
    return EXIT_OK


def cmd_reduce_ga(args) -> int:
    g = parse_graph(Path(args.graph).read_text())
    count = 0

    def logging_oracle(query):
        nonlocal count
        count += 1
        answer = unique_ga_ff_oracle(query, node_limit=args.limit)
        print(f"query index={count} nodes={query.node_count} answer={'YES' if answer else 'NO'}")
        return answer

    result = koebler_reduce(g, oracle=logging_oracle)
    print(f"queries={count}")
    print("YES" if result else "NO")
    return EXIT_OK


def _named_distinguisher(name: str, secret: Permutation | None):
    if name == "coin":
        return coin_distinguisher()
    if name == "basis-measure":
        return basis_measure_distinguisher()
    if secret is None:
        raise ValueError("the omniscient distinguisher needs --key")
    return omniscient_distinguisher(secret)


def _read_secret(path: str | None) -> Permutation | None:
    return None if path is None else parse_key(Path(path).read_text()).secret


def cmd_attack(args) -> int:
    g = parse_graph(Path(args.graph).read_text())
    if args.key is not None and args.dist != "omniscient":
        raise ValueError(f"--key holds the omniscient trapdoor; --dist {args.dist} uses no key")
    planted = _read_secret(args.planted_key)
    inst = PromiseInstance(g, certified=planted)
    dist = _named_distinguisher(args.dist, _read_secret(args.key) or planted)
    params = AttackParams(
        k=args.k, p=args.p, tuples_per_side=args.tuples, threshold=args.threshold
    )
    rng = derive_rng(args.seed)
    result = ga_attack(inst, dist, params, rng, l_key_copies=args.l)
    n = g.node_count
    print(
        f"dist={args.dist} k={params.k} tuples={params.tuples_per_side} "
        f"threshold={params.threshold} seed={args.seed}"
    )
    print(
        f"nominal_p={params.p} formula_tuples={params.formula_tuples(n)} "
        f"formula_threshold={params.formula_threshold(n)}"
    )
    print("result=YES" if result else "result=NO")
    return EXIT_OK


def cmd_advantage(args) -> int:
    if args.k < 1:
        raise ValueError(f"--k must be at least 1, got {args.k}")
    rng = derive_rng(args.seed)
    secret = None
    if args.pair == "cyc":
        if args.dist == "omniscient":
            raise ValueError(
                "the omniscient distinguisher is the ff trapdoor test; it has no cyc form"
            )
        m = 3 if args.m is None else args.m
        s0 = 0 if args.s0 is None else args.s0
        s1 = 1 if args.s1 is None else args.s1
        if s0 == s1:
            raise ValueError(f"--s0 and --s1 are both {s0}; the cyc pair needs two symbols")
        if args.key is not None:
            raise ValueError("--key holds an ff key; the cyc pair samples its own cyclic key")
        pi = sample_cyclic(SecurityParam.cyc(args.n, m), rng)
        source_a = cyc_source(pi, s0, m, args.k)
        source_b = cyc_source(pi, s1, m, args.k)
    else:
        given = [f"--{name}" for name in ("m", "s0", "s1") if getattr(args, name) is not None]
        if given:
            raise ValueError(f"{', '.join(given)} apply only to --pair cyc")
        ff_params = SecurityParam.ff(args.n)
        if args.key is None:
            pi = sample_fpf_involution(ff_params, rng)
        else:
            kp = parse_key(Path(args.key).read_text())
            if kp.params != ff_params:
                raise ValueError(
                    f"--key holds a {kp.params.kind} key of degree {kp.params.n}, "
                    f"not an ff key of degree {args.n}"
                )
            pi = secret = kp.secret
        source_a = plus_source(pi, args.k)
        if args.pair == "plus-iota":
            source_b = iota_source(args.n, args.k)
        else:
            source_b = minus_source(pi, args.k)
    dist = _named_distinguisher(args.dist, secret)
    report = estimate_advantage(
        dist, source_a, source_b, args.trials, rng, confidence=args.confidence
    )
    params = f"dist={args.dist} pair={args.pair} n={args.n} k={args.k}"
    for line in report.report_lines(seed=args.seed, params=params):
        print(line)
    return EXIT_OK


def cmd_selftest(args) -> int:
    text, ok = run_selftest(args.seed)
    print(text, end="")
    return EXIT_OK if ok else EXIT_TOLERANCE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qscd",
        description="Exact desk-scale simulator for coset-state distinction "
        "problems over S_n and the public-key scheme built on them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=int, required=True, help="root seed; fixes all randomness")

    p = sub.add_parser("keygen", help="sample a key pair and write the key file")
    p.add_argument("--mode", choices=["ff", "cyc"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, help="cycle length for cyc mode (default 2)")
    p.add_argument("--out", required=True)
    add_seed(p)
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("encrypt", help="encrypt one bit (ff) or symbol (cyc)")
    p.add_argument("--key", required=True, help="key file from keygen")
    p.add_argument("--message", type=int, required=True)
    p.add_argument("--out", required=True)
    add_seed(p)
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt a ciphertext file")
    p.add_argument("--key", required=True)
    p.add_argument("--ciphertext", required=True)
    add_seed(p)
    p.set_defaults(func=cmd_decrypt)

    p = sub.add_parser("demo", help="full key-transmission and message-transmission transcript")
    p.add_argument("--mode", choices=["ff", "cyc"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, help="cycle length for cyc mode (default 2)")
    add_seed(p)
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("ga", help="automorphism count by orbit-stabilizer, and existence decision")
    p.add_argument("--graph", required=True, help="graph file: 'n m' then 'u v' lines")
    p.add_argument("--limit", type=int, default=40, help="node limit for the search")
    p.set_defaults(func=cmd_ga)

    p = sub.add_parser("reduce-ga", help="decide automorphism existence via promise queries")
    p.add_argument("--graph", required=True)
    p.add_argument("--limit", type=int, default=4000)
    p.set_defaults(func=cmd_reduce_ga)

    p = sub.add_parser("attack", help="distinguisher-driven attack pipeline on an instance")
    p.add_argument("--graph", required=True)
    p.add_argument("--dist", choices=["omniscient", "coin", "basis-measure"], required=True)
    p.add_argument("--key", help="key file holding the omniscient trapdoor")
    p.add_argument("--planted-key", help="key file: a planted automorphism, checked by the search")
    p.add_argument("--k", type=int, default=1, help="samples per tuple")
    p.add_argument("--tuples", type=int, default=32, help="tuples per side")
    p.add_argument("--threshold", type=int, default=16, help="acceptance-count gap for YES")
    p.add_argument("--p", type=int, default=1, help="nominal polynomial value for the report")
    p.add_argument("--l", type=int, default=0, help="intercepted-message shape: key copies per tuple")
    add_seed(p)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("advantage", help="estimate a distinguisher's acceptance gap")
    p.add_argument("--dist", choices=["omniscient", "coin", "basis-measure"], required=True)
    p.add_argument("--pair", choices=["ff", "plus-iota", "cyc"], default="ff")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, help="cycle length for the cyc pair (default 3)")
    p.add_argument("--s0", type=int, help="first symbol of the cyc pair (default 0)")
    p.add_argument("--s1", type=int, help="second symbol of the cyc pair (default 1)")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--confidence", type=float, default=0.01)
    p.add_argument("--key", help="key file: the hidden ff key, and the omniscient trapdoor")
    add_seed(p)
    p.set_defaults(func=cmd_advantage)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    add_seed(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except PromiseViolation as exc:
        print(f"promise-violation: {exc}")
        return EXIT_PROMISE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}")
        return EXIT_USAGE
    except Exception as exc:  # a fault of the program, not of its input
        print(f"internal-error: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
