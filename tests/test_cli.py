import contextlib
import io
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qscd import cli
from qscd.cli import run
from qscd.graphauto import Graph
from qscd.pkc import KeyPair, format_key
from qscd.permgroup import MAX_DEGREE, MAX_POINTS, SecurityParam
from qscd.selftest import RIGID7A, RIGID7B, planted_yes_instance
from qscd.graphauto import disjoint_union

from oracles import RIGID6, format_graph


def run_cli(capsys, *argv):
    code = run(list(argv))
    return code, capsys.readouterr().out


def write_graph(path: Path, g: Graph) -> str:
    path.write_text(format_graph(g))
    return str(path)


class TestKeyFlow:
    def test_ff_keygen_encrypt_decrypt(self, tmp_path, capsys):
        key = tmp_path / "key.txt"
        ct = tmp_path / "ct.txt"
        code, out = run_cli(
            capsys, "keygen", "--mode", "ff", "--n", "6", "--seed", "1", "--out", str(key)
        )
        assert code == 0 and f"written={key}" in out
        code, out = run_cli(
            capsys, "encrypt", "--key", str(key), "--message", "1", "--seed", "2",
            "--out", str(ct),
        )
        assert code == 0 and "support=2" in out
        code, out = run_cli(
            capsys, "decrypt", "--key", str(key), "--ciphertext", str(ct), "--seed", "3"
        )
        assert code == 0 and "decrypted=1" in out

    def test_cyc_keygen_encrypt_decrypt(self, tmp_path, capsys):
        key = tmp_path / "key.txt"
        ct = tmp_path / "ct.txt"
        code, _ = run_cli(
            capsys, "keygen", "--mode", "cyc", "--n", "6", "--m", "3", "--seed", "4",
            "--out", str(key),
        )
        assert code == 0
        code, out = run_cli(
            capsys, "encrypt", "--key", str(key), "--message", "2", "--seed", "5",
            "--out", str(ct),
        )
        assert code == 0 and "support=3" in out
        code, out = run_cli(
            capsys, "decrypt", "--key", str(key), "--ciphertext", str(ct), "--seed", "6"
        )
        assert code == 0 and "decrypted=2" in out

    def test_malformed_ciphertexts_exit_2(self, tmp_path, capsys):
        key = tmp_path / "key.txt"
        ct = tmp_path / "ct.txt"
        run_cli(capsys, "keygen", "--mode", "ff", "--n", "6", "--seed", "1", "--out", str(key))
        run_cli(
            capsys, "encrypt", "--key", str(key), "--message", "1", "--seed", "2",
            "--out", str(ct),
        )
        head, state_header, *entries = ct.read_text().splitlines()
        extra_entries = {
            "nan": "0 nan 0 6: 1 2 3 4 5 6",
            # finite, but too large to square or too large for abs()
            "huge": "0 1e200 0 6: 1 2 3 4 5 6",
            "huger": "0 1.7e308 1.7e308 6: 1 2 3 4 5 6",
        }
        bad = {"empty": f"{head}\n"} | {
            name: "\n".join([head, state_header.replace(" 2", " 3"), *entries, entry]) + "\n"
            for name, entry in extra_entries.items()
        }
        for name, text in bad.items():
            path = tmp_path / f"{name}.txt"
            path.write_text(text)
            code, out = run_cli(
                capsys, "decrypt", "--key", str(key), "--ciphertext", str(path), "--seed", "3"
            )
            assert code == 2 and out.startswith("error:"), (name, out)
            assert len(out.splitlines()) == 1, (name, out)

    def test_blank_lines_before_the_ciphertext_header(self, tmp_path, capsys):
        key = tmp_path / "key.txt"
        ct = tmp_path / "ct.txt"
        run_cli(capsys, "keygen", "--mode", "ff", "--n", "6", "--seed", "1", "--out", str(key))
        run_cli(
            capsys, "encrypt", "--key", str(key), "--message", "1", "--seed", "2",
            "--out", str(ct),
        )
        decrypt = ["decrypt", "--key", str(key), "--ciphertext", str(ct), "--seed", "3"]
        _, plain = run_cli(capsys, *decrypt)
        ct.write_text("\n \n" + ct.read_text())
        assert run_cli(capsys, *decrypt) == (0, plain)
        assert plain.endswith("decrypted=1\n")


class TestDemo:
    def test_ff_transcript_ends_with_match(self, capsys):
        code, out = run_cli(capsys, "demo", "--mode", "ff", "--n", "6", "--seed", "7")
        assert code == 0
        assert out.strip().splitlines()[-1] == "decrypted=original"

    def test_cyc_transcript_ends_with_match(self, capsys):
        code, out = run_cli(
            capsys, "demo", "--mode", "cyc", "--n", "6", "--m", "3", "--seed", "8"
        )
        assert code == 0
        assert out.strip().splitlines()[-1] == "decrypted=original"

    def test_byte_identical_reruns(self, capsys):
        _, first = run_cli(capsys, "demo", "--mode", "ff", "--n", "6", "--seed", "9")
        _, second = run_cli(capsys, "demo", "--mode", "ff", "--n", "6", "--seed", "9")
        assert first == second
        _, third = run_cli(capsys, "demo", "--mode", "ff", "--n", "6", "--seed", "10")
        assert first != third


class TestGraphCommands:
    def test_ga_yes_and_no(self, tmp_path, capsys):
        k3 = write_graph(tmp_path / "k3.txt", Graph(3, frozenset({(1, 2), (1, 3), (2, 3)})))
        code, out = run_cli(capsys, "ga", "--graph", k3)
        assert code == 0 and out.strip().splitlines()[-1] == "YES"
        rigid = write_graph(tmp_path / "rigid.txt", RIGID6)
        code, out = run_cli(capsys, "ga", "--graph", rigid)
        assert code == 0 and out.strip().splitlines()[-1] == "NO"

    def test_ga_counts_edgeless_graphs_up_to_the_limit(self, tmp_path, capsys):
        # 10! and 40! elements, counted without listing them
        ten = write_graph(tmp_path / "empty10.txt", Graph(10, frozenset()))
        start = time.perf_counter()
        code, out = run_cli(capsys, "ga", "--graph", ten)
        assert time.perf_counter() - start < 1.0
        assert code == 0 and out == "nodes=10 edges=0 automorphisms=3628800\nYES\n"
        forty = write_graph(tmp_path / "empty40.txt", Graph(40, frozenset()))
        code, out = run_cli(capsys, "ga", "--graph", forty)
        assert code == 0
        assert out.splitlines()[0] == f"nodes=40 edges=0 automorphisms={math.factorial(40)}"
        complete = Graph(40, frozenset((u, v) for u in range(1, 41) for v in range(u + 1, 41)))
        code, out = run_cli(
            capsys, "ga", "--graph", write_graph(tmp_path / "complete40.txt", complete)
        )
        assert code == 0
        assert out.splitlines()[0] == f"nodes=40 edges=780 automorphisms={math.factorial(40)}"
        over = write_graph(tmp_path / "empty41.txt", Graph(41, frozenset()))
        code, out = run_cli(capsys, "ga", "--graph", over)
        assert code == 2 and out.startswith("error:")

    def test_reduce_ga_on_single_edge(self, tmp_path, capsys):
        k2 = write_graph(tmp_path / "k2.txt", Graph(2, frozenset({(1, 2)})))
        code, out = run_cli(capsys, "reduce-ga", "--graph", k2)
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[-1] == "YES"
        assert any(line.startswith("query index=1") for line in lines)

    def test_reduce_ga_rigid_is_no(self, tmp_path, capsys):
        rigid = write_graph(tmp_path / "rigid.txt", RIGID6)
        code, out = run_cli(capsys, "reduce-ga", "--graph", rigid)
        assert code == 0 and out.strip().splitlines()[-1] == "NO"

    def test_reduce_ga_on_fourteen_node_path(self, tmp_path, capsys):
        # the first query has 1106 nodes, more than a search that recursed
        # once per node could take
        path = Graph(14, frozenset((i, i + 1) for i in range(1, 14)))
        code, out = run_cli(capsys, "reduce-ga", "--graph", write_graph(tmp_path / "p14.txt", path))
        lines = out.strip().splitlines()
        assert code == 0 and lines[-1] == "YES"
        assert lines[0] == "query index=1 nodes=1106 answer=NO"

    def test_limit_counts_whole_graphs_not_kept_graphs(self, tmp_path, capsys):
        # The searches run on the graph with its pendant trees peeled, a few
        # nodes here, but --limit counts the nodes of the graph given to it.
        path = write_graph(tmp_path / "p14.txt", Graph(14, frozenset((i, i + 1) for i in range(1, 14))))
        code, out = run_cli(capsys, "reduce-ga", "--graph", path, "--limit", "1105")
        assert (code, out) == (2, "error: 1106 nodes exceeds the configured limit 1105\n")
        star = write_graph(tmp_path / "star.txt", Graph(13, frozenset((1, v) for v in range(2, 14))))
        code, out = run_cli(capsys, "ga", "--graph", star, "--limit", "12")
        assert (code, out) == (2, "error: 13 nodes exceeds the configured limit 12\n")
        code, out = run_cli(capsys, "ga", "--graph", star, "--limit", "13")
        assert (code, out) == (0, f"nodes=13 edges=12 automorphisms={math.factorial(12)}\nYES\n")

    def test_reduce_ga_refuses_an_oversized_graph_before_building(self, tmp_path, capsys):
        # complementing this edgeless graph alone would take gigabytes
        huge = tmp_path / "huge.txt"
        huge.write_text("1000000000 0\n")
        start = time.perf_counter()
        code, out = run_cli(capsys, "reduce-ga", "--graph", str(huge))
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "error: 5000000009000000006 nodes exceeds the configured limit 4000\n")


class TestAttack:
    def test_omniscient_accepts_planted_yes(self, tmp_path, capsys):
        inst = planted_yes_instance()
        graph = write_graph(tmp_path / "yes.txt", inst.graph)
        key = tmp_path / "planted.txt"
        key.write_text(format_key(KeyPair(inst.hidden_key(), SecurityParam.ff(14))))
        code, out = run_cli(
            capsys, "attack", "--graph", graph, "--dist", "omniscient",
            "--planted-key", str(key), "--seed", "11",
        )
        assert code == 0
        assert out.strip().splitlines()[-1] == "result=YES"
        assert "formula_tuples=112" in out

    def test_omniscient_rejects_rigid_union(self, tmp_path, capsys):
        graph = write_graph(tmp_path / "no.txt", disjoint_union(RIGID7A, RIGID7B))
        key = tmp_path / "trapdoor.txt"
        key.write_text(
            format_key(KeyPair(planted_yes_instance().hidden_key(), SecurityParam.ff(14)))
        )
        code, out = run_cli(
            capsys, "attack", "--graph", graph, "--dist", "omniscient",
            "--key", str(key), "--seed", "12",
        )
        assert code == 0
        assert out.strip().splitlines()[-1] == "result=NO"

    def test_promise_violation_exit_code(self, tmp_path, capsys):
        k3 = write_graph(tmp_path / "k3.txt", Graph(3, frozenset({(1, 2), (1, 3), (2, 3)})))
        code, out = run_cli(
            capsys, "attack", "--graph", k3, "--dist", "coin", "--seed", "13"
        )
        assert code == 3 and "promise-violation" in out

    def test_planted_key_is_checked_against_the_search(self, tmp_path, capsys):
        # the 6-cycle has 12 automorphisms, so no planted key makes it a YES
        c6 = write_graph(tmp_path / "c6.txt", Graph(6, frozenset((i, i % 6 + 1) for i in range(1, 7))))
        key = tmp_path / "rotation.txt"
        key.write_text("FF 6\n6: 4 5 6 1 2 3\n")
        code, out = run_cli(
            capsys, "attack", "--graph", c6, "--dist", "omniscient",
            "--planted-key", str(key), "--seed", "1",
        )
        assert code == 3
        assert len(out.splitlines()) == 1 and out.startswith("promise-violation:"), out

    def test_key_without_omniscient_is_usage_error(self, tmp_path, capsys):
        graph = write_graph(tmp_path / "yes.txt", planted_yes_instance().graph)
        key = tmp_path / "key.txt"
        key.write_text(format_key(KeyPair(planted_yes_instance().hidden_key(), SecurityParam.ff(14))))
        for path in (str(key), str(tmp_path / "missing.txt")):
            code, out = run_cli(
                capsys, "attack", "--graph", graph, "--dist", "coin", "--key", path, "--seed", "1"
            )
            assert code == 2
            assert len(out.splitlines()) == 1 and out.startswith("error: --key"), out

    def test_negative_key_copies_is_usage_error(self, tmp_path, capsys):
        graph = write_graph(tmp_path / "yes.txt", planted_yes_instance().graph)
        code, out = run_cli(
            capsys, "attack", "--graph", graph, "--dist", "coin", "--l", "-1", "--seed", "11"
        )
        assert code == 2 and out == "error: need l >= 0\n"

    def test_edgeless_graph_is_refused_at_once(self, tmp_path, capsys):
        # 10! and 14! automorphisms: the check stops at the third
        for n in (10, 14):
            graph = write_graph(tmp_path / f"empty{n}.txt", Graph(n, frozenset()))
            start = time.perf_counter()
            code, out = run_cli(capsys, "attack", "--graph", graph, "--dist", "coin", "--seed", "13")
            assert time.perf_counter() - start < 1.0
            assert code == 3 and out.startswith("promise-violation:")


class TestAdvantage:
    def test_basis_measure_reports_no_advantage(self, capsys):
        code, out = run_cli(
            capsys, "advantage", "--dist", "basis-measure", "--n", "6",
            "--trials", "800", "--seed", "14",
        )
        assert code == 0
        fields = dict(
            line.split("=", 1) for line in out.strip().splitlines() if "=" in line and " " not in line.split("=")[0]
        )
        assert float(fields["advantage"]) <= float(fields["ci"])
        assert fields["seed"] == "14"

    def test_plus_iota_pair_with_omniscient(self, tmp_path, capsys):
        key = tmp_path / "key.txt"
        run_cli(capsys, "keygen", "--mode", "ff", "--n", "6", "--seed", "15", "--out", str(key))
        code, out = run_cli(
            capsys, "advantage", "--dist", "omniscient", "--key", str(key),
            "--pair", "plus-iota", "--n", "6", "--trials", "400", "--seed", "15",
        )
        assert code == 0
        assert "summary " in out

    def test_cyc_pair(self, capsys):
        code, out = run_cli(
            capsys, "advantage", "--dist", "basis-measure", "--pair", "cyc",
            "--n", "6", "--m", "3", "--trials", "400", "--seed", "16",
        )
        assert code == 0

    def test_omniscient_uses_the_key_file(self, tmp_path, capsys):
        key = tmp_path / "key.txt"
        run_cli(capsys, "keygen", "--mode", "ff", "--n", "6", "--seed", "99", "--out", str(key))
        for seed in ("15", "16"):
            code, out = run_cli(
                capsys, "advantage", "--dist", "omniscient", "--key", str(key),
                "--n", "6", "--trials", "400", "--seed", seed,
            )
            assert code == 0 and "advantage=1.000000" in out.splitlines()
        code, out = run_cli(
            capsys, "advantage", "--dist", "omniscient", "--key", str(key),
            "--n", "10", "--trials", "10", "--seed", "15",
        )
        assert code == 2 and out.startswith("error:")

    def test_omniscient_refuses_cyc_pair(self, tmp_path, capsys):
        # the omniscient test is the ff trapdoor test; it has no cyclic form
        key = tmp_path / "key.txt"
        run_cli(capsys, "keygen", "--mode", "ff", "--n", "6", "--seed", "3", "--out", str(key))
        code, out = run_cli(
            capsys, "advantage", "--dist", "omniscient", "--key", str(key), "--pair", "cyc",
            "--n", "6", "--m", "3", "--trials", "200", "--seed", "3",
        )
        assert code == 2 and out.startswith("error:")

    def test_cyc_pair_refuses_a_key(self, tmp_path, capsys):
        key = tmp_path / "key.txt"
        run_cli(capsys, "keygen", "--mode", "ff", "--n", "6", "--seed", "3", "--out", str(key))
        for path in (str(key), str(tmp_path / "missing.txt")):
            code, out = run_cli(
                capsys, "advantage", "--dist", "coin", "--pair", "cyc", "--n", "6",
                "--trials", "20", "--seed", "1", "--key", path,
            )
            assert code == 2
            assert len(out.splitlines()) == 1 and out.startswith("error: --key"), out

    @pytest.mark.parametrize(
        "extra",
        [
            ["--k", "0"],
            ["--pair", "cyc", "--k", "-1"],
            ["--m", "3"],
            ["--pair", "plus-iota", "--s0", "2"],
            ["--s1", "0"],
            ["--pair", "cyc", "--s0", "1", "--s1", "1"],
            ["--pair", "cyc", "--m", "4", "--s1", "0"],
        ],
    )
    def test_refuses_arguments_it_cannot_use(self, capsys, extra):
        code, out = run_cli(
            capsys, "advantage", "--dist", "basis-measure", "--n", "6",
            "--trials", "10", "--seed", "1", *extra,
        )
        assert code == 2
        assert len(out.splitlines()) == 1 and out.startswith("error:"), out


class TestErrors:
    def test_usage_error_exit_code(self, capsys):
        assert run(["keygen", "--mode", "ff"]) == 2
        assert run(["no-such-command"]) == 2

    def test_missing_file_is_usage_error(self, capsys):
        assert run(["ga", "--graph", "/nonexistent/g.txt"]) == 2

    def test_internal_error_exit_code(self, tmp_path, capsys, monkeypatch):
        graph = write_graph(tmp_path / "g.txt", RIGID6)
        for exc in (RuntimeError("search state lost"), MemoryError()):

            def failing(args, exc=exc):
                raise exc

            monkeypatch.setattr(cli, "cmd_ga", failing)
            assert run(["ga", "--graph", graph]) == 5
            captured = capsys.readouterr()
            assert captured.out.splitlines() == [f"internal-error: {type(exc).__name__}: {exc}"]
            assert captured.err == ""

    def test_bad_parameters(self, capsys):
        code, out = run_cli(
            capsys, "keygen", "--mode", "ff", "--n", "4", "--seed", "1", "--out", "/tmp/x"
        )
        assert code == 2 and "error:" in out

    def test_nonpositive_degree_is_refused(self, tmp_path, capsys):
        key = tmp_path / "k0.txt"
        code, out = run_cli(
            capsys, "keygen", "--mode", "cyc", "--n", "0", "--m", "2", "--seed", "1",
            "--out", str(key),
        )
        assert code == 2 and out == "error: degree must be >= 1, got 0\n"
        assert not key.exists()
        key.write_text("CYC 0 2\n0: \n")  # what keygen wrote before
        code, out = run_cli(
            capsys, "encrypt", "--key", str(key), "--message", "0", "--seed", "1",
            "--out", str(tmp_path / "ct.txt"),
        )
        assert code == 2 and out == "error: degree must be >= 1, got 0\n"
        code, out = run_cli(capsys, "demo", "--mode", "cyc", "--n", "0", "--m", "2", "--seed", "1")
        assert code == 2 and out == "error: degree must be >= 1, got 0\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["keygen", "--mode", "ff", "--out", "k.txt"],
            ["demo", "--mode", "ff"],
            ["demo", "--mode", "cyc", "--m", "3"],
            ["advantage", "--dist", "coin", "--trials", "1"],
            ["advantage", "--dist", "coin", "--pair", "cyc", "--trials", "1"],
        ],
        ids=["keygen", "demo-ff", "demo-cyc", "advantage-ff", "advantage-cyc"],
    )
    def test_degree_above_the_ceiling_is_refused_at_once(self, tmp_path, capsys, monkeypatch, argv):
        # MAX_DEGREE + 2 is 2 mod 4 and divisible by 3, so only the ceiling refuses it.
        monkeypatch.chdir(tmp_path)
        start = time.perf_counter()
        code, out = run_cli(capsys, *argv, "--n", str(MAX_DEGREE + 2), "--seed", "1")
        elapsed = time.perf_counter() - start
        assert (code, out) == (2, f"error: degree {MAX_DEGREE + 2} exceeds the ceiling {MAX_DEGREE}\n")
        assert elapsed < 1.0, elapsed
        assert not Path("k.txt").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["keygen", "--mode", "cyc", "--out", "k.txt"],
            ["demo", "--mode", "cyc"],
            ["advantage", "--dist", "coin", "--pair", "cyc", "--trials", "1"],
        ],
        ids=["keygen", "demo", "advantage-cyc"],
    )
    def test_key_series_above_the_ceiling_is_refused_at_once(self, tmp_path, capsys, monkeypatch, argv):
        # m states of m points of degree n: 10 * 10 * n is just above MAX_POINTS
        n = MAX_POINTS // 100 + 10
        monkeypatch.chdir(tmp_path)
        start = time.perf_counter()
        code, out = run_cli(capsys, *argv, "--n", str(n), "--m", "10", "--seed", "1")
        elapsed = time.perf_counter() - start
        assert (code, out) == (2, f"error: a key series of 10 states of 10 points of degree {n} "
                                  f"holds {100 * n} permutation points, over the ceiling {MAX_POINTS}\n")
        assert elapsed < 1.0, elapsed
        assert not Path("k.txt").exists()

    def test_key_file_above_the_ceiling_is_refused_at_once(self, tmp_path, capsys):
        n = MAX_POINTS // 100 + 10
        key, ct = tmp_path / "key.txt", tmp_path / "ct.txt"
        cycles = " ".join(str(p + 1 if p % 10 else p - 9) for p in range(1, n + 1))  # (1..10)(11..20)...
        key.write_text(f"CYC {n} 10\n{n}: {cycles}\n")
        start = time.perf_counter()
        code, out = run_cli(
            capsys, "encrypt", "--key", str(key), "--message", "0", "--seed", "1", "--out", str(ct)
        )
        elapsed = time.perf_counter() - start
        assert code == 2 and out.startswith("error: a key series of 10 states") and out.count("\n") == 1, out
        assert elapsed < 1.0, elapsed
        assert not ct.exists()

    @pytest.mark.parametrize(
        "pair, m",
        [(["ff"], 2), (["plus-iota"], 2), (["cyc", "--m", "3"], 3)],
        ids=["ff", "plus-iota", "cyc"],
    )
    def test_advantage_tuple_above_the_ceiling_is_refused_at_once(self, capsys, pair, m):
        k = MAX_POINTS // (m * 6) + 1  # k states of m points of degree 6, just above the ceiling
        start = time.perf_counter()
        code, out = run_cli(
            capsys, "advantage", "--pair", *pair, "--k", str(k), "--dist", "coin", "--n", "6",
            "--trials", "1", "--seed", "1",
        )
        elapsed = time.perf_counter() - start
        assert (code, out) == (2, f"error: a tuple of {k} states of {m} points of degree 6 "
                                  f"holds {k * m * 6} permutation points, over the ceiling {MAX_POINTS}\n")
        assert elapsed < 1.0, elapsed

    def test_attack_tuple_above_the_ceiling_is_refused_at_once(self, tmp_path, capsys):
        # k challenges plus l key copies per tuple, each draw at most 2 points of degree 6
        k = MAX_POINTS // 24 + 1
        graph = write_graph(tmp_path / "g.txt", RIGID6)
        start = time.perf_counter()
        code, out = run_cli(
            capsys, "attack", "--graph", graph, "--dist", "coin", "--k", str(k), "--l", str(k),
            "--tuples", "2", "--threshold", "1", "--seed", "1",
        )
        elapsed = time.perf_counter() - start
        assert (code, out) == (2, f"error: a tuple of {2 * k} states of 2 points of degree 6 "
                                  f"holds {24 * k} permutation points, over the ceiling {MAX_POINTS}\n")
        assert elapsed < 1.0, elapsed

    @pytest.mark.parametrize(
        "argv",
        [
            ["keygen", "--mode", "ff", "--n", "6", "--m", "3", "--out", "unwritten.txt"],
            ["keygen", "--mode", "ff", "--n", "6", "--m", "2", "--out", "unwritten.txt"],
            ["demo", "--mode", "ff", "--n", "6", "--m", "5"],
        ],
    )
    def test_m_is_refused_in_ff_mode(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out = run_cli(capsys, *argv, "--seed", "1")
        assert code == 2 and out == "error: --m applies only to --mode cyc\n"
        assert not (tmp_path / "unwritten.txt").exists()

    @pytest.mark.parametrize(
        "flag, text, message",
        [
            ("--graph", "3 1\n2 3 4\n", "line 2: expected u, v; got '2 3 4'"),
            ("--graph", "3 x\n", "line 1: edge count 'x' is not an integer"),
            ("--key", "FF six\n6: 2 1 4 3 6 5\n", "line 1: degree 'six' is not an integer"),
            (
                "--key", "\nCYC 6 3 1\n6: 2 3 1 5 6 4\n",
                "line 2: expected degree, cycle length; got '6 3 1'",
            ),
            ("--key", "FF 6\n6: 2 1 x 3 6 5\n", "line 2: image 3 'x' is not an integer"),
            (
                "--ciphertext",
                "CIPHERTEXT FF 2\n\nQSTATE 6 1 2\n0 0.70710678118654746 0 6: 1 2 3 4 5 6\n"
                "0 0.70710678118654746 6: 2 1 4 3 6 5\n",
                "line 5: expected control, re, im, permutation; got '0 0.70710678118654746 6: 2 1 4 3 6 5'",
            ),
            (
                "--ciphertext",
                "CIPHERTEXT FF 2\nQSTATE 6 1 2\n0 0.7071067811865474x 0 6: 1 2 3 4 5 6\n"
                "0 0.70710678118654746 0 6: 2 1 4 3 6 5\n",
                "line 3: re '0.7071067811865474x' is not a number",
            ),
            (
                "--ciphertext",
                "\nCIPHERTEXT FF\nQSTATE 6 1 2\n0 0.70710678118654746 0 6: 1 2 3 4 5 6\n"
                "0 0.70710678118654746 0 6: 2 1 4 3 6 5\n",
                "line 2: bad ciphertext header: 'CIPHERTEXT FF'",
            ),
            (
                "--ciphertext",
                "\n \nCIPHERTEXT FF 2\nQSTATE 6 1 2\n0 0.7071067811865474x 0 6: 1 2 3 4 5 6\n"
                "0 0.70710678118654746 0 6: 2 1 4 3 6 5\n",
                "line 5: re '0.7071067811865474x' is not a number",
            ),
        ],
    )
    def test_parse_errors_name_the_line_and_the_field(
        self, tmp_path, capsys, monkeypatch, flag, text, message
    ):
        monkeypatch.chdir(tmp_path)
        Path("input.txt").write_text(text)
        command = ["ga"]
        if flag == "--key":
            command = ["encrypt", "--message", "0", "--seed", "1", "--out", "ct.txt"]
        if flag == "--ciphertext":
            Path("key.txt").write_text("FF 6\n6: 2 1 4 3 6 5\n")
            command = ["decrypt", "--key", "key.txt", "--seed", "1"]
        code, out = run_cli(capsys, *command, flag, "input.txt")
        assert (code, out) == (2, f"error: {message}\n")

    def test_cyc_mode_defaults_m_to_2(self, tmp_path, capsys):
        for argv in (["keygen", "--out", str(tmp_path / "k.txt")], ["demo"]):
            argv += ["--mode", "cyc", "--n", "6", "--seed", "3"]
            code, out = run_cli(capsys, *argv)
            _, explicit = run_cli(capsys, *argv, "--m", "2")
            assert code == 0 and out == explicit
            assert out.startswith("mode=cyc n=6 m=2 seed=3\n")


def test_import_leaves_scipy_unloaded():
    # qscd needs numpy alone at run time: importing it loads no scipy, and
    # with scipy blocked the selftest's chi-square criterion still runs.
    probes = {
        "import sys, qscd; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))":
            "[]\n",
        "import sys; sys.modules['scipy'] = None; import qscd, qscd.selftest;"
        " print(qscd.selftest.criterion_conjugation(20260810))":
            "(True, 'exhaustive_48x15=yes chisq_p=0.081835')\n",
    }
    src = str(Path(cli.__file__).resolve().parents[1])
    for probe, want in probes.items():
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.stdout == want, probe


FF_KEY = "FF 6\n6: 4 5 6 1 2 3\n"
CYC_KEY = "CYC 6 3\n6: 3 6 5 2 1 4\n"
FF_CIPHERTEXT = (
    "CIPHERTEXT FF 2\nQSTATE 6 1 2\n"
    "0 -0.70710678118654746 -0 6: 4 6 3 5 1 2\n"
    "0 0.70710678118654746 0 6: 5 1 2 4 6 3\n"
)
CYC_CIPHERTEXT = (
    "CIPHERTEXT CYC 3\nQSTATE 6 1 3\n"
    "0 -0.28867513459481248 0.50000000000000033 6: 3 4 6 1 5 2\n"
    "0 -0.2886751345948132 -0.49999999999999989 6: 5 1 3 2 6 4\n"
    "0 0.57735026918962584 0 6: 6 2 5 4 3 1\n"
)
PATH5 = "5 4\n1 2\n2 3\n3 4\n4 5\n"
# Per command: its fixed arguments, with {name} for a file, and the valid
# file sets that the fuzz mutates. --limit 300 admits graphs of up to 6 nodes.
FUZZ_COMMANDS = {
    "decrypt": (
        ["--key", "{key}", "--ciphertext", "{ciphertext}", "--seed", "1"],
        [{"key": FF_KEY, "ciphertext": FF_CIPHERTEXT}, {"key": CYC_KEY, "ciphertext": CYC_CIPHERTEXT}],
    ),
    "encrypt": (
        ["--key", "{key}", "--message", "1", "--out", "{out}", "--seed", "1"],
        [{"key": FF_KEY}, {"key": CYC_KEY}],
    ),
    "ga": (["--graph", "{graph}", "--limit", "12"], [{"graph": format_graph(RIGID7A)}, {"graph": PATH5}]),
    "reduce-ga": (["--graph", "{graph}", "--limit", "300"], [{"graph": format_graph(RIGID6)}, {"graph": PATH5}]),
}
# What an edit may write: the edge values of every limit and number parser.
FUZZ_FIELDS = [
    "", "0", "-1", "1", "2", "3", "6", "7", "12", "13", str(MAX_DEGREE + 1), "1000000000",
    "nan", "inf", "-0", "1e308", "0.5", "x", ":", "6:", "FF", "CYC", "QSTATE", "CIPHERTEXT",
]
FUZZ_CHARS = list("0123456789-.:x \n")
FUZZ_LINES = ["\n", " \n", "1 2\n", "0 1 0 6: 1 2 3 4 5 6\n"]


@st.composite
def mutated(draw, text: str) -> str:
    """text after one to three edits, each deleting, repeating or replacing
    one line, whitespace-separated field or character, or cutting the text
    off before it."""
    for _ in range(draw(st.integers(1, 3))):
        unit = draw(st.sampled_from(["line", "field", "char"]))
        if unit == "line":
            parts, pool = text.splitlines(keepends=True), FUZZ_LINES
        elif unit == "field":
            parts, pool = re.split(r"(\s+)", text), FUZZ_FIELDS
        else:
            parts, pool = list(text), FUZZ_CHARS
        if not parts:
            continue
        i = draw(st.integers(0, len(parts) - 1))
        edit = draw(st.sampled_from(["delete", "repeat", "replace", "cut"]))
        if edit == "cut":
            del parts[i:]
        elif edit == "delete":
            del parts[i]
        elif edit == "repeat":
            parts.insert(i, parts[i])
        else:
            parts[i] = draw(st.sampled_from(pool))
        text = "".join(parts)
    return text


class TestFileTextFuzz:
    """Mutated key, ciphertext and graph files through cli.run, in process:
    every run ends in a documented exit code, and a failure in one line."""

    @pytest.mark.parametrize("command", sorted(FUZZ_COMMANDS))
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_files_fail_cleanly(self, command, data):
        args, file_sets = FUZZ_COMMANDS[command]
        files = dict(data.draw(st.sampled_from(file_sets)))
        name = data.draw(st.sampled_from(sorted(files)))
        files[name] = data.draw(mutated(files[name]), label=name)
        with tempfile.TemporaryDirectory() as tmp:
            paths = {key: os.path.join(tmp, key) for key in [*files, "out"]}
            for key, text in files.items():
                Path(paths[key]).write_text(text)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = run([command, *(arg.format(**paths) for arg in args)])
        lines = stdout.getvalue().splitlines()
        failures = [
            line for line in lines
            if line.startswith(("error:", "promise-violation:", "internal-error:"))
        ]
        assert code in (0, 2, 3, 4), lines
        assert stderr.getvalue() == ""
        if code in (2, 3):
            prefix = "error: " if code == 2 else "promise-violation: "
            assert failures == [lines[-1]] and lines[-1].startswith(prefix), lines
        else:
            assert failures == [], lines


# Argument fuzz: per subcommand, each option and the values it may take;
# None leaves the option out, so required options never list it. In a third
# of the vectors one option takes a value of ARG_WILD instead, which argparse
# refuses for an int. {name} is a file of arg_fuzz_files.
ARG_NUMBERS = ["-1", "0", "1", "2", "3", "6"]
ARG_COUNTS = ["-1", "0", "1", "2", "3"]  # trials and tuples
ARG_WILD = ["nan", "1e309"]
ARG_KEYS = ["{ff_key}", "{cyc_key}", "{swap_key}", "{graph}", "{missing}"]
ARG_GRAPHS = ["{graph}", "{path}", "{yes_graph}", "{ff_key}", "{missing}"]
ARG_DISTS = ["omniscient", "coin", "basis-measure"]


def maybe(values: list[str]) -> list[str | None]:
    """The values of an option that is left out half the time."""
    return [*values, *[None] * len(values)]


ARG_FUZZ = {
    "keygen": {
        "--mode": ["ff", "cyc"], "--n": ARG_NUMBERS, "--m": maybe(ARG_NUMBERS), "--out": ["{out}"],
        "--seed": ARG_NUMBERS,
    },
    "encrypt": {"--key": ARG_KEYS, "--message": ARG_NUMBERS, "--out": ["{out}"], "--seed": ARG_NUMBERS},
    "decrypt": {
        "--key": ARG_KEYS, "--ciphertext": ["{ff_ciphertext}", "{cyc_ciphertext}", "{ff_key}", "{missing}"],
        "--seed": ARG_NUMBERS,
    },
    "demo": {"--mode": ["ff", "cyc"], "--n": ARG_NUMBERS, "--m": maybe(ARG_NUMBERS), "--seed": ARG_NUMBERS},
    "ga": {"--graph": ARG_GRAPHS, "--limit": maybe(ARG_NUMBERS)},
    "reduce-ga": {"--graph": ARG_GRAPHS, "--limit": maybe(ARG_NUMBERS)},
    "attack": {
        "--graph": ARG_GRAPHS, "--dist": ARG_DISTS, "--key": maybe(ARG_KEYS),
        "--planted-key": maybe(ARG_KEYS), "--k": maybe(ARG_NUMBERS), "--tuples": maybe(ARG_COUNTS),
        "--threshold": maybe(ARG_NUMBERS), "--p": maybe(ARG_NUMBERS), "--l": maybe(ARG_NUMBERS),
        "--seed": ARG_NUMBERS,
    },
    "advantage": {
        "--dist": ARG_DISTS, "--pair": maybe(["ff", "plus-iota", "cyc"]), "--n": ARG_NUMBERS,
        "--m": maybe(ARG_NUMBERS), "--s0": maybe(ARG_NUMBERS), "--s1": maybe(ARG_NUMBERS),
        "--k": maybe(ARG_NUMBERS), "--trials": ARG_COUNTS, "--confidence": maybe(ARG_NUMBERS),
        "--key": maybe(ARG_KEYS), "--seed": ARG_NUMBERS,
    },
    # A valid seed runs the whole suite, which test_acceptance pins.
    "selftest": {"--seed": ["-1"]},
}


def arg_fuzz_files(tmp: Path) -> dict[str, str]:
    yes = planted_yes_instance()
    texts = {
        "ff_key": FF_KEY, "cyc_key": CYC_KEY, "ff_ciphertext": FF_CIPHERTEXT, "cyc_ciphertext": CYC_CIPHERTEXT,
        "swap_key": format_key(KeyPair(yes.hidden_key(), SecurityParam.ff(14))),  # the yes graph's automorphism
        "graph": format_graph(RIGID6), "path": PATH5, "yes_graph": format_graph(yes.graph),
    }
    paths = {name: str(tmp / name) for name in [*texts, "out", "missing"]}
    for name, text in texts.items():
        Path(paths[name]).write_text(text)
    return paths


class TestArgumentFuzz:
    """Small argument vectors for every subcommand through cli.run, in
    process: every run ends in exit 0, 2, 3 or 4 and prints no traceback. A
    refusal inside a command is one failure line, the last on stdout; an
    argparse rejection writes its usage to stderr and nothing to stdout."""

    @pytest.mark.parametrize("command", sorted(ARG_FUZZ))
    def test_argument_vectors_fail_cleanly(self, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)  # where a wild --out value writes
        files = arg_fuzz_files(tmp_path)
        draw = random.Random(command)  # string seeds hash the same in every run
        options = ARG_FUZZ[command]
        for _ in range(110):
            wild = draw.choice([*options, *[None] * 2 * len(options)])
            argv = [command]
            for option, values in options.items():
                value = draw.choice(ARG_WILD if option == wild else values)
                if value is not None:
                    argv += [option, value.format(**files)]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = run(argv)
            out, err = stdout.getvalue(), stderr.getvalue()
            assert code in (0, 2, 3, 4) and "Traceback" not in out + err, (argv, out, err)
            if err:
                assert code == 2 and out == "" and err.startswith("usage: "), (argv, err)
                continue
            lines = out.splitlines()
            failures = [line for line in lines if line.startswith(("error:", "promise-violation:"))]
            if code in (2, 3):
                prefix = "error: " if code == 2 else "promise-violation: "
                assert failures == [lines[-1]] and lines[-1].startswith(prefix), (argv, lines)
            else:
                assert failures == [], (argv, lines)
