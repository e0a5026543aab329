import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qscd import cli
from qscd.cli import run
from qscd.graphauto import Graph, format_graph
from qscd.pkc import KeyPair, format_key
from qscd.permgroup import SecurityParam
from qscd.selftest import RIGID6, RIGID7A, RIGID7B, planted_yes_instance
from qscd.graphauto import disjoint_union


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
        nan_entry = "0 nan 0 6: 1 2 3 4 5 6"
        bad = {
            "empty": f"{head}\n",
            "nan": "\n".join([head, state_header.replace(" 2", " 3"), *entries, nan_entry]) + "\n",
        }
        for name, text in bad.items():
            path = tmp_path / f"{name}.txt"
            path.write_text(text)
            code, out = run_cli(
                capsys, "decrypt", "--key", str(key), "--ciphertext", str(path), "--seed", "3"
            )
            assert code == 2 and out.startswith("error:"), (name, out)


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
    # scipy.stats costs about a second of every CLI start; qscd imports it
    # lazily, in the one selftest criterion that needs it
    probe = "import sys, qscd; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout == "[]\n"
