"""Byte pins for the documented commands: the sha256 of each stdout and of
each file a command writes, for a fixed seed.

The commands run in order in one directory, so later ones read the key and
ciphertext files that earlier ones wrote; relative names keep the printed
paths the same on every machine. A change to any of these bytes updates its
pin in the same commit and says why in CHANGES.md.
"""

import hashlib
from pathlib import Path

from qscd.cli import run
from qscd.graphauto import Graph, disjoint_union
from qscd.permgroup import SecurityParam
from qscd.pkc import KeyPair, format_key
from qscd.selftest import RIGID7A, RIGID7B, path_graph, planted_yes_instance

from oracles import format_graph

# Outer 5-cycle 1..5, inner pentagram 6..10, and the five spokes.
PETERSEN = Graph(10, frozenset(
    [(i, i % 5 + 1) for i in range(1, 6)]
    + [(i, i + 5) for i in range(1, 6)]
    + [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)]
))

INPUTS = {
    "yes.graph": format_graph(planted_yes_instance().graph),
    "no.graph": format_graph(disjoint_union(RIGID7A, RIGID7B)),
    "planted.key": format_key(KeyPair(planted_yes_instance().certified, SecurityParam.ff(14))),
    "p13.graph": format_graph(path_graph(13)),
    "petersen.graph": format_graph(PETERSEN),
}

PINS = {
    "keygen --mode ff --n 10 --seed 1 --out ff.key": {
        "stdout": "0dde72233b8480ffcfef13eca60c1cf6efcc22e2fbac2f2ea9eebe35bc6f36d0",
        "ff.key": "7abfd780f246f9e13d5220eb2d10a050ddd7846721117b84313cde9aaae76ded",
    },
    "keygen --mode cyc --n 12 --m 6 --seed 2 --out cyc.key": {
        "stdout": "dc20a63f88b8d8f427bef64ae952e6ddd055dfb485a70b84553596ddb1d6ebe5",
        "cyc.key": "fe44577d0587612ac8406e12d56181e8ee9a68402b97fd9616bf919389674414",
    },
    "demo --mode ff --n 10 --seed 3": {
        "stdout": "013169299a261df9f7c0383a652f998b4aef95e4c854f9b542b2aebbf8324ff8",
    },
    "demo --mode cyc --n 12 --m 6 --seed 4": {
        "stdout": "01d472627db504f86d58bb364de81ca5b63a4ecaf6b4c9eb324251648b816fa6",
    },
    "encrypt --key ff.key --message 1 --seed 5 --out ff.ct": {
        "stdout": "9d8746a6c60733f81c418d05da8fc1343f0e5fa6a2b0746cc2ed1dfb3e894861",
        "ff.ct": "d08fd0ab418e4b83fbeb3f310f27140e315cf46890a2498a89aa3caea57dad00",
    },
    "decrypt --key ff.key --ciphertext ff.ct --seed 6": {
        "stdout": "abdbc5600f694df7c3767b5cc694a6d87514fc374a76dde7af78b8e8434b0642",
    },
    "encrypt --key cyc.key --message 4 --seed 7 --out cyc.ct": {
        "stdout": "487831c32a5cc2032e6bdbd4279bfc4ac0fb4da6170ef7e9aea2dcd65a49ba97",
        "cyc.ct": "8e5fe60958050837821559bfc07f6f0d61b67d7ad19d7151ff56004c66afb589",
    },
    "decrypt --key cyc.key --ciphertext cyc.ct --seed 8": {
        "stdout": "ff60cdda848da9017657f15ac8cc1274f3ccce870c5d7b8286ad2b8a2df06408",
    },
    "advantage --dist omniscient --n 10 --k 3 --key ff.key --trials 200 --seed 9": {
        "stdout": "6994aaeb8b8ec57dca2f42452fc677af203f17ad2528947737aacd55d325ddce",
    },
    "advantage --dist basis-measure --pair cyc --n 6 --trials 200 --seed 10": {
        "stdout": "947ea6cc7c14c6393b84fc7add48d5849ae28c63bf8f8947543fb0bd20a77190",
    },
    "attack --graph yes.graph --dist omniscient --planted-key planted.key --seed 11": {
        "stdout": "3fb3b524e844531d3506f4857ecef94f51f3055780a02ff4220c7327d6d85b16",
    },
    "attack --graph yes.graph --dist coin --planted-key planted.key --seed 12": {
        "stdout": "c6056576dc0b1f5740cd4e9ccc42f672e32f890e3975260cfd592e43e5e08c08",
    },
    "attack --graph yes.graph --dist basis-measure --planted-key planted.key --seed 13": {
        "stdout": "9fd2745e7879d99142d733b62502c98e461a96be6d1540edfa3bfaba82152e1f",
    },
    "attack --graph no.graph --dist omniscient --key planted.key --seed 14": {
        "stdout": "c8c2f1cc0d2412364374f173242f5b7506d8eb2224f134ced64e672596b9e9de",
    },
    "attack --graph no.graph --dist coin --seed 15": {
        "stdout": "80ade683117a07994961393d344df6d2e5d73177f1f4390741612ef4bbb0a0e9",
    },
    "attack --graph no.graph --dist basis-measure --seed 16": {
        "stdout": "148c48ad3707f50b5c4ebd32bc6e3bb4bb7ea96400812a65156146061ff24ec8",
    },
    "reduce-ga --graph p13.graph": {
        "stdout": "42ea627fdbfdd2f666a537d4c6b140d4b9e34f966cb010c3c8f0cddf699c7b2f",
    },
    "ga --graph petersen.graph": {
        "stdout": "264302f00839135c87d0382c4127908192faf66312bc3cdf19a7da23f9cf31e4",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_documented_commands_keep_their_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in INPUTS.items():
        Path(name).write_text(text)
    got = {}
    for command, pins in PINS.items():
        code = run(command.split())
        out = capsys.readouterr().out
        assert code == 0, (command, out)
        got[command] = {"stdout": _sha256(out.encode())}
        got[command].update((name, _sha256(Path(name).read_bytes())) for name in pins if name != "stdout")
    assert got == PINS
