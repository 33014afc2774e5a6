"""Byte pins of the CLI output.

Each command's stdout (the CSV table, or the ``stationary`` report) is
pinned by its sha256, recorded at commit ``dd006cb``.  A refactor that
claims to leave the output unchanged must keep every digest; a change that
moves a byte on purpose updates the digest and says why.
"""

import hashlib

import pytest

from lindbladrate.cli import main

PINNED = {
    "evolve --preset fig1-lower": "451335a75cb8aae7d11b5430729a044ee377c0967db60fd6550dc3a8210976b4",
    "traj --preset fig2 --n 500 --seed 1": "d86d6b47f6f69dbb2eade0728ccbb0c6eb2618ad63ea94fa5aff00bb473cd04c",
    "kernel --preset fig2 --u 1.5,2,4": "82ca26da5f1693decad408333664373615e5091d23c759dfbfe494602cf254c7",
    "stationary --preset fig2": "872be742fe6be247581a1de5353cf8c3178dc29f6b84b3dfc447f98cc26e51a3",
    "example fig2 --n 500 --seed 1": "b1fa2064b0d24acb73d83b4a92eb08ce68f66dad04ceba1de87529a0d79f4eee",
}


@pytest.mark.parametrize("command", list(PINNED))
def test_stdout_bytes_pinned(capsys, command):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[command]
