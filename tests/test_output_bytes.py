"""Byte pins of the CLI output.

Each command's stdout (the CSV table, or the ``stationary`` report) is
pinned by its sha256, the first five preset commands recorded at commit
``dd006cb``, the two config commands at ``4c18cc9``, the two fig1
``traj`` commands at ``95e051a`` and the walk-rare and walk3 ``traj``
commands at ``fd178dd``, the multi-block ``evolve`` commands at
``9ba98f6``, the plain- and mixed-walk ``traj`` commands at ``8263c55``, and
the slow plain-walk and qutrit-walk ``traj`` commands at ``80d2115``.  A
refactor that claims to leave the output unchanged must keep every digest; a
change that moves a byte on purpose updates the digest and says why.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import lindbladrate
from lindbladrate.cli import main
from lindbladrate.config import parse_config
from lindbladrate.output import deterministic_table, emit_csv
from lindbladrate.solver import evolve

from test_linalg import _ALTERNATIVE_ENVIRONMENTS

PINNED = {
    "evolve --preset fig1-lower": "451335a75cb8aae7d11b5430729a044ee377c0967db60fd6550dc3a8210976b4",
    "traj --preset fig2 --n 500 --seed 1": "d86d6b47f6f69dbb2eade0728ccbb0c6eb2618ad63ea94fa5aff00bb473cd04c",
    "kernel --preset fig2 --u 1.5,2,4": "82ca26da5f1693decad408333664373615e5091d23c759dfbfe494602cf254c7",
    "stationary --preset fig2": "872be742fe6be247581a1de5353cf8c3178dc29f6b84b3dfc447f98cc26e51a3",
    "example --preset fig2 --n 500 --seed 1": "b1fa2064b0d24acb73d83b4a92eb08ce68f66dad04ceba1de87529a0d79f4eee",
    # no transfers: every sample is taken before a trajectory's first jump
    "traj --preset fig1-upper --n 500 --seed 9": "8fc8ad432dc4a89a97ca44a72eb116702057794bd7f006e57858926727ccf104",
    # transfers: sampling products mix trajectories before and after a jump
    "traj --preset fig1-lower --n 500 --seed 9": "8fbfa4e24c26dbda7c71caf25b358246fe92d9f36d09989a4d8681087a5aa402",
}

_SX = [[0, 1], [1, 0]]
_SY = [[[0, 0], [0, -1]], [[0, 1], [0, 0]]]
_R = 0.5**0.5
# Two-channel depolarizing walk, jump map (sx . sx + sy . sy) / 2, with a
# Hamiltonian and self-dissipators so the self-generators are not zero.
_WALK = {
    "type": "walk",
    "basis": [_SX, _SY],
    "hamiltonian": [[0.3, 0], [0, -0.3]],
    "channel_dissipators": [[[0.05, 0], [0, 0.02]], [[[0.1, 0], [0, 0.02]], [[0, -0.02], [0.04, 0]]]],
    "hop_rates": [[0.0, 1.0], [0.5, 0.0]],
    "jump_kraus": [[[[0, _R], [_R, 0]], [[[0, 0], [0, -_R]], [[0, _R], [0, 0]]]]] * 2,
    "weights": [0.3, 0.7],
}
# A random (d, K) = (2, 2) rate model, rounded to three decimals: PSD
# blocks for every channel pair in a non-Hermitian basis, one Hamiltonian
# per channel.
_RATE = {
    "type": "rate",
    "basis": [[[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, -1]]],
    "weights": [0.35, 0.65],
    "diagonal_blocks": [
        [[[4.285, 0], [1.773, -1.358], [-1.574, 0.755]], [[1.773, 1.358], [1.755, 0], [-0.738, -0.186]],
         [[-1.574, -0.755], [-0.738, 0.186], [1.211, 0]]],
        [[[2.617, 0], [0.89, 1.421], [0.525, -0.725]], [[0.89, -1.421], [2.733, 0], [-0.505, -0.685]],
         [[0.525, 0.725], [-0.505, 0.685], [0.869, 0]]],
    ],
    "offdiagonal_blocks": [
        {"to": 0, "from": 1, "block": [[[1.792, 0], [-2.141, -1.376], [0.628, -1.253]],
                                       [[-2.141, 1.376], [6.25, 0], [0.516, 2.094]],
                                       [[0.628, 1.253], [0.516, -2.094], [3.445, 0]]]},
        {"to": 1, "from": 0, "block": [[[1.868, 0], [1.407, 0.064], [1.358, 0.495]],
                                       [[1.407, -0.064], [2.564, 0], [0.955, -0.179]],
                                       [[1.358, -0.495], [0.955, 0.179], [1.911, 0]]]},
    ],
    "hamiltonians": [
        [[[-1.656, 0], [-0.345, -0.323]], [[-0.345, 0.323], [0.249, 0]]],
        [[[-0.995, 0], [-0.399, -0.574]], [[-0.399, 0.574], [0.49, 0]]],
    ],
}
_STATE = [[[0.7, 0], [0.2, -0.1]], [[0.2, 0.1], [0.3, 0]]]
# _WALK without transfers and with channel 0 rare: in every window, channel 0
# writes only a few of a block's rows, so only those are reduced.
_WALK_RARE = {**_WALK, "hop_rates": [[0.0, 0.0], [0.0, 0.0]], "weights": [0.05, 0.95]}
# Three dense channels with transfers.  Channel 2 drains into channel 0, so
# along the log grid channel 0 goes from writing fewer than half of a block's
# rows per window to more, and channel 2 the other way.
_WALK3 = {
    **_WALK,
    "channel_dissipators": [*_WALK["channel_dissipators"], [[0.03, [0, 0.01]], [[0, -0.01], 0.08]]],
    "hop_rates": [[0.0, 0.3, 1.2], [0.05, 0.0, 0.2], [0.02, 0.1, 0.0]],
    "jump_kraus": [*_WALK["jump_kraus"], [[[0, 0.8], [0.8, 0]], [[[0, 0], [0, -0.6]], [[0, 0.6], [0, 0]]]]],
    "weights": [0.1, 0.25, 0.65],
}

_SZ = [[1, 0], [0, -1]]
# Both self-generators are diagonal in the vec basis, with eigenvalues 0 and
# -0.1 +- 0.6i (channel 0) and 0 and -0.4 +- 0.6i (channel 1): the kernel
# propagates them without eigenbasis products, and the complex factors fix
# the operand order of the factor product bit for bit.
_WALK_PLAIN = {
    "type": "walk",
    "basis": [_SZ, _SX],
    "hamiltonian": [[0.3, 0], [0, -0.3]],
    "channel_dissipators": [[[0.05, 0], [0, 0]], [[0.2, 0], [0, 0]]],
    "jump_kraus": [[_SX], [_SZ]],
    "hop_rates": [[0, 1], [0.5, 0]],
    "weights": [0.3, 0.7],
}
# _WALK_PLAIN with sigma_x dephasing in channel 1, whose eigenbasis is not the vec basis.
_WALK_MIXED = {**_WALK_PLAIN, "channel_dissipators": [[[0.05, 0], [0, 0]], [[0, 0], [0, 0.2]]]}
# _WALK_PLAIN with rare transfers: on the log grid a window mixes long first
# segments, which every trajectory of a channel shares, with rows sampled
# after a transfer.
_WALK_PLAIN_SLOW = {**_WALK_PLAIN, "hop_rates": [[0, 0.08], [0.03, 0]]}
_P = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
_PT = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]


def _corner_block(a, b):
    return [[a, 0, 0, 0], [0, b, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]


# Three plain qutrit channels (d**2 = 9, three grid points per window): the
# dissipators act through the two diagonal basis elements, so repeated
# nonzero eigenvalues sit beside zero ones in the coherences, and the jump
# maps mix the cyclic shift P with its transpose, so they are not monomial.
_WALK_QUTRIT = {
    "type": "walk",
    "basis": [[[1, 0, 0], [0, -1, 0], [0, 0, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, -2]], _P, _PT],
    "hamiltonian": [[0.3, 0, 0], [0, 0, 0], [0, 0, 0.3]],
    "channel_dissipators": [_corner_block(0.1, 0), _corner_block(0, 0.05), _corner_block(0.3, 0.02)],
    "jump_kraus": [[[[math.sqrt(p) * x for x in row] for row in shift] for p, shift in ((0.6, _P), (0.4, _PT))]] * 3,
    "hop_rates": [[0, 0.4, 0.1], [0.2, 0, 0.3], [0.05, 0.6, 0]],
    "weights": [0.2, 0.3, 0.5],
}
_STATE_QUTRIT = [[0.5, 0, [0.1, 0.1]], [0, 0.3, 0], [[0.1, -0.1], 0, 0.2]]

CONFIG_PINNED = {
    "traj walk --n 500 --seed 3": (
        {"model": _WALK, "initial_state": _STATE, "grid": {"stop": 10.0, "count": 51}},
        "a9e4260e8894b117420ef9c46f47ee9fe73054477e3664c2332d545f811dbf98",
    ),
    "traj walk-rare --n 700 --seed 5": (
        {"model": _WALK_RARE, "initial_state": _STATE, "grid": {"stop": 10.0, "count": 51}},
        "843aa103df2a9d98fb2a895bb5d350f21c3fe776b01eb2667203ad900e517187",
    ),
    "traj walk3 --n 1500 --seed 11": (
        {"model": _WALK3, "initial_state": _STATE, "grid": {"stop": 8.0, "count": 81, "spacing": "log", "decades": 3}},
        "1f0bbb91a460571ef06afd02cb1aa99457c0d39d55de3c91847adcdddb208b17",
    ),
    "traj walk-plain --n 1500 --seed 7": (
        {"model": _WALK_PLAIN, "initial_state": _STATE, "grid": {"stop": 10, "count": 51}},
        "bca16d92fde6fa7791757cb1a52b9713d41c2c68539b56e99fa4c3d97d667149",
    ),
    "traj walk-mixed --n 1500 --seed 7": (
        {"model": _WALK_MIXED, "initial_state": _STATE, "grid": {"stop": 10, "count": 51}},
        "86f0486e508688d02e00b20c68f550e82cd7f252ee75e15640a17b8b0371eaae",
    ),
    "traj walk-plain-slow --n 2500 --seed 13": (
        {
            "model": _WALK_PLAIN_SLOW,
            "initial_state": _STATE,
            "grid": {"stop": 40, "count": 81, "spacing": "log", "decades": 3},
        },
        "deee1a0288b692ebe7283e9196f392ef416aec4cd9be2946f5d10b12f12eb929",
    ),
    "traj walk-qutrit --n 1100 --seed 17": (
        {"model": _WALK_QUTRIT, "initial_state": _STATE_QUTRIT, "grid": {"stop": 12, "count": 97}},
        "af83582cb7e92c868f01686b1ad8f4f28fd2774afed5b6a64c557e14e42d2f40",
    ),
    "evolve rate": (
        {"model": _RATE, "initial_state": _STATE, "grid": {"stop": 2.0, "count": 81, "spacing": "log"}},
        "809e2a4eeb8d46d935dcf3cf04c69cb2a71992a3e73239ef3af759dfc2f53fae",
    ),
}


def random_rate_section(d: int, k: int, seed: int) -> dict:
    """A random coupled (d, K) rate model in the matrix-unit basis.  Each block
    is ``X X^H / 50`` of a small complex integer ``X``, which every BLAS forms
    exactly, so the config (and its PSD blocks) do not depend on the host."""
    rng = np.random.default_rng(seed)
    m = d * d

    def ints(shape):
        return rng.integers(-3, 4, size=shape) + 1j * rng.integers(-3, 4, size=shape)

    def pairs(a):
        return [[[float(z.real), float(z.imag)] for z in row] for row in a]

    blocks = [[pairs(x @ x.conj().T / 50) for x in ints((k, m, m))] for _ in range(k)]
    hams = [pairs((h + h.conj().T) / 20) for h in ints((k, d, d))]
    weights = rng.integers(1, 6, size=k)
    return {
        "type": "rate",
        "basis": np.eye(m).reshape(m, d, d).tolist(),
        "weights": (weights / weights.sum()).tolist(),
        "diagonal_blocks": [blocks[r][r] for r in range(k)],
        "offdiagonal_blocks": [
            {"to": r, "from": rp, "block": blocks[r][rp]} for r in range(k) for rp in range(k) if rp != r
        ],
        "hamiltonians": hams,
    }


_STATE3 = [[0.5, 0.1, 0], [0.1, 0.3, [0, 0.05]], [0, [0, -0.05], 0.2]]
_RATE33 = random_rate_section(3, 3, seed=4)

# Grids longer than one propagation block (1024 rows, the CSV writer's
# chunk), so rows are propagated and written in pieces; 1025, 2049 and 3073
# leave one row past the last full block.  The walk's self-generators are
# defective (W = 1/4), so evolve steps with expm across the block edges.
MULTI_BLOCK_PINNED = {
    "evolve fig1-lower-log-3073": (
        {"model": {"type": "preset", "name": "fig1-lower"}, "grid": {"stop": 20.0, "count": 3073, "spacing": "log"}},
        "1c4cb60647933ed7c5f504cc2b920f4f3a2741057b39f3335774e686762c3a00",
    ),
    "evolve rate-1025": (
        {"model": _RATE, "initial_state": _STATE, "grid": {"stop": 4.0, "count": 1025}},
        "1f3b459d355dc876ff92ddd8f2249ba6093ded1c425e1f9e39ec5a3f730e3ced",
    ),
    "evolve rate-2049": (
        {"model": _RATE, "initial_state": _STATE, "grid": {"stop": 4.0, "count": 2049}},
        "22f7cf5918b5dd8435dbf51067dd41a435344dd2631a91c5ddf5fa1c2a38bf53",
    ),
    "evolve rate3x3-2049": (
        {"model": _RATE33, "initial_state": _STATE3, "grid": {"stop": 5.0, "count": 2049}},
        "a3ef345e665ad6adf41c6cf3a29ecf25ddd86d9fa6a93e6d2135795673a4b688",
    ),
    "evolve walk-w0.25-1025": (
        {
            "model": {
                "type": "walk",
                "basis": [[[0, 1], [0, 0]], [[1, 0], [0, 1]]],
                "hamiltonian": [[0, 0.125], [0.125, 0]],
                "channel_dissipators": [[[1, 0], [0, 0]]] * 2,
                "hop_rates": [[0.0, 1.0], [0.5, 0.0]],
                "jump_kraus": [[[[1, 0], [0, 1]]]] * 2,
                "weights": [0.5, 0.5],
            },
            "grid": {"stop": 5.0, "count": 1025},
        },
        "def1b254458d16825053f662040571c7a885185e96348f1af157256d221bd2f8",
    ),
}


@pytest.mark.parametrize("command", list(PINNED))
def test_stdout_bytes_pinned(capsys, command):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[command]


@pytest.mark.parametrize("command", list(CONFIG_PINNED) + list(MULTI_BLOCK_PINNED))
def test_config_stdout_bytes_pinned(tmp_path, capsys, command):
    # walk self-generators and random rate models reach the superoperator
    # builders through other paths than the presets do
    config, digest = {**CONFIG_PINNED, **MULTI_BLOCK_PINNED}[command]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    name, _, *options = command.split()
    assert main([name, "--config", str(path), *options]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command", [c for c in MULTI_BLOCK_PINNED if "walk" not in c])
def test_evolve_api_concatenates_to_the_pinned_bytes(capsys, command):
    # evolve() joins the blocks that lre evolve writes one at a time
    config, digest = MULTI_BLOCK_PINNED[command]
    run = parse_config(json.dumps(config))
    model, _ = run.model.build()
    emit_csv(deterministic_table(evolve(model, run.initial_state, run.grid)), None)
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


_RUN_IN_CHILD = """
import contextlib, io, json, sys
from lindbladrate.cli import main

outputs = []
for argv in json.load(open(sys.argv[1])):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        outputs.append([main(argv), out.getvalue()])
print(json.dumps(outputs))
"""
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
PORTABLE_BOUND = 1.4e-14  # the largest CSV difference measured across these environments (README, "CLI")


def _lines(text: str) -> list[tuple[str, list[float]]]:
    """Each line's text with its numbers cut out, and the numbers."""
    return [(_NUMBER.sub("#", line), [float(x) for x in _NUMBER.findall(line)]) for line in text.splitlines()]


def test_pinned_commands_stay_within_the_portable_bound(tmp_path):
    # other BLAS kernels and numpy loops move some pins, but no value by more
    # than the bound; the environment is set on the children only
    argvs = [command.split() for command in PINNED]
    for i, (command, (config, _)) in enumerate({**CONFIG_PINNED, **MULTI_BLOCK_PINNED}.items()):
        path = tmp_path / f"config{i}.json"
        path.write_text(json.dumps(config))
        name, _, *options = command.split()
        argvs.append([name, "--config", str(path), *options])
    commands = tmp_path / "commands.json"
    commands.write_text(json.dumps(argvs))
    src = os.path.dirname(os.path.dirname(lindbladrate.__file__))
    children = [  # they run while this process computes its own outputs
        subprocess.Popen(
            [sys.executable, "-c", _RUN_IN_CHILD, str(commands)],
            env=dict(os.environ, PYTHONPATH=src, **extra_env),
            stdout=subprocess.PIPE,
            text=True,
        )
        for extra_env in _ALTERNATIVE_ENVIRONMENTS.values()
    ]
    try:
        here = []
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                here.append([main(argv), out.getvalue()])
        elsewhere = [json.loads(child.communicate(timeout=120)[0]) for child in children]
    finally:
        for child in children:
            child.kill()
            child.wait()
    for name, outputs in zip(_ALTERNATIVE_ENVIRONMENTS, elsewhere):
        for argv, (code, text), (code_here, text_here) in zip(argvs, outputs, here):
            assert code == code_here == 0, (name, argv)
            lines, lines_here = _lines(text), _lines(text_here)
            assert [skeleton for skeleton, _ in lines] == [skeleton for skeleton, _ in lines_here], (name, argv)
            values = np.array([x for _, numbers in lines for x in numbers])
            values_here = np.array([x for _, numbers in lines_here for x in numbers])
            assert np.abs(values - values_here).max() <= PORTABLE_BOUND, (name, argv)
