"""Byte pins of the CLI output.

Each command's stdout (the CSV table, or the ``stationary`` report) is
pinned by its sha256, the first five preset commands recorded at commit
``dd006cb``, the two config commands at ``4c18cc9``, the two fig1
``traj`` commands at ``95e051a`` and the walk-rare and walk3 ``traj``
commands at ``fd178dd``.  A refactor that claims to
leave the output unchanged must keep every digest; a change that moves a
byte on purpose updates the digest and says why.
"""

import hashlib
import json

import pytest

from lindbladrate.cli import main

PINNED = {
    "evolve --preset fig1-lower": "451335a75cb8aae7d11b5430729a044ee377c0967db60fd6550dc3a8210976b4",
    "traj --preset fig2 --n 500 --seed 1": "d86d6b47f6f69dbb2eade0728ccbb0c6eb2618ad63ea94fa5aff00bb473cd04c",
    "kernel --preset fig2 --u 1.5,2,4": "82ca26da5f1693decad408333664373615e5091d23c759dfbfe494602cf254c7",
    "stationary --preset fig2": "872be742fe6be247581a1de5353cf8c3178dc29f6b84b3dfc447f98cc26e51a3",
    "example fig2 --n 500 --seed 1": "b1fa2064b0d24acb73d83b4a92eb08ce68f66dad04ceba1de87529a0d79f4eee",
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
    "evolve rate": (
        {"model": _RATE, "initial_state": _STATE, "grid": {"stop": 2.0, "count": 81, "spacing": "log"}},
        "809e2a4eeb8d46d935dcf3cf04c69cb2a71992a3e73239ef3af759dfc2f53fae",
    ),
}


@pytest.mark.parametrize("command", list(PINNED))
def test_stdout_bytes_pinned(capsys, command):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[command]


@pytest.mark.parametrize("command", list(CONFIG_PINNED))
def test_config_stdout_bytes_pinned(tmp_path, capsys, command):
    # walk self-generators and random rate models reach the superoperator
    # builders through other paths than the presets do
    config, digest = CONFIG_PINNED[command]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    name, _, *options = command.split()
    assert main([name, "--config", str(path), *options]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
