"""Instance gate for the seeded suites behind `quivrep check`.

A suite draws its random instances from one `random.Random(seed)`.  Work
skipped on an instance that is thrown away must still make the draws it
would have made, so every later instance stays the same.  This gate hashes
the `check` output and the final state of the random generator of the
suites that throw instances away.  The digests were recorded while
`_random_mono` still tried every impossible pair, `direct_sum` still built
its maps entry by entry and `_random_rz` still swallowed every error.

The squares suite is also gated on the instances themselves: every pair of
maps w, v that it passes to `squares.pushout`, with their modules and
blocks.  Those digests were recorded while each random module over a
non-hereditary algebra still rebuilt its sums of projectives and their hom
space on every call.
"""

import hashlib
import random
import subprocess
import sys
import types

import pytest

from quivrep import cli, squares, suites

CHECK_DIGESTS = {
    1: "c5173ba80d17874463dd8b8829715da2d98e8c984bccdf6d6be7a34a79b4162a",
    3: "00bcceeb40627eaea3395b334ce6d2bfbe05858ae59171b24294b0198b909e65",
}

RNG_DIGESTS = {
    ("degen", 0): "06330cac4e012f06d09b71efbbe7f5d6313ccb1236b96b6bb7069d72b5ed4d18",
    ("degen", 1): "3110f7392f396f8a4a22f71be84e3f5492878710d67b8c8d18c2811d0b3ee038",
    ("degen", 2): "1b06b2b48bdfc110670ef5a32384e89f9b33ecbe5db987831f32062edcf9c22e",
    ("rep", 0): "edc83f663a4617043f71c740b190c1729c6609b51dc4269097b7a005069834f5",
    ("rep", 1): "a79ba988d2cc767317dcc85f79245397d575d604a4aa99ec9cc269da4fee8fb1",
    ("rep", 2): "ea37861cefd5ef5c1769f6aae242738f4831eb0d78674d58f38a7313fa71b2eb",
    ("squares", 0): "5a0158f31d3c378ba7d2328f8d9444a1d0ac152b20f8f5b1edb64d8a49d8b886",
    ("squares", 1): "be69107f9265fae695a3ef10c2f1a8857c572f16955911b099c096529590c419",
    ("squares", 2): "4b05c15e2275312b64076576bfaabff1853f0567f3b6082994b7768f947d73af",
}

SQUARES_INSTANCE_DIGESTS = {
    0: "aa95547979ff342cb01d51b3bdfa3fa6e931319ef1d7cfdc544428e7f4f3ec90",
    1: "8533147d319c51250725af3d567d9d9222d30b70c38cd0ba342bd525f996cd9d",
    2: "f58156f0e7f0d6b3d4153963d4d7089e836a10c7db12557b4781fbc3a8ee72ab",
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(CHECK_DIGESTS))
def test_check_output_is_unchanged(seed, capsys):
    assert cli.run(["check", "--seed", str(seed)]) == 0
    assert _sha(capsys.readouterr().out) == CHECK_DIGESTS[seed]


def test_check_output_is_unchanged_under_optimize(src_env):
    cmd = [sys.executable, "-O", "-m", "quivrep.cli", "check", "--seed", "3"]
    done = subprocess.run(cmd, capture_output=True, text=True, env=src_env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert _sha(done.stdout) == CHECK_DIGESTS[3]


def _final_rng_state(monkeypatch, suite, seed):
    made = []

    class Recording(random.Random):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(suites, "random", types.SimpleNamespace(Random=Recording))
    suite(seed=seed)
    (rng,) = made
    return _sha(repr(rng.getstate()))


@pytest.mark.parametrize("name, seed", sorted(RNG_DIGESTS))
def test_suite_draws_are_unchanged(name, seed, monkeypatch):
    suite = suites.SUITES[name]
    assert _final_rng_state(monkeypatch, suite, seed) == RNG_DIGESTS[name, seed]


def _module_text(m):
    arrows = m.algebra.quiver.arrow_names
    return "%s %s %s" % (m.algebra.name, sorted(m.dims.items()), [m.action[a].fmt() for a in arrows])


def _hom_text(h):
    blocks = [h.blocks[v].fmt() for v in h.source.algebra.quiver.vertices]
    return "%s -> %s %s" % (_module_text(h.source), _module_text(h.target), blocks)


def _squares_instances(monkeypatch, seed):
    """The sha256 over every (w, v) that `suite_squares` passes to
    `squares.pushout`, in call order."""
    seen = []
    pushout = squares.pushout

    def recording(w, v):
        seen.append("w %s\nv %s" % (_hom_text(w), _hom_text(v)))
        return pushout(w, v)

    monkeypatch.setattr(squares, "pushout", recording)
    suites.suite_squares(seed=seed)
    return _sha("\n".join(seen))


@pytest.mark.parametrize("seed", sorted(SQUARES_INSTANCE_DIGESTS))
def test_squares_suite_instances_are_unchanged(seed, monkeypatch):
    assert _squares_instances(monkeypatch, seed) == SQUARES_INSTANCE_DIGESTS[seed]
