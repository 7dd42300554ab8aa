import random

import pytest
from hypothesis import strategies as st

from anoncert.certs import LAYOUT, signed
from anoncert.curve import BRAINPOOL_P256R1, SECP256R1, TOY, get_curve
from anoncert.rng import DeterministicRng


@pytest.fixture
def brainpool():
    return get_curve(BRAINPOOL_P256R1)


@pytest.fixture
def secp():
    return get_curve(SECP256R1)


@pytest.fixture
def toy():
    return get_curve(TOY)


@pytest.fixture(params=[BRAINPOOL_P256R1, SECP256R1])
def named_curve(request):
    return get_curve(request.param)


@pytest.fixture
def drng():
    return DeterministicRng(1234)


class ScriptedRng:
    """Serves preset chunks when the requested size matches, then falls
    back to a deterministic stream."""

    def __init__(self, chunks, seed=99):
        self.chunks = list(chunks)
        self.fallback = DeterministicRng(seed)

    def read(self, n):
        if self.chunks and len(self.chunks[0]) == n:
            return self.chunks.pop(0)
        return self.fallback.read(n)


@pytest.fixture
def scripted_rng():
    return ScriptedRng


def _edge_and_random_scalars(n, count=100, seed=6):
    rand = random.Random(seed)
    edges = [0, 1, n - 1, n, n + 1, 2 ** 256 - 1]
    return edges + [rand.randrange(2 ** 256) for _ in range(count)]


@pytest.fixture
def edge_scalars():
    """Scalars for native-vs-`_mul` tests on a curve of order n: 0, 1,
    n - 1, n, n + 1 and 2^256 - 1, then `count` seeded 256-bit values."""
    return _edge_and_random_scalars


def spy(monkeypatch, owner, name, hook=None) -> list:
    """Wrap `owner.name` and return the list of each call's arguments,
    noted before the call runs. With `hook`, each call hands `hook` its
    result and arguments, and returns what `hook` returns (the result
    when None)."""
    real, calls = getattr(owner, name), []

    def wrapped(*args):
        calls.append(args)
        out = real(*args)
        changed = None if hook is None else hook(out, *args)
        return out if changed is None else changed

    monkeypatch.setattr(owner, name, wrapped)
    return calls


def resigned(msg, key, **changes):
    """`msg` with `changes`, signed again with `key`: a forgery names only
    the fields it changes."""
    cls = type(msg)
    fields = {name: getattr(msg, name) for name, _ in LAYOUT[cls].fields}
    return signed(cls, key, **{**fields, **changes})


@st.composite
def mutated(draw, blob: bytes) -> bytes:
    """`blob` cut before, with one byte flipped at, or with one byte
    inserted before a drawn position."""
    i = draw(st.integers(0, len(blob) - 1))
    op = draw(st.sampled_from(["truncate", "flip", "insert"]))
    if op == "truncate":
        return blob[:i]
    if op == "flip":
        flipped = blob[i] ^ draw(st.integers(1, 255))
        return blob[:i] + bytes([flipped]) + blob[i + 1:]
    return blob[:i] + bytes([draw(st.integers(0, 255))]) + blob[i:]
