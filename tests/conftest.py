import numpy as np
import pytest

from assocmem import train

X1 = (1, 1, 1, 1)
X2 = (1, -1, 1, -1)

# hand-computed outer-product sum for X1, X2 with a zero diagonal
WORKED_WEIGHTS = np.array(
    [
        [0, 0, 2, 0],
        [0, 0, 0, 2],
        [2, 0, 0, 0],
        [0, 2, 0, 0],
    ]
)


@pytest.fixture
def two_memories():
    return [list(X1), list(X2)]


@pytest.fixture
def worked_weights(two_memories):
    w = train(two_memories)
    assert np.array_equal(w, WORKED_WEIGHTS)
    return w


def random_symmetric_weights(rng, n, lo=-3, hi=4):
    """A random valid weight matrix: symmetric, integer, zero diagonal."""
    a = rng.integers(lo, hi, size=(n, n))
    w = a + a.T
    np.fill_diagonal(w, 0)
    return w


def random_memories(rng, m, n):
    return rng.integers(0, 2, size=(m, n), dtype=np.int8) * 2 - 1


def reference_energy(w, x) -> float:
    # x W x is even and exact in int64 for accepted weights; int / int rounds once
    return -int(x @ w @ x) / 2


def reference_sync(w, x, max_passes):
    """Iterated synchronous recall from the definitions: W x and x W x every pass.

    The oracle of recall_sync_iterated: (state, passes, converged, energy
    trace, 2-cycle or None), with a budget of 10 n passes when max_passes
    is None. A pass that repeats its state converges; one that returns to
    the state before it ends in that 2-cycle.
    """
    w = np.asarray(w, dtype=np.int64)
    cur = np.asarray(x, dtype=np.int64)
    max_passes = 10 * cur.size if max_passes is None else max_passes
    trace = [reference_energy(w, cur)]
    prev = None
    for t in range(1, max_passes + 1):
        nxt = np.where(w @ cur >= 0, 1, -1)
        trace.append(reference_energy(w, nxt))
        if np.array_equal(nxt, cur):
            return cur, t, True, trace, None
        if prev is not None and np.array_equal(nxt, prev):
            return nxt, t, False, trace, (nxt, cur)
        prev, cur = cur, nxt
    return cur, max_passes, False, trace, None
