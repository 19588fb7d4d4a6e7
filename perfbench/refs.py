"""Plain-numpy references that the benchmark checks the package against.

Each function follows the documented rule directly and uses none of the
package's code: sgn(0) = +1, the energy E(s) = -1/2 s^T W s, spreading
through the strictly lower-triangular part of W in proximity order, the
capacity trial streams SeedSequence(seed, spawn_key=(m, trial)), and
inverse-CDF squared-amplitude sampling.
"""

from __future__ import annotations

import math

import numpy as np


def sgn(v) -> np.ndarray:
    return np.where(np.asarray(v) >= 0, 1, -1).astype(np.int64)


def hebb(memories) -> np.ndarray:
    """Outer-product weights with a zero diagonal."""
    x = np.asarray(memories, dtype=np.int64)
    w = x.T @ x
    np.fill_diagonal(w, 0)
    return w


def hebb_matches(memories, w) -> bool:
    """Whether ``w`` equals ``hebb(memories)``, built 128 rows at a time so
    that no second n x n matrix is held."""
    x = np.asarray(memories, dtype=np.int64)
    n = x.shape[1]
    if np.shape(w) != (n, n):
        return False
    for r in range(0, n, 128):
        rows = x[:, r:r + 128].T @ x
        k = np.arange(rows.shape[0])
        rows[k, r + k] = 0
        if not np.array_equal(w[r:r + 128], rows):
            return False
    return True


def energy(w, s) -> float:
    s = np.asarray(s, dtype=np.int64)
    return -0.5 * int(s @ w @ s) + 0.0


def flip(vector, count: int, rng) -> np.ndarray:
    """A copy of a bipolar vector with ``count`` distinct entries negated."""
    out = np.array(vector, dtype=np.int8)
    out[rng.choice(out.size, size=count, replace=False)] *= -1
    return out


def recall_sync_iterated(w, state) -> dict:
    """Synchronous passes until a fixed point or a 2-cycle (budget 10 n)."""
    cur = np.asarray(state, dtype=np.int64)
    budget = 10 * cur.size
    trace = [energy(w, cur)]
    prev = None
    for t in range(1, budget + 1):
        nxt = sgn(w @ cur)
        trace.append(energy(w, nxt))
        if np.array_equal(nxt, cur):
            return {"state": cur, "iterations": t, "converged": True, "trace": trace, "cycle": None}
        if prev is not None and np.array_equal(nxt, prev):
            return {"state": nxt, "iterations": t, "converged": False, "trace": trace, "cycle": (nxt, cur)}
        prev, cur = cur, nxt
    return {"state": cur, "iterations": budget, "converged": False, "trace": trace, "cycle": None}


def recall_async_random(w, state, seed: int) -> dict:
    """Asynchronous recall, one fresh permutation of default_rng(seed) per pass."""
    x = np.array(state, dtype=np.int64)
    n = x.size
    rng = np.random.default_rng(int(seed))
    e = int(-(x @ w @ x)) // 2
    trace = [e]
    converged = False
    passes = 0
    for _ in range(10 * n):
        flips = 0
        for i in rng.permutation(n):
            h = int(w[i] @ x)
            v = 1 if h >= 0 else -1
            if v != x[i]:
                e -= (v - int(x[i])) * h
                x[i] = v
                flips += 1
            trace.append(e)
        passes += 1
        if flips == 0:
            converged = True
            break
    if not converged:
        converged = bool(np.array_equal(sgn(w @ x), x))
    return {"state": x, "iterations": passes, "converged": converged, "trace": [float(v) for v in trace]}


def async_violation(w, probe, state, iterations: int, converged: bool, trace) -> str | None:
    """The first broken invariant of an asynchronous recall result, or None."""
    n = len(probe)
    s = np.asarray(state)
    if s.shape != (n,) or not np.all(np.isin(s, (-1, 1))):
        return "final state is not a bipolar vector of the network's size"
    t = np.asarray(trace, dtype=np.float64)
    if t.size != 1 + iterations * n:
        return f"energy trace has {t.size} entries, expected 1 + passes * n = {1 + iterations * n}"
    if t[0] != energy(w, probe):
        return "energy trace does not start at E(probe)"
    if np.any(np.diff(t) > 0):
        return "energy trace rises"
    if t[-1] != energy(w, s):
        return "last energy differs from E(final)"
    if converged and not np.array_equal(sgn(w @ s.astype(np.int64)), s):
        return "converged final state is not a fixed point"
    return None


def proximity_order(proximity, start) -> np.ndarray:
    """Start neurons by index, then the rest by distance to the nearest start
    neuron, ties to the lower index."""
    start = np.array(sorted(start), dtype=np.int64)
    rest = np.setdiff1d(np.arange(proximity.shape[0]), start)
    dist = proximity[np.ix_(start, rest)].min(axis=0)
    return np.concatenate([start, rest[np.lexsort((rest, dist))]])


def spread(w, cue: dict, perm) -> dict:
    """Grow the cue one neuron per step in spread coordinates, O(n^2) in all."""
    n = w.shape[0]
    k0 = len(cue)
    wp = w[np.ix_(perm, perm)]
    x = np.zeros(n, dtype=np.int64)
    x[:k0] = [cue[int(perm[j])] for j in range(k0)]
    steps = []
    for k in range(k0, n):
        field = int(wp[k, :k] @ x[:k])
        x[k] = 1 if field >= 0 else -1
        steps.append((int(perm[k]), field, int(x[k])))
    final = np.empty(n, dtype=np.int64)
    final[perm] = x
    flags = [int(i) for i in np.flatnonzero(sgn(w @ final) != final)]
    return {"steps": steps, "final": final, "flags": flags}


def nearest_memory(memories, state) -> tuple[int, int]:
    """Index of the nearest memory (ties to the lower index) and its distance."""
    dists = np.count_nonzero(np.asarray(memories) != np.asarray(state), axis=1)
    k = int(np.argmin(dists))
    return k, int(dists[k])


def capacity_unstable(n: int, m: int, seed: int, trials: int) -> np.ndarray:
    """Unstable-bit count of each trial through the exact identity X W = (X X^T) X - m X."""
    out = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(m, t)))
        x = (rng.integers(0, 2, size=(m, n), dtype=np.int8) * 2 - 1).astype(np.int64)
        fields = (x @ x.T) @ x - m * x
        out[t] = np.count_nonzero((fields >= 0) != (x > 0))
    return out


def capacity_row(n: int, m: int, unstable) -> dict:
    trials = len(unstable)
    return {
        "per_bit_instability": int(unstable.sum()) / (trials * m * n),
        "all_stable_fraction": int(np.count_nonzero(unstable == 0)) / trials,
        "stderr": float(np.std(unstable / (m * n), ddof=1) / math.sqrt(trials)),
    }


def fixed_points(w) -> list[np.ndarray]:
    """Every state with sgn(W x) = x, in integer order with bit 1 read as +1."""
    n = w.shape[0]
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    found = []
    chunk = 1 << 14
    for lo in range(0, 1 << n, chunk):
        ints = np.arange(lo, min(lo + chunk, 1 << n), dtype=np.int64)[:, None]
        states = np.where((ints >> shifts) & 1, 1, -1)
        fixed = np.all((states @ w >= 0) == (states > 0), axis=1)
        found.extend(states[fixed])
    return found


def collapse_samples(amplitudes, seed: int, count: int) -> np.ndarray:
    a = np.asarray(amplitudes, dtype=np.float64)
    cumulative = np.cumsum(a * a)
    cumulative[-1] = 1.0
    u = np.random.default_rng(int(seed)).random(int(count))
    return np.searchsorted(cumulative, u, side="left")
