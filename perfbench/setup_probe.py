"""Time the package's set-up in a fresh interpreter.

    python3 setup_probe.py import
    python3 setup_probe.py train MEMORIES.npy

Prints the seconds spent in ``import assocmem`` (plus one ``train`` on the
given memories) on the first line and the imported package's file on the
second. Loading the memories is not timed: it is the benchmark's input.
"""

import sys
import time

t0 = time.perf_counter()
import assocmem  # noqa: E402

elapsed = time.perf_counter() - t0
if sys.argv[1] == "train":
    import numpy as np

    memories = np.load(sys.argv[2])
    t0 = time.perf_counter()
    assocmem.train(memories)
    elapsed += time.perf_counter() - t0
print(repr(elapsed))
print(assocmem.__file__)
