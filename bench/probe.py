"""Host-speed probe.

The probe does the kind of work `ginv` does and never calls `ginv`, so no
change to `ginv` moves it. It has two parts, timed apart:

- small: complex solves, stacks, 2-norms and frozen dataclasses on 6x6
  matrices, about 0.85 ms;
- large: one 16x16 complex SVD and the JSON text of that matrix, encoded
  and decoded, about 1.5 ms.

A workload weights the parts like its own work (`probe_weights`), and its
timings are multiplied by (weights . NOMINAL_S) / (weights . probe times),
which takes out most of the host's drift in speed; see README.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# Median times of the two parts of the probe on the 2-CPU virtual machine the
# reference figures come from; scaled timings read as wall time on a host
# that runs the probe this fast.
NOMINAL_S = np.array([0.00085, 0.00155])


@dataclass(frozen=True)
class _Box:
    m: np.ndarray
    k: int


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = [rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)) for _ in range(8)]
        self.large = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))

    def __call__(self) -> np.ndarray:
        """Seconds the two parts took: (small matrices, large matrix)."""
        t0 = perf_counter()
        for m in self.small:
            x = np.hstack([m[:, :2], m[:, 2:]])
            y = np.linalg.solve(x.T, (x @ np.eye(6, dtype=complex)).T).T
            box = _Box(y, 2)
            float(np.linalg.norm(box.m - m, 2))
            np.all(np.isfinite(np.asarray(m, dtype=complex).real))
        t1 = perf_counter()
        np.linalg.svd(self.large)
        data = [[z.real, z.imag] for z in self.large.reshape(-1)]
        json.loads(json.dumps({"rows": 16, "cols": 16, "data": data}))
        return np.array([t1 - t0, perf_counter() - t1])
