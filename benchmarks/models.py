"""Seeded inputs of the benchmark workloads, written as swfair model files.

Every model is a coverage-entropy source drawn from the size-sweep
distribution: ``3n`` independent bits with entropies uniform on (0, 1], each
user observing each bit with probability ``1.5 / n`` (so a bit has 1.5
expected observers at every size), and a user who comes out observing
nothing is redrawn.  The arrays are kept in memory so the certificates can
recompute every entropy without going through the program.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BITS_PER_USER = 3
OBSERVERS_PER_BIT = 1.5
WEIGHT_RANGE = (0.5, 4.0)
# Stream index of the small warm-up model, far above any model count.
WARM_UP_INDEX = 1_000_000


@dataclass(frozen=True)
class Spec:
    """Make-up of one workload's inputs."""

    tag: int            # second word of the generator seed, one per workload
    n: int              # users per model
    count: int          # distinct models per run; operations cycle over them
    weighted: bool      # weights uniform on WEIGHT_RANGE, else all 1
    kind: str           # "bit_pool" or "table" model files
    warm_up_n: int      # users of the warm-up model


SPECS = {
    "large": Spec(tag=1, n=256, count=40, weighted=True, kind="bit_pool",
                  warm_up_n=8),
    "sweep": Spec(tag=2, n=64, count=128, weighted=False, kind="bit_pool",
                  warm_up_n=8),
    "audit": Spec(tag=3, n=12, count=32, weighted=True, kind="table",
                  warm_up_n=4),
}


@dataclass(frozen=True)
class Model:
    """A coverage model as arrays: H(X) = h . [X observes each bit]."""

    h: np.ndarray           # (m,) bit entropies
    obs: np.ndarray         # (n, m) bool, user observes bit
    w: np.ndarray           # (n,) user weights

    @property
    def users(self) -> list[str]:
        return ["u%d" % i for i in range(self.obs.shape[0])]


def draw(seed: int, spec: Spec, index: int, n: int | None = None) -> Model:
    """Model ``index`` of the workload's stream under ``seed``."""
    n = spec.n if n is None else n
    rng = np.random.default_rng([seed, spec.tag, index])
    m = BITS_PER_USER * n
    h = 1.0 - rng.random(m)         # uniform on (0, 1]
    p = min(1.0, OBSERVERS_PER_BIT / n)
    obs = rng.random((n, m)) < p
    for i in range(n):
        while not obs[i].any():
            obs[i] = rng.random(m) < p
    w = rng.uniform(*WEIGHT_RANGE, n) if spec.weighted else np.ones(n)
    return Model(h, obs, w)


def subset_values(model: Model) -> np.ndarray:
    """H of every subset, indexed by bitmask over the users (small n only)."""
    n = model.obs.shape[0]
    masks = np.arange(1 << n, dtype=np.int64)
    vals = np.zeros(1 << n)
    for b in range(model.obs.shape[1]):
        observers = int(np.dot(model.obs[:, b], 1 << np.arange(n)))
        if observers:
            vals[(masks & observers) != 0] += model.h[b]
    return vals


def model_document(model: Model, kind: str) -> dict:
    users = model.users
    if kind == "bit_pool":
        return {
            "type": "bit_pool",
            "users": users,
            "bits": {"b%d" % j: float(v) for j, v in enumerate(model.h)},
            "observes": {u: ["b%d" % j for j in np.nonzero(model.obs[i])[0]]
                         for i, u in enumerate(users)},
        }
    vals = subset_values(model)
    values = {}
    for mask in range(1, len(vals)):
        key = ",".join(u for i, u in enumerate(users) if mask >> i & 1)
        values[key] = float(vals[mask])
    return {"type": "table", "users": users, "values": values}


@dataclass(frozen=True)
class Files:
    model: Path
    weights: Path
    rates: Path             # where ``egalitarian --out`` writes


def write(model: Model, kind: str, directory: Path, name: str) -> Files:
    """Write the model and its weights file; return the paths."""
    files = Files(directory / ("%s.json" % name),
                  directory / ("%s.weights.json" % name),
                  directory / ("%s.rates.json" % name))
    files.model.write_text(json.dumps(model_document(model, kind)))
    files.weights.write_text(json.dumps(
        {u: float(v) for u, v in zip(model.users, model.w)}))
    return files
