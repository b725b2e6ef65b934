"""Randomized sweeps over growing user counts.

Replicates the serial-versus-parallel workload comparison: for each ground
size, random coverage-entropy instances are solved by the recursive splitter
and the per-split SFM sizes are averaged.  The sum of the two block sizes
tracks a serial implementation's workload; the larger of the two tracks the
critical path if both branches ran concurrently.  The splitter's wall-clock
time is measured as a side report (hardware dependent, so it can be
disabled to make the CSV byte-reproducible).
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass

import numpy as np

from .setfn import BitPoolSource, GroundSet, WeightVector
from .split import recursion_metrics, split

CSV_HEADER = "n,mean_sum_size,mean_max_size,mean_node_count,wall_seq_s"


# Each instance has BITS_PER_USER bits per user, and each user observes
# each bit with probability OBSERVERS_PER_BIT / n.  A fixed probability
# makes bit sharing saturate as n grows, which collapses every instance to
# a single uniform block; scaling it as 1/n keeps the expected number of
# observers per bit constant, so the recursion depth keeps growing with n.
BITS_PER_USER = 3
OBSERVERS_PER_BIT = 1.5


@dataclass
class ExperimentConfig:
    n_min: int = 3
    n_max: int = 40
    repetitions: int = 100
    seed: int = 0
    measure_time: bool = True

    def __post_init__(self):
        if self.n_min < 2:
            raise ValueError("n_min must be >= 2")
        if self.n_max < self.n_min:
            raise ValueError("n_max must be >= n_min")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


@dataclass
class ExperimentRow:
    n: int
    mean_sum_size: float
    mean_max_size: float
    mean_node_count: float
    mean_wall_seq: float

    def to_csv(self) -> str:
        return "%d,%.6f,%.6f,%.6f,%.6f" % (
            self.n, self.mean_sum_size, self.mean_max_size,
            self.mean_node_count, self.mean_wall_seq)


def generate_instance(n: int, config: ExperimentConfig,
                      rep_index: int = 0) -> BitPoolSource:
    """Random coverage-entropy source, deterministic under (seed, n, rep).

    BITS_PER_USER * n independent bits with entropies uniform on (0, 1);
    each user observes each bit with probability min(1, OBSERVERS_PER_BIT
    / n), and users that come out empty are redrawn.
    """
    if n < 2:
        raise ValueError("instances need at least 2 users")
    rng = np.random.default_rng([config.seed, n, rep_index])
    n_bits = BITS_PER_USER * n
    h = rng.uniform(0.0, 1.0, n_bits)
    while (h <= 0.0).any():
        bad = h <= 0.0
        h[bad] = rng.uniform(0.0, 1.0, int(bad.sum()))
    prob = min(1.0, OBSERVERS_PER_BIT / n)
    obs = rng.random((n, n_bits)) < prob
    for i in range(n):
        while not obs[i].any():
            obs[i] = rng.random(n_bits) < prob
    users = ["u%d" % i for i in range(n)]
    bits = {"b%d" % j: float(h[j]) for j in range(n_bits)}
    observes = {users[i]: ["b%d" % j for j in np.nonzero(obs[i])[0]]
                for i in range(n)}
    return BitPoolSource(GroundSet(users), bits, observes)


def run_experiment(config: ExperimentConfig):
    """Average split-size metrics per ground size; returns (rows, csv_text).

    Unit weights throughout; a solver error on any instance propagates.
    With ``measure_time=False`` the wall column is written as zeros, making the
    CSV a pure function of the configuration.
    """
    rows = []
    for n in range(config.n_min, config.n_max + 1):
        sums = []
        maxes = []
        nodes = []
        wall_seq = []
        for rep in range(config.repetitions):
            src = generate_instance(n, config, rep)
            w = WeightVector.ones(src.ground)
            t0 = time.perf_counter()
            _, tree = split(src, w)
            t1 = time.perf_counter()
            m = recursion_metrics(tree)
            sums.append(m["sum_size"])
            maxes.append(m["max_size"])
            nodes.append(m["node_count"])
            wall_seq.append(t1 - t0)
        rows.append(ExperimentRow(
            n=n,
            mean_sum_size=float(np.mean(sums)),
            mean_max_size=float(np.mean(maxes)),
            mean_node_count=float(np.mean(nodes)),
            mean_wall_seq=(float(np.mean(wall_seq))
                           if config.measure_time else 0.0),
        ))
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for row in rows:
        buf.write(row.to_csv() + "\n")
    return rows, buf.getvalue()
