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
import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .setfn import BitPoolSource, GroundSet, WeightVector
from .sfm import ConvergenceError
from .split import recursion_metrics, split

logger = logging.getLogger(__name__)

CSV_HEADER = "n,mean_sum_size,mean_max_size,mean_node_count,excluded,wall_seq_s"


@dataclass
class ExperimentConfig:
    n_min: int = 3
    n_max: int = 40
    repetitions: int = 100
    seed: int = 0
    pool_factor: float = 3.0
    observe_prob: float = 0.3
    observers_per_bit: float | None = 1.5
    measure_time: bool = True

    def __post_init__(self):
        if self.n_min < 2:
            raise ValueError("n_min must be >= 2")
        if self.n_max < self.n_min:
            raise ValueError("n_max must be >= n_min")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not 0.0 < self.observe_prob <= 1.0:
            raise ValueError("observe_prob must lie in (0, 1]")
        if self.observers_per_bit is not None and self.observers_per_bit <= 0:
            raise ValueError("observers_per_bit must be positive when set")

    def observe_prob_for(self, n: int) -> float:
        """Per-pair observation probability used at ground size n.

        A fixed probability makes bit sharing saturate as n grows, which
        collapses every instance to a single uniform block; the default
        scales the probability as observers_per_bit / n so the expected
        number of observers per bit stays constant and the recursion depth
        keeps growing with n.  Set ``observers_per_bit=None`` to use the
        fixed ``observe_prob`` instead.
        """
        if self.observers_per_bit is None:
            return self.observe_prob
        return min(1.0, self.observers_per_bit / n)


@dataclass
class ExperimentRow:
    n: int
    mean_sum_size: float
    mean_max_size: float
    mean_node_count: float
    excluded: int
    mean_wall_seq: float

    def to_csv(self) -> str:
        return "%d,%.6f,%.6f,%.6f,%d,%.6f" % (
            self.n, self.mean_sum_size, self.mean_max_size,
            self.mean_node_count, self.excluded, self.mean_wall_seq)


def generate_instance(n: int, config: ExperimentConfig,
                      rep_index: int = 0) -> BitPoolSource:
    """Random coverage-entropy source, deterministic under (seed, n, rep).

    ceil(pool_factor * n) independent bits with entropies uniform on
    (0, 1); each user observes each bit with probability
    ``config.observe_prob_for(n)``, and users that come out empty are
    redrawn.
    """
    if n < 2:
        raise ValueError("instances need at least 2 users")
    rng = np.random.default_rng([config.seed, n, rep_index])
    n_bits = math.ceil(config.pool_factor * n)
    h = rng.uniform(0.0, 1.0, n_bits)
    while (h <= 0.0).any():
        bad = h <= 0.0
        h[bad] = rng.uniform(0.0, 1.0, int(bad.sum()))
    prob = config.observe_prob_for(n)
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

    Unit weights throughout.  Solver failures on individual instances are
    logged and excluded, with the exclusion count reported per row.  With
    ``measure_time=False`` the wall column is written as zeros, making the
    CSV a pure function of the configuration.
    """
    rows = []
    for n in range(config.n_min, config.n_max + 1):
        sums = []
        maxes = []
        nodes = []
        wall_seq = []
        excluded = 0
        for rep in range(config.repetitions):
            src = generate_instance(n, config, rep)
            w = WeightVector.ones(src.ground)
            try:
                t0 = time.perf_counter()
                _, tree = split(src, w)
                t1 = time.perf_counter()
            except ConvergenceError as e:
                excluded += 1
                logger.warning("excluded instance (n=%d, rep=%d): %s", n, rep, e)
                continue
            m = recursion_metrics(tree)
            sums.append(m["sum_size"])
            maxes.append(m["max_size"])
            nodes.append(m["node_count"])
            wall_seq.append(t1 - t0)
        if not sums:
            logger.warning("all %d instances excluded at n=%d",
                           config.repetitions, n)
            rows.append(ExperimentRow(n, math.nan, math.nan, math.nan,
                                      excluded, 0.0))
            continue
        rows.append(ExperimentRow(
            n=n,
            mean_sum_size=float(np.mean(sums)),
            mean_max_size=float(np.mean(maxes)),
            mean_node_count=float(np.mean(nodes)),
            excluded=excluded,
            mean_wall_seq=(float(np.mean(wall_seq))
                           if config.measure_time else 0.0),
        ))
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for row in rows:
        buf.write(row.to_csv() + "\n")
    return rows, buf.getvalue()
