import hashlib

import pytest

from swfair.experiment import (
    CSV_HEADER,
    ExperimentConfig,
    ExperimentRow,
    generate_instance,
    run_experiment,
)
from swfair.setfn import WeightVector, check_monotone, source_to_dict
from swfair.split import split


def small_config(**kw):
    defaults = dict(n_min=3, n_max=6, repetitions=4, seed=11,
                    measure_time=False)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n_min=1)
    with pytest.raises(ValueError):
        ExperimentConfig(n_min=5, n_max=4)
    with pytest.raises(ValueError):
        ExperimentConfig(repetitions=0)


def test_generate_instance_deterministic():
    cfg = small_config()
    a = source_to_dict(generate_instance(4, cfg, rep_index=2))
    b = source_to_dict(generate_instance(4, cfg, rep_index=2))
    assert a == b
    c = source_to_dict(generate_instance(4, cfg, rep_index=3))
    assert a != c


def test_generate_instance_structure():
    cfg = small_config()
    src = generate_instance(5, cfg, rep_index=0)
    observes = source_to_dict(src)["observes"]
    assert src.ground.n == 5 and len(src.bit_ids) == 15
    assert all(observes.values())  # nobody observes nothing
    assert src.value(0) == 0.0
    assert check_monotone(src)[0]
    # full coverage: every bit here is observed by someone
    if {b for seen in observes.values() for b in seen} == set(src.bit_ids):
        assert src.value(src.ground_mask) == pytest.approx(src.bit_entropy.sum())
    with pytest.raises(ValueError):
        generate_instance(1, cfg)


def test_tree_nodes_partition_their_parent():
    cfg = small_config()
    for rep in range(4):
        src = generate_instance(6, cfg, rep)
        _, tree = split(src, WeightVector.ones(src.ground))
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                continue
            block, rest = node.children
            assert block.subset_mask & rest.subset_mask == 0
            assert block.subset_mask | rest.subset_mask == node.subset_mask
            stack.extend(node.children)


def test_run_experiment_rows_and_csv():
    cfg = small_config()
    rows, csv_text = run_experiment(cfg)
    lines = csv_text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(rows) == 4 and len(lines) == 5
    assert csv_text.endswith("\n")
    for row in rows:
        assert row.mean_max_size <= row.mean_sum_size
        if row.mean_sum_size > 0:
            ratio = row.mean_max_size / row.mean_sum_size
            assert 0.5 < ratio <= 1.0
        assert row.mean_node_count <= 2 * row.n - 1
        assert row.mean_sum_size <= row.n * (2 * row.n - 1)  # crude ceiling
        assert row.mean_wall_seq == 0.0


def test_run_experiment_deterministic_bytes():
    cfg = small_config()
    _, csv_a = run_experiment(cfg)
    _, csv_b = run_experiment(small_config())
    assert csv_a == csv_b
    _, csv_c = run_experiment(small_config(seed=12))
    assert csv_a != csv_c


def test_run_experiment_metrics_independent_of_timing():
    plain = small_config()
    timed = small_config(measure_time=True)
    rows_a, _ = run_experiment(plain)
    rows_b, _ = run_experiment(timed)
    for a, b in zip(rows_a, rows_b):
        assert (a.mean_sum_size, a.mean_max_size, a.mean_node_count) == \
            (b.mean_sum_size, b.mean_max_size, b.mean_node_count)
    assert any(r.mean_wall_seq > 0 for r in rows_b)


def test_row_csv_format():
    row = ExperimentRow(7, 12.5, 9.25, 11.0, 0.00125)
    assert row.to_csv() == "7,12.500000,9.250000,11.000000,0.001250"


def test_size_sweep_csv_is_pinned():
    """The paper's configuration gives the same CSV, byte for byte, as when
    this pin was taken."""
    _, csv_text = run_experiment(ExperimentConfig(
        n_min=3, n_max=40, repetitions=30, seed=0, measure_time=False))
    assert hashlib.sha256(csv_text.encode()).hexdigest() == (
        "719f15ba5a6095182ed72cb16fce995b5bf50a6f5ba262654e71ff1afd71758a")
