"""The package's public names, and its silence as a library."""

import logging
import types

import numpy as np

import swfair
from swfair.experiment import ExperimentConfig, run_experiment
from swfair.fairness import shapley_exact, verify_membership
from swfair.setfn import restrict
from swfair.split import _confirm, decompose, split
from conftest import proposal_of, twin_bit_pool


def test_all_lists_exactly_the_imported_names():
    imported = {name for name, value in vars(swfair).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert len(set(swfair.__all__)) == len(swfair.__all__)
    assert set(swfair.__all__) == imported
    star = {}
    exec("from swfair import *", star)
    assert set(star) - {"__builtins__"} == imported


def test_library_calls_print_nothing(capfd, caplog, three_users,
                                     skew_weights):
    """Library calls write nothing to stdout or stderr; what they report
    goes to the "swfair" loggers, like the confirm step's fallback to
    split."""
    caplog.set_level(logging.DEBUG, logger="swfair")
    rates, _ = split(three_users, skew_weights)
    decompose(three_users, skew_weights)
    shapley_exact(three_users)
    verify_membership(three_users, rates.rates)
    run_experiment(ExperimentConfig(n_min=3, n_max=6, repetitions=3,
                                    measure_time=False))
    assert caplog.records == []

    src, w = twin_bit_pool(np.random.default_rng(53), 5)
    chain = decompose(src, w).chain_masks
    levels = [b & ~a for a, b in zip((0,) + chain[:-1], chain)]
    assert len(levels) > 1
    f_c = restrict(src, src.ground_mask)
    dec = _confirm(f_c, w, *proposal_of(f_c, levels[::-1]))
    assert dec.chain_masks == chain
    assert [(r.name, r.levelno) for r in caplog.records] == [
        ("swfair.split", logging.INFO)]
    assert capfd.readouterr() == ("", "")
