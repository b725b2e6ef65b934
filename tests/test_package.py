"""The package's public names, and its silence as a library."""

import logging
import types

import swfair
from swfair.experiment import ExperimentConfig, run_experiment
from swfair.fairness import shapley_exact, verify_membership
from swfair.split import decompose, split


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
    """Library calls write nothing to stdout or stderr, and log nothing on
    the "swfair" loggers."""
    caplog.set_level(logging.DEBUG, logger="swfair")
    rates, _ = split(three_users, skew_weights)
    decompose(three_users, skew_weights)
    shapley_exact(three_users)
    verify_membership(three_users, rates.rates)
    run_experiment(ExperimentConfig(n_min=3, n_max=6, repetitions=3,
                                    measure_time=False))
    assert caplog.records == []
    assert capfd.readouterr() == ("", "")
