"""The package's public names."""

import types

import swfair


def test_all_lists_exactly_the_imported_names():
    imported = {name for name, value in vars(swfair).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert len(set(swfair.__all__)) == len(swfair.__all__)
    assert set(swfair.__all__) == imported
    star = {}
    exec("from swfair import *", star)
    assert set(star) - {"__builtins__"} == imported
