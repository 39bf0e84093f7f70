"""The package's public names."""

import inspect
import typing

import iabnet


def test_every_exported_name_resolves():
    assert [name for name in iabnet.__all__ if not hasattr(iabnet, name)] == []


def test_exported_functions_take_and_return_exported_types():
    # a caller of an exported solver can name its input and result types
    missing = set()
    for name in iabnet.__all__:
        obj = getattr(iabnet, name)
        if inspect.isfunction(obj):
            for hint in typing.get_type_hints(obj).values():
                if inspect.isclass(hint) and hint.__module__.startswith("iabnet."):
                    if hint.__name__ not in iabnet.__all__:
                        missing.add(f"{name}: {hint.__name__}")
    assert missing == set()
