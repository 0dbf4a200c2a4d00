"""``pdwg`` re-exports exactly the names its library modules list in ``__all__``.

A module's ``__all__`` is the one record of what is public; ``cli`` is
the front end and stays a submodule.
"""

import importlib
import pkgutil
from collections import Counter

import pdwg

MODULES = {
    info.name: importlib.import_module(f"pdwg.{info.name}")
    for info in pkgutil.iter_modules(pdwg.__path__)
    if info.name != "cli"
}


def test_package_all_is_the_union_of_module_alls():
    assert len(MODULES) == 7
    union = {"__version__"}.union(*(module.__all__ for module in MODULES.values()))
    assert len(pdwg.__all__) == len(set(pdwg.__all__))
    assert set(pdwg.__all__) == union


def test_no_name_is_public_in_two_modules():
    counts = Counter(name for module in MODULES.values() for name in module.__all__)
    assert [name for name, n in counts.items() if n > 1] == []


def test_package_names_are_the_module_objects():
    for module in MODULES.values():
        for name in module.__all__:
            assert getattr(pdwg, name) is getattr(module, name), f"{module.__name__}.{name}"
