"""Every name that a package module lists in __all__ resolves, so a
deletion that leaves its export behind fails here."""

import pkgutil

import pytest

import cliffdesigns

MODULES = ["cliffdesigns"] + [
    f"cliffdesigns.{m.name}" for m in pkgutil.iter_modules(cliffdesigns.__path__)
    if m.name != "__main__"  # importing it runs the command line
]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_all(name):
    exec(f"from {name} import *", {})
