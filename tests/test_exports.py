"""The package namespace is the ``__all__`` of its modules: each public name is
declared once, in the module that defines it."""

import types

import pytest

import capacities
from capacities import axioms, errors, integrals, interaction, model, set_function

MODULES = (axioms, errors, integrals, interaction, model, set_function)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_name_in_a_module_all_is_the_package_binding(module):
    for name in module.__all__:
        assert getattr(capacities, name) is getattr(module, name), name


def test_every_public_package_name_is_declared_once():
    declared = [name for module in MODULES for name in module.__all__]
    public = {
        name
        for name, value in vars(capacities).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(declared) == len(set(declared))
    assert public == set(declared)
