"""The package namespace: ``triangle_opt.__all__`` lists each public name once,
every listed name resolves, and it re-exports the whole public surface of the
oracle, prox-geometry, trace, zoo, solver, harness and meta-strategy modules."""

import importlib

import pytest

import triangle_opt


def test_package_exports_are_unique_and_resolve():
    names = triangle_opt.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [name for name in names if not hasattr(triangle_opt, name)]
    assert not missing


@pytest.mark.parametrize("module", ["oracles", "prox_geometry", "traces", "zoo", "solvers",
                                    "harness", "meta_strategies"])
def test_package_reexports_every_public_name_of(module):
    names = importlib.import_module(f"triangle_opt.{module}").__all__
    assert set(names) <= set(triangle_opt.__all__), sorted(set(names) - set(triangle_opt.__all__))


def test_errors_all_names_the_base_error_and_every_subclass_defined_there():
    errors = importlib.import_module("triangle_opt.errors")
    defined = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, errors.TriangleOptError)
               and obj.__module__ == errors.__name__}
    assert "TriangleOptError" in defined
    assert sorted(errors.__all__) == sorted(defined)
