"""The package re-export lists name only things that exist."""

import pytest

import repro
import repro.analysis
import repro.runner


@pytest.mark.parametrize(
    "module", [repro, repro.runner, repro.analysis], ids=lambda m: m.__name__
)
def test_every_exported_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        getattr(module, name)

