"""The package re-export lists name only things that exist."""

import os
import subprocess
import sys

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


def test_import_repro_leaves_bench_harness_unloaded():
    # The benchmark harness is imported by its users directly
    # (repro.runner.bench), never pulled in by `import repro`.
    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = "import sys, repro; print('repro.runner.bench' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip() == "False"
