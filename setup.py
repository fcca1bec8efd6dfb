"""Legacy setup shim.

The offline environment lacks the ``wheel`` package, so PEP 660 editable
installs (which must build a wheel) fail; this shim lets
``pip install -e .`` fall back to ``setup.py develop``. The repository has
no pyproject.toml: the metadata below is all there is, and ``version`` must
match ``repro._version.__version__``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
)
