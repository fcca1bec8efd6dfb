"""Package version, kept in sync with the ``version`` in setup.py."""

__version__ = "1.0.0"
