"""Test-session set-up.

When a property test fails, hypothesis's pytest plugin imports its
``extra._patching`` module to suggest a patch.  Where libcst is installed,
that import raises a DeprecationWarning from a third-party module
(``mypy_extensions``), and pyproject's ``error::DeprecationWarning`` filter
turns it into an INTERNALERROR that stops the session before the remaining
tests run.  Importing the module once here, with that warning ignored, lets
the session report every failure.  Every filter on the package's own warnings
stays as strict as pyproject sets it.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
