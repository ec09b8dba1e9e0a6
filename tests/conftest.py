"""Test-session setup.

When a ``hypothesis`` property fails, its pytest plugin imports
``hypothesis.extra._patching`` to suggest an ``@example`` patch. That
import pulls in ``mypy_extensions``, which emits a ``DeprecationWarning``
at import time, and ``filterwarnings = ["error"]`` turns it into an
``INTERNALERROR`` that hides the falsifying example. Importing the module
once here, with that warning ignored, leaves the filter in force for
everything the tests themselves run.

Where the ``CI`` environment variable is set (GitHub Actions sets it), the
``ci`` hypothesis profile draws the same examples on every run; local runs
still draw fresh ones.
"""

import os
import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no hypothesis, or a version without the module
        pass

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("ci", derandomize=True)
    if os.environ.get("CI"):
        settings.load_profile("ci")
