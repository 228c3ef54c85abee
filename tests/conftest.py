"""Session setup shared by every test module.

hypothesis imports ``hypothesis.extra._patching`` the first time it reports a
failing test, and that import pulls in libcst, which warns a
DeprecationWarning (``mypy_extensions.TypedDict``).  Under ``-W error`` the
warning escapes hypothesis's report hook and ends the session with
INTERNALERROR instead of a report.  Importing the module once here, with only
that category ignored, leaves nothing for the hook to warn about.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:     # an older hypothesis, or libcst missing
        pass
