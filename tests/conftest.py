"""Run every test inside its own temporary directory, so a test that writes a
relative path cannot dirty the checkout.

Hypothesis imports libcst, where installed, to write the patch file of a
failing ``@given`` test, and that import raises a DeprecationWarning (from
mypy_extensions.TypedDict); under ``-W error`` the report then ends in an
INTERNALERROR. Importing libcst once here, with that warning ignored, keeps
the report a plain failure. An ini ``filterwarnings`` entry cannot do this,
because the command line's ``-W error`` is applied after it.
"""

import importlib.util
import warnings

import pytest

if importlib.util.find_spec("libcst") is not None:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        import libcst  # noqa: F401


@pytest.fixture(autouse=True)
def _run_in_tmp_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
