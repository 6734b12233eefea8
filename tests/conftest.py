"""Run every test inside its own temporary directory, so a test that writes a
relative path cannot dirty the checkout."""

import pytest


@pytest.fixture(autouse=True)
def _run_in_tmp_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
