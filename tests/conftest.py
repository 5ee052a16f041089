"""An AccuracyWarning that a test does not expect fails it: every test runs
with that warning raised as an error (pytest.warns still catches it)."""

import pytest


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(pytest.mark.filterwarnings(
            "error::cauchykit.errors.AccuracyWarning"))
