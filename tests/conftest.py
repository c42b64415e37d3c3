"""Child processes that the tests start import the same ``tnad`` as the tests."""

import os
from pathlib import Path

import pytest

import tnad


@pytest.fixture(autouse=True, scope="session")
def children_import_the_tested_package():
    """Put the tested package's root first on every child's ``PYTHONPATH``, so a
    CLI child runs the checkout's code whether or not it is installed."""
    package_root = str(Path(tnad.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", path)
        yield
