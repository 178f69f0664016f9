import os
from pathlib import Path

import pytest

import nonconv


@pytest.fixture
def child_env():
    """The environment for a `python -m nonconv.cli` child: the package's source on PYTHONPATH.

    pytest finds the package through its own `pythonpath` setting, which a
    child interpreter does not inherit.
    """
    src = str(Path(nonconv.__file__).resolve().parent.parent)
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, rest] if rest else [src])}
