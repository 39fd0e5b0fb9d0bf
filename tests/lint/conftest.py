import shutil
from pathlib import Path

import pytest

SRC_REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"


@pytest.fixture()
def real_tree(tmp_path):
    """A scratch copy of ``src/repro`` for seeded-mutation tests."""
    target = tmp_path / "repro"
    shutil.copytree(SRC_REPRO, target, ignore=shutil.ignore_patterns("__pycache__"))
    return target
