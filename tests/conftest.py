import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    try:
        import tieupkit  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(SRC))

import tieupkit  # noqa: E402

DATA = Path(__file__).resolve().parent / "data"
BENCH = Path(__file__).resolve().parent.parent / "bench"
# The resource files the imported package ships.
PACKAGED = Path(tieupkit.__file__).resolve().parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def resources():
    from tieupkit.cli import load_resources

    return load_resources()


def load_doc(name: str):
    from tieupkit.tokens import parse_document

    path = DATA / "corpus" / f"{name}.tok"
    return parse_document(path.read_text("utf-8"), str(path))


def bench_corpora():
    """The benchmark's corpus generators (``bench/corpora.py``)."""
    sys.path.insert(0, str(BENCH))
    try:
        import corpora
    finally:
        sys.path.remove(str(BENCH))
    return corpora
