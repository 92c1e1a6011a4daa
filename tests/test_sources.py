import warnings
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "pursuitlab").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_compiles_without_warnings(path):
    # An invalid escape such as "\." in a non-raw string is a DeprecationWarning
    # on Python 3.10 and 3.11 and a SyntaxWarning from 3.12; as an error, the
    # module cannot be imported under -W error.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_bytes(), str(path), "exec")
