import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# JSON files that every reader of the package must refuse with one line
# naming the file: nesting beyond the parser's recursion limit, a byte that
# is not UTF-8, and an integer beyond the int-conversion digit limit.
MALFORMED_JSON = {
    "deeply-nested": b"[" * 200_000 + b"]" * 200_000,
    "not-utf-8": b'{"version": 1, "seed": "\xff"}',
    "5000-digit-integer": b'{"version": 1, "seed": ' + b"9" * 5000 + b"}",
}


@pytest.fixture(params=sorted(MALFORMED_JSON))
def malformed_json(request, tmp_path):
    path = tmp_path / f"{request.param}.json"
    path.write_bytes(MALFORMED_JSON[request.param])
    return path
