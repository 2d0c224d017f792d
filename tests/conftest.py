import sys
from pathlib import Path

import numpy as np
import pytest

from resmaster.tiler import PatchLayout

sys.path.insert(0, str(Path(__file__).parent))

# The run layout of a 128x128 target tiled by 64/32 windows: 9 patches.
RUN_LAYOUT = PatchLayout((128, 128), (64, 64), (32, 32))


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
