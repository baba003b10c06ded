"""Put the benchmark modules and the package sources on the import path,
and calibrate the critical d = 2 book once per session."""
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


@pytest.fixture(scope="session")
def book():
    import workloads
    from mildns import picard

    return picard.calibrate_thresholds(workloads._book())
