"""The benchmark harness under perfbench/ still finds every name it uses.

Its tracer rebinds names in the package's modules, and its microbenchmarks
call the package directly; a removed or renamed name fails here, not only
in a traced benchmark run.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import micro  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_microbenchmarks_run_under_the_tracer():
    with Tracer().installed():
        figures = micro.run()
    assert figures
    for name, (value, _unit) in figures.items():
        assert math.isfinite(value) and value > 0.0, name
