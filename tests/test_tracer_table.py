"""The benchmark's tracer finds every name it wraps.

perfbench/tracer.py replaces ``owner.__dict__[attr]`` for each entry of its
_FUNCTIONS table.  A rename in relq would only show up as a failed traced
benchmark run, so this checks the table against the package here.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_is_in_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in tracer._FUNCTIONS if attr not in owner.__dict__]
    assert tracer._FUNCTIONS and missing == []
