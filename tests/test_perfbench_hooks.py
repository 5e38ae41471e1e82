"""The traced benchmark run patches library names; each must exist and be restored.

perfbench/tracing.py looks every patched name up in its owner's __dict__,
so renaming or deleting one of them breaks `perfbench/run.py --trace 1`.
This imports it the way perfbench/test_perfbench.py does and fails fast.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import tracing  # noqa: E402


def test_instrumentation_patches_and_restores_every_name():
    instrumentation = tracing.Instrumentation(tracing.Tracer())
    with instrumentation:
        patched = list(instrumentation._saved)
        assert all(owner.__dict__[attr] is not original for owner, attr, original in patched)
    assert patched
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, (owner, attr)


def test_record_simulation_layers_are_traced():
    # The traced run attributes time to the Born layer and to shot
    # sampling through the names simulate_records calls in `sensing`.
    from paulitomo import ghz, sensing
    from paulitomo.cli import all_settings

    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer):
        sensing.simulate_records(ghz(3), all_settings(3), 16, seed=0)
    names = {span[0] for span in tracer.spans}
    assert {"measurements.born", "measurements.sample_record", "baselines.simulate_records"} <= names
