"""The benchmark's traced layers must name functions that exist.

``perfbench/run.py --trace`` replaces every function listed in
``perfbench/workloads.py``'s ``LAYERS`` by a timing wrapper, so a
cleanup that deletes or renames one of them breaks the trace.  This
test catches that in the Tier-1 run.
"""
import importlib
import importlib.util
import os

WORKLOADS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "workloads.py")


def test_every_traced_layer_resolves_in_its_module():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    missing = [
        f"{module}.{name}"
        for module, names in workloads.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"minflag.{module}"), name, None))
    ]
    assert not missing, f"perfbench LAYERS names functions minflag no longer has: {missing}"
    assert workloads.LAYERS
