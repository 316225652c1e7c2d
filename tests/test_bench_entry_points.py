"""Every entry point that perfbench/tracer.py wraps still resolves.

The tracer rebinds radlab functions by module and qualified name, and an
entry point it cannot find is only listed as absent: its layer then reads
zero and the traced run goes on. So a rename in radlab would silently empty
a per-layer metric unless this test fails first.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# names the tracer lists for code that has since been deleted; each may stay
# absent until the tracer drops it, and no other name may be absent
STALE = {
    ("radlab.group", "pair_group"),
    ("radlab.verify", "_equivalence_task"),
    ("radlab.verify", "_cvl_task"),
}


def tracer_layers():
    """LAYERS of perfbench/tracer.py, loaded from the file as it stands."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def resolve(module_name, qualname):
    """The object the tracer would wrap, or None where it finds none."""
    owner = importlib.import_module(module_name)
    for part in qualname.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_every_traced_entry_point_resolves():
    layers = tracer_layers()
    assert layers
    absent = set()
    for layer in layers:
        found = 0
        for module_name, qualname in layer.entries:
            target = resolve(module_name, qualname)
            if target is None:
                absent.add((module_name, qualname))
            else:
                assert callable(target), (layer.name, module_name, qualname)
                found += 1
        assert found, layer.name
    assert absent <= STALE, sorted(absent - STALE)
