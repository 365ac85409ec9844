"""The benchmark's layer tracer rebinds hypvol names in place; every name
it wraps must still exist where it looks, or a traced run cannot
install its wrappers."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_in_its_owner_dict():
    """For each (module, attribute path) of the tracer's TARGETS, the
    leaf is in the __dict__ of the object that owns it, which is where
    Tracer.install reads and rebinds it."""
    missing = []
    sites = [site for _, _, layer_sites in _load_tracing().TARGETS for site in layer_sites]
    assert sites
    for module_name, attr in sites:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        if leaf not in vars(owner):
            missing.append(f"{module_name}:{attr}")
    assert missing == []
