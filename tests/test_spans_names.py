"""The benchmark tracer's patch list names only functions that exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "benchmark" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_sumred():
    spans = _load_spans()
    pairs = list(spans.SPANNED) + [(mod, attr)
                                   for mod, attr, _label in spans.COUNTED]
    missing = []
    for mod, attr in pairs:
        owner = importlib.import_module(f"sumred.{mod}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{mod}.{attr}")
    assert missing == []
