"""Every name perfbench's traced run rebinds must exist in the package.

``perfbench/tracing.py`` wraps module-level names such as
``driveguard.cli.process_sample``; a refactor that drops one breaks the
traced benchmark run. This guard keeps that failure inside the test suite.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_rebinding_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.REBINDINGS
    missing = [f"{module}.{attr}"
               for module, attr, *_ in tracing.REBINDINGS
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
