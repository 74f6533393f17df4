"""README's Python example runs as written against the package's API."""

import os
import re

import numpy as np

from driveguard.stream import TRACE_HEADER

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def python_blocks():
    with open(README, encoding="utf-8") as fh:
        return re.findall(r"^```python\n(.*?)^```$", fh.read(), re.M | re.S)


def test_readme_python_example_runs():
    blocks = python_blocks()
    assert blocks
    for block in blocks:
        namespace = {}
        exec(compile(block, README, "exec"), namespace)
        # the example ends with a trace in TRACE_HEADER's columns
        trace = namespace["trace"]
        assert trace.dtype == np.float64
        assert trace.shape[1] == len(TRACE_HEADER.split(",")) == 7
        assert len(trace) > 0
