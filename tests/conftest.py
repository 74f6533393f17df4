"""Checks that hold for every test."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test that leaves a child process alive."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join(timeout=10)
    if left:
        pytest.fail(f"test left {len(left)} child process(es) running: {left}")
