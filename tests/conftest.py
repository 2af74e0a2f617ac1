"""Checks that hold after every test."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_process_left_running():
    """A test leaves no child process running, such as a worker of a pool
    that was not shut down."""
    yield
    assert multiprocessing.active_children() == [], "a child process outlived the test"
