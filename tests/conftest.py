import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_stray_child_processes():
    """Fail a test that leaves a child process running (a pool that was
    not shut down), after stopping it so later tests start clean."""
    yield
    stray = multiprocessing.active_children()
    names = [proc.name for proc in stray]
    for proc in stray:
        proc.terminate()
        proc.join()
    assert names == [], f"child processes left running: {names}"
