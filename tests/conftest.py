"""Shared fixtures for the NPB-Python test suite."""

from __future__ import annotations

import warnings

import pytest

from repro.team import ProcessTeam, SerialTeam, ThreadTeam

# hypothesis imports libcst to explain a failing example, and libcst's
# import warns (a mypy_extensions DeprecationWarning).  Under a module's
# filterwarnings("error") that warning turned a test failure into a
# pytest INTERNALERROR; imported once here, nothing imports it later.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass

#: daemon_url / coordinator_url (tests/service/conftest.py) for every
#: suite, not only tests/service -- harness and obs tests serve too.
pytest_plugins = ["service.conftest"]


@pytest.fixture
def serial_team():
    with SerialTeam() as team:
        yield team


@pytest.fixture
def thread_team():
    with ThreadTeam(3) as team:
        yield team


@pytest.fixture
def process_team():
    with ProcessTeam(2) as team:
        yield team


@pytest.fixture(params=["serial", "threads", "process"])
def any_team(request):
    """One fixture that runs the test under every backend."""
    if request.param == "serial":
        team = SerialTeam()
    elif request.param == "threads":
        team = ThreadTeam(3)
    else:
        team = ProcessTeam(2)
    with team:
        yield team
