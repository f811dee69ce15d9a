import os
import subprocess
import sys
from pathlib import Path

import pytest

import shavis
from shavis import curves, dataio, localdata
from shavis.curves import WeierstrassModel


@pytest.fixture(scope="session")
def dataset():
    return dataio.load_dataset()


@pytest.fixture(scope="session")
def e1_52():
    return WeierstrassModel.from_list([0, 0, 0, 1, -10])


@pytest.fixture(scope="session")
def e2_364():
    return WeierstrassModel.from_list([0, 0, 0, -584, 5444])


def _record_calls(monkeypatch, module, name):
    """Wrap module.<name> so that the models handed to it are recorded."""
    calls = []
    real = getattr(module, name)

    def counting(model, *args):
        calls.append(model)
        return real(model, *args)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture
def minimal_model_calls(monkeypatch):
    """The models handed to curves.minimal_model while the test runs."""
    return _record_calls(monkeypatch, curves, "minimal_model")


@pytest.fixture
def invariants_calls(monkeypatch):
    """The models handed to curves.invariants (Fraction arithmetic) while the
    test runs."""
    return _record_calls(monkeypatch, curves, "invariants")


@pytest.fixture
def conductor_calls(monkeypatch):
    """The models handed to localdata.conductor while the test runs."""
    return _record_calls(monkeypatch, localdata, "conductor")


@pytest.fixture
def tate_calls(monkeypatch):
    """The models handed to localdata.tate_algorithm while the test runs,
    one entry per prime."""
    return _record_calls(monkeypatch, localdata, "tate_algorithm")


@pytest.fixture
def cold_curve_facts():
    """An empty localdata.curve_facts memo at the start of the test, so that
    what it counts does not depend on which curves earlier tests left there."""
    localdata.curve_facts.cache_clear()


@pytest.fixture(scope="session")
def run_python():
    """Run a Python snippet in a fresh interpreter that imports this shavis;
    returns its stripped stdout."""
    src = str(Path(shavis.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)

    def run(code: str, *flags: str) -> str:
        done = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout.strip()

    return run
