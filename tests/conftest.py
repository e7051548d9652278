import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from gfkernel import Domain, make_mollifier, standard_sequence

# test_cli starts `python -m gfkernel.cli` in a subprocess; point it at
# the sources this process imports, whether or not the package is installed
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                os.environ.get("PYTHONPATH")) if p)

# derandomize keeps CI runs byte-stable; deadline off because kernel
# evaluations are quadrature-heavy and time jitter is not a failure
settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# trimmed rate grid for unit tests; acceptance uses the full default grid
SHORT_KS = (8, 16, 32)


@pytest.fixture(scope="session")
def dom():
    return Domain.interval(-2.0, 2.0)


@pytest.fixture(scope="session")
def q3_seq(dom):
    return standard_sequence(dom, make_mollifier(3))


@pytest.fixture(scope="session")
def q1_seq(dom):
    return standard_sequence(dom, make_mollifier(1))


@pytest.fixture(scope="session")
def short_ks():
    return SHORT_KS
