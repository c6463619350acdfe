import pytest

from marginseq import ScenarioConfig


@pytest.fixture
def scenario() -> ScenarioConfig:
    return ScenarioConfig(100.0, 0.1, 30.0)
