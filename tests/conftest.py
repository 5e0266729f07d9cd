import hypothesis
import numpy as np
import pytest

from feir.losses import SuitabilityOrder

np.seterr(over="warn", divide="warn", invalid="warn", under="ignore")

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=50, derandomize=True
)
hypothesis.settings.register_profile("thorough", deadline=None, max_examples=300)
hypothesis.settings.load_profile("default")


@pytest.fixture
def order_builds(monkeypatch):
    """A list that grows by one entry per SuitabilityOrder built."""
    builds = []
    init = SuitabilityOrder.__init__

    def counting_init(self, S):
        builds.append(np.shape(S))
        init(self, S)

    monkeypatch.setattr(SuitabilityOrder, "__init__", counting_init)
    return builds
