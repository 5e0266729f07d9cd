import contextlib
from pathlib import Path

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


@pytest.fixture
def cut_second_write(monkeypatch):
    """cut(module, name, error, at=2) makes the at-th write to a file whose
    name ends with `name`, opened by `module` through `_replacing`, raise
    `error`, so the file is cut mid-write (at=1: before its first byte); the
    real `_replacing` still handles the failure."""

    def cut(module, name, error, at=2):
        real = module._replacing

        @contextlib.contextmanager
        def replacing(path, *args, **kwargs):
            with real(path, *args, **kwargs) as fh:
                if not Path(path).name.endswith(name):
                    yield fh
                    return
                writes = []

                class Cut:
                    def write(self, data):
                        writes.append(data)
                        if len(writes) == at:
                            raise error("cut mid-write")
                        return fh.write(data)

                yield Cut()

        monkeypatch.setattr(module, "_replacing", replacing)

    return cut
