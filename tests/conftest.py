import dataclasses

import pytest


@pytest.fixture
def rebuilt():
    """Pass a dataclass value back through its public, validating constructor."""

    def rebuild(value):
        return type(value)(*(getattr(value, f.name) for f in dataclasses.fields(value)))

    return rebuild
