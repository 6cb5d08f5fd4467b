"""Shared fixtures."""

from types import SimpleNamespace

import pytest


@pytest.fixture
def spy(monkeypatch):
    """``spy(module, name)`` wraps ``module.name`` for the rest of the test
    and returns the list its calls are appended to, each with ``args``,
    ``kwargs`` and ``result``. ``snapshot(*args, **kwargs)``, if given, runs
    just before each call and its value is kept as the call's ``snapshot``:
    what a mutable argument held when the call was made.

    A call is seen when it looks the name up on the module at call time: a
    call through the module attribute (``ad.softmax``), or a bare-name call
    inside ``module`` itself.
    """
    def install(module, name, snapshot=None):
        real, calls = getattr(module, name), []

        def wrapper(*args, **kwargs):
            seen = snapshot(*args, **kwargs) if snapshot is not None else None
            result = real(*args, **kwargs)
            calls.append(SimpleNamespace(args=args, kwargs=kwargs, result=result,
                                         snapshot=seen))
            return result

        monkeypatch.setattr(module, name, wrapper)
        return calls

    return install
