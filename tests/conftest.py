import pytest

from steinberg import make_model


@pytest.fixture(scope="session")
def E():
    """Conductor-1406 curve with signs (+1, -1, -1) at (2, 19, 37)."""
    return make_model(1, 1, 1, -614, -5501)


@pytest.fixture(scope="session")
def Eprime():
    """Conductor-1406 curve with signs (+1, +1, -1) at (2, 19, 37)."""
    return make_model(1, -1, 1, -1191, 507615)


@pytest.fixture
def kernel_calls(monkeypatch):
    """The primes given to the point-count kernel while the test runs.

    Every caller reads `frobenius.count_reduced_points` at call time
    (`tate_local` imports it when it needs it), so one rebinding sees them all.
    """
    import steinberg.frobenius as frobenius

    kernel = frobenius.count_reduced_points
    calls = []

    def counting(model, p):
        calls.append(p)
        return kernel(model, p)

    monkeypatch.setattr(frobenius, "count_reduced_points", counting)
    return calls
