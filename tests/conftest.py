import pytest


@pytest.fixture(autouse=True, scope="session")
def _no_budget_env():
    """Run every test without the caller's WALLKIT_BUDGET.  Session scope, so
    module fixtures are built without it too; a test that needs the variable
    sets it with monkeypatch."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("WALLKIT_BUDGET", raising=False)
        yield
