import trotopt


def test_every_exported_name_resolves():
    """``from trotopt import *`` breaks on a name left in ``__all__`` after it moved."""
    missing = [name for name in trotopt.__all__ if not hasattr(trotopt, name)]
    assert missing == []
    namespace: dict = {}
    exec("from trotopt import *", namespace)
    assert set(trotopt.__all__) <= namespace.keys()
