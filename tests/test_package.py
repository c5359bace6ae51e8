import qgame


def test_all_names_resolve():
    # a name deleted from a module but left in __all__ breaks `import *`
    assert [name for name in qgame.__all__ if not hasattr(qgame, name)] == []
    namespace = {}
    exec("from qgame import *", namespace)
    assert set(qgame.__all__) <= set(namespace)
