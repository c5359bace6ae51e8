from pathlib import Path

import qgame
from qgame import PayoffPair

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_names_resolve():
    # a name deleted from a module but left in __all__ breaks `import *`
    assert [name for name in qgame.__all__ if not hasattr(qgame, name)] == []
    namespace = {}
    exec("from qgame import *", namespace)
    assert set(qgame.__all__) <= set(namespace)


def test_readme_quick_tour_runs_as_documented():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library quick tour", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    assert namespace["oracle"] == namespace["formula"] == PayoffPair(1.0, 2.0)
    assert f"# {namespace['oracle']!r}" in block
    profiles, values = namespace["profiles"], namespace["values"]
    assert profiles.tolist() == [0, 3] and f"profiles = {profiles}" in block
    a, b = namespace["a"], namespace["b"]
    assert (a.tolist(), b.tolist()) == ([0, 1], [0, 1])
    assert f"a = {a} and b = {b}" in block
    assert values.tolist() == [[2.0, 1.0, 0.0], [1.0, 2.0, 0.0]]
    assert "# values = [[2. 1. 0.]\n#           [1. 2. 0.]]" in block
