import copy
import math
import pickle
from pathlib import Path

import pytest

import qgame
from qgame import PayoffPair
from qgame.equilibrium import StrategyGrid
from qgame.scheme import GameMatrix, SchemeParams, StrategyParams
from qgame.verification import CheckResult, VerificationReport

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


GAME = dict(alice=((2, 0), (0, 1)), bob=((1, 0), (0, 2)))
GAME_TEXT = ("GameMatrix(alice=((2.0, 0.0), (0.0, 1.0)), bob=((1.0, 0.0), (0.0, 2.0)), "
             "bos=(2.0, 1.0, 0.0))")
CHECK = dict(name="x", value=0.0, tol=1e-9, passed=True)
CHECK_TEXT = "CheckResult(name='x', value=0.0, tol=1e-09, passed=True, note='')"
# each record type, the keyword arguments of one value and that value's repr
RECORDS = [
    (SchemeParams, dict(gamma=0.1, delta=0.2), "SchemeParams(gamma=0.1, delta=0.2)"),
    (StrategyParams, dict(theta=1, phi=0.5), "StrategyParams(theta=1.0, phi=0.5)"),
    (GameMatrix, GAME, GAME_TEXT),
    (PayoffPair, dict(alice=1.5, bob=-2.0), "PayoffPair(alice=1.5, bob=-2.0)"),
    (StrategyGrid, dict(theta_steps=5, phi_steps=3),
     "StrategyGrid(theta_steps=5, phi_steps=3, phi_range='narrow')"),
    (CheckResult, CHECK, CHECK_TEXT),
    (VerificationReport, dict(seed=0, game=GameMatrix(**GAME), checks=(CheckResult(**CHECK),)),
     f"VerificationReport(seed=0, game={GAME_TEXT}, checks=({CHECK_TEXT},))"),
]


@pytest.mark.parametrize("cls,kwargs,text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_are_immutable_values(cls, kwargs, text):
    value = cls(**kwargs)
    assert repr(value) == text
    twin = cls(*kwargs.values())
    assert value == twin and hash(value) == hash(twin)
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        value.extra = 0
    for copied in copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value)):
        assert type(copied) is cls and copied == value and repr(copied) == text


def test_game_bos_is_derived_not_passed():
    with pytest.raises(TypeError):
        GameMatrix(**GAME, bos=None)


@pytest.mark.parametrize("cls,kwargs,text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_make_and_replace_build_through_the_constructor(monkeypatch, cls, kwargs, text):
    value = cls(**kwargs)
    for made in cls._make(value), cls._make(list(value)), value._replace():
        assert type(made) is cls and made == value and repr(made) == text
    # _replace goes through _make, and _make through the constructor
    built = []
    monkeypatch.setattr(cls, "__new__", lambda cls_, *args: built.append(args) or value)
    assert cls._make(value) is value and value._replace() is value
    fields = (value.alice, value.bob) if cls is GameMatrix else tuple(value)  # bos is derived
    assert built == [fields, fields]


@pytest.mark.parametrize("make", [
    lambda: SchemeParams(0, 0)._replace(gamma=9),
    lambda: StrategyParams._make((math.nan, -1)),
    lambda: StrategyParams(0, 0)._replace(theta=100.0),
    lambda: PayoffPair(1.0, 2.0)._replace(bob=math.inf),
    lambda: StrategyGrid(5, 3)._replace(phi_range="wide"),
    lambda: GameMatrix._make((((1, 2), (3,)), ((1, 2), (3, 4)), None)),
], ids=["scheme-gamma", "strategy-make", "strategy-theta", "payoff-inf", "grid-phi-range",
        "game-cells"])
def test_make_and_replace_check_the_fields(make):
    with pytest.raises(ValueError):
        make()


def test_game_replace_cannot_keep_a_stale_bos():
    game = GameMatrix(**GAME)  # bos (2.0, 1.0, 0.0)
    with pytest.raises(ValueError, match=r"bos must be None, derived from the cells, "
                                         r"got \(2.0, 1.0, 0.0\)"):
        game._replace(alice=((5, 0), (0, 1)))
    with pytest.raises(ValueError, match=r"bos must be \(2.0, 1.0, 0.0\)"):
        game._make((game.alice, game.bob, (2.0, 1.0, 1.0)))
    plain = game._replace(alice=((5, 0), (0, 1)), bos=None)
    assert plain == GameMatrix(alice=((5, 0), (0, 1)), bob=GAME["bob"]) and plain.bos is None
    assert game._replace(bob=((1, 0), (0, 2))) == game
