"""Step-size and bound sequences: constructors, evaluation, serialization."""

import math
import re

import pytest

from fixiter import ContractError, RunConfig, Schedule, ScheduleError, Vector, make_example21, run_scheme


def test_constant():
    s = Schedule.constant(0.5)
    assert [s.at(n) for n in (1, 2, 100)] == [0.5, 0.5, 0.5]
    with pytest.raises(ScheduleError):
        Schedule.constant(math.inf)


def test_geometric_starts_at_first_power():
    s = Schedule.geometric(0.5)
    assert s.at(1) == 0.5
    assert s.at(3) == 0.125
    assert [s.at(n) for n in range(1, 5)] == [0.5, 0.25, 0.125, 0.0625]
    with pytest.raises(ScheduleError):
        Schedule.geometric(math.nan)


def test_harmonic_tail():
    s = Schedule.harmonic_tail()
    assert s.at(1) == 1.0
    assert s.at(4) == 0.25
    shifted = Schedule.harmonic_tail(scale=2.0, offset=1.0)
    assert shifted.at(1) == 1.0
    assert shifted.at(3) == 0.5
    with pytest.raises(ScheduleError):
        Schedule.harmonic_tail(offset=-1.0)


def test_table_holds_last_value():
    s = Schedule.table((0.2, 0.4, 0.6))
    assert [s.at(n) for n in (1, 2, 3, 4, 50)] == [0.2, 0.4, 0.6, 0.6, 0.6]
    with pytest.raises(ScheduleError):
        Schedule.table(())
    with pytest.raises(ScheduleError):
        Schedule.table((0.1, math.inf))


def test_formula():
    s = Schedule.formula(lambda n: 1.0 / n**2, "inverse_square")
    assert s.at(2) == 0.25
    assert [s.at(n) for n in range(1, 4)] == [1.0, 0.25, 1.0 / 9.0]
    with pytest.raises(ScheduleError, match="^formula schedule is not finite at n = 2: inf$"):
        Schedule.formula(lambda n: math.inf if n > 1 else 0.5).at(2)


@pytest.mark.parametrize("value", [1j, None, "half", [0.5]])
def test_formula_value_that_is_not_a_real_number_raises_schedule_error(value):
    s = Schedule.formula(lambda n: value, "bad")
    message = f"formula schedule is not a real number at n = 3: {value!r}"
    with pytest.raises(ScheduleError, match=re.escape(message)) as raised:
        s.at(3)
    assert isinstance(raised.value.__cause__, (TypeError, ValueError))
    config = RunConfig("mann", make_example21(0.5), Vector((0.7,)), alpha=s, max_steps=5)
    with pytest.raises(ScheduleError, match=re.escape(message.replace("n = 3", "n = 1"))):
        run_scheme(config)


def test_indexing_starts_at_one():
    s = Schedule.constant(0.3)
    for bad in (0, -1, -7):
        with pytest.raises(ContractError):
            s.at(bad)


def test_equality_ignores_evaluator_identity():
    assert Schedule.constant(0.5) == Schedule.constant(0.5)
    assert Schedule.geometric(0.5) != Schedule.geometric(0.25)
    assert Schedule.constant(0.5) != Schedule.geometric(0.5)


def test_to_dict_shape():
    d = Schedule.table((0.1, 0.2)).to_dict()
    assert d["kind"] == "table"
    assert list(d["parameters"]["values"]) == [0.1, 0.2]
    d = Schedule.harmonic_tail(scale=2.0, offset=3.0).to_dict()
    assert d == {"kind": "harmonic_tail", "parameters": {"scale": 2.0, "offset": 3.0}}


def test_formula_refuses_serialization():
    s = Schedule.formula(lambda n: 0.5, "half")
    with pytest.raises(ScheduleError):
        s.to_dict()
