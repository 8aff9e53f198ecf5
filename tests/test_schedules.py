"""Step-size and bound sequences: constructors, evaluation, serialization."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fixiter import (ContractError, RunConfig, Schedule, ScheduleError, Vector, make_example21, run_scheme,
                     validate_schedule)
from fixiter.schedules import _Memo


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


def _index_message(n) -> str:
    return f"^{re.escape(f'schedules are indexed by whole numbers from n = 1, got n = {n}')}$"


def test_indexing_starts_at_one():
    s = Schedule.constant(0.3)
    for bad in (0, -1, -7):
        with pytest.raises(ContractError, match=_index_message(bad)):
            s.at(bad)
        with pytest.raises(ContractError, match=_index_message(bad)):
            s.values(bad, 3)
    with pytest.raises(ContractError, match=_index_message(-1)):
        s.values(1, -1)  # last = first - 1 = 0 is an empty range


@pytest.mark.parametrize("bad", [2.5, 1.9, 0.5, math.nan, math.inf, -math.inf, "3", 1j])
@pytest.mark.parametrize("s", [Schedule.constant(0.3), Schedule.geometric(2.0), Schedule.formula(lambda n: 0.5)],
                         ids=["constant", "geometric", "formula"])
def test_an_index_that_is_not_a_whole_number_is_refused(s, bad):
    # 2.5 used to read at(2) and 1.9 at(1); nan escaped as a bare ValueError, and
    # inf read as "geometric schedule overflows at n = inf".
    for read in (lambda: s.at(bad), lambda: s.values(bad, 3), lambda: s.values(1, bad)):
        with pytest.raises(ContractError, match=_index_message(bad)):
            read()


def test_whole_valued_floats_and_numpy_integers_are_indexes():
    s = Schedule.table((0.2, 0.4, 0.6))
    assert [s.at(2.0), s.at(np.int64(3)), s.at(np.uint8(1)), s.at(np.float64(2.0))] == [0.4, 0.6, 0.2, 0.4]
    assert s.values(np.int64(2), 4.0).tolist() == [0.4, 0.6, 0.6]
    assert s.values(3, 2).tolist() == []
    with pytest.raises(ContractError, match=_index_message(1)):
        s.values(3, 1)
    with pytest.raises(ScheduleError, match="^geometric schedule overflows at n = 1100$"):
        Schedule.geometric(2.0).at(1100.0)


def _outcome(call):
    """What ``call`` returns, as the bits of a float64 array, or the type and text of what it raises."""
    try:
        return np.asarray(call(), dtype=float).tobytes()
    except Exception as e:
        return type(e), str(e)


def _read_in_order(s, first, last, until=None):
    """at(n) for n = first .. last, in order, to the first value ``until`` holds for: the reference."""
    read = []
    for n in range(first, last + 1):
        read.append(s.at(n))
        if until is not None and until(read[-1]):
            break
    return read


def _formula(values, calls):
    """A formula schedule that logs each n it is called with and gives ``values[n]``, raising
    an exception that is there, or 0.5 past the end."""
    def fn(n):
        calls.append(n)
        v = values.get(n, 0.5)
        if isinstance(v, Exception):
            raise v
        return v
    return Schedule.formula(fn, "drawn")


_REALS = st.floats(allow_nan=False, allow_infinity=False)
_ODD = st.sampled_from([math.inf, -math.inf, math.nan, 1j, None, "half", ValueError("no value"),
                        OverflowError("too big")])
_SCHEDULES = st.one_of(
    _REALS.map(Schedule.constant),
    st.one_of(st.floats(-1e3, 1e3), st.sampled_from([2.0, -2.0, 1.5, -1.000001, 1.0, -1.0, 0.0, -0.0]))
    .map(Schedule.geometric),
    st.builds(Schedule.harmonic_tail, st.one_of(_REALS, st.sampled_from([1e308, -1e308])),
              st.one_of(st.floats(-1.0, 1e6, exclude_min=True),
                        st.sampled_from([np.nextafter(-1.0, 0.0), -1.0 + 1e-12, -0.5]))),
    st.lists(_REALS, min_size=1, max_size=5).map(Schedule.table),
    st.dictionaries(st.integers(1, 60), st.one_of(_REALS, _ODD), max_size=4),  # a formula's odd values
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_SCHEDULES, st.one_of(st.integers(1, 1500), st.integers(2**63 - 1600, 2**63 + 100)), st.integers(-1, 1500),
       st.sampled_from([None, 0.0, 0.5, 1.0, 1e300]))
@example(Schedule.harmonic_tail(1.0, 0.5), 2**63 - 4, 4, None)  # an index array would pass int64's end
@example(Schedule.table((0.1, 0.2)), 2**63 - 2, 0, None)
@example(Schedule.geometric(2.0), 1, 1500, 1.0)
@example(Schedule.geometric(-2.0), 1000, 1100, None)
@example(Schedule.harmonic_tail(1e308, float(np.nextafter(-1.0, 0.0))), 1, 5, None)
@example({3: 1j, 5: math.inf}, 1, 9, None)
@example({4: 2.0, 6: ValueError("past the stop")}, 1, 9, 1.0)
def test_values_has_the_bits_and_the_first_error_of_at_in_order(s, first, width, bound):
    last = first + width
    until = None if bound is None else (lambda v: v >= bound)
    if isinstance(s, dict):  # a formula: both reads make the same calls, in order
        ours, theirs = [], []
        got = _outcome(lambda: _formula(s, ours).values(first, last, until))
        want = _outcome(lambda: _read_in_order(_formula(s, theirs), first, last, until))
        assert ours == theirs
    else:
        got = _outcome(lambda: s.values(first, last, until))
        want = _outcome(lambda: _read_in_order(s, first, last, until))
    assert got == want


@pytest.mark.parametrize("s, violated", [
    (Schedule.geometric(2.0), "alpha(1) = 2.0 outside (0, 1)"),  # overflows from n = 1024
    (Schedule.geometric(-3.0), "alpha(1) = -3.0 outside (0, 1)"),
    (Schedule.table((0.5, 0.25, 1.0)), "alpha(3) = 1.0 outside (0, 1)"),
    (Schedule.harmonic_tail(2.0, 0.0), "alpha(1) = 2.0 outside (0, 1)"),
    (Schedule.constant(0.0), "alpha(1) = 0.0 outside (0, 1)"),
    (Schedule.constant(0.5), None),
])
def test_a_range_check_reads_nothing_past_its_first_violation(s, violated):
    # Read through a run's reader, as run_scheme reads it, which keeps what the check read.
    reader = _Memo(s)
    check = validate_schedule("modified_mann", reader, horizon=10_000).checks[0]
    if violated is None:
        assert (check.status, len(reader.read)) == ("satisfied", 10_000)
    else:
        assert (check.status, check.detail) == ("violated", violated)
        assert reader.read == _read_in_order(s, 1, 10_000, lambda v: not 0.0 < v < 1.0)


def test_a_range_check_on_a_formula_reads_in_order_and_stops_at_its_first_violation():
    # A side-effecting formula sees each alpha(n) once, in order, and none past
    # the first violation, which a later error would otherwise hide.
    calls = []
    s = _formula({7: 1.5, 8: ValueError("past the violation"), 9: math.inf}, calls)
    reader = _Memo(s)
    check = validate_schedule("mann", reader, horizon=500).checks[0]
    assert calls == [*range(1, 8)]
    assert (check.status, check.detail, reader.read) == ("violated", "alpha(7) = 1.5 outside [0, 1)",
                                                         [0.5] * 6 + [1.5])
    calls.clear()
    assert validate_schedule("mann", s, horizon=500).verdict == "violated"
    assert calls == [*range(1, 8)]


def test_a_reader_reads_each_n_once_and_keeps_what_it_read_before_an_error():
    calls = []
    reader = _Memo(_formula({8: ValueError("no value at n = 8")}, calls))
    with pytest.raises(ValueError, match="no value at n = 8"):
        reader.values(5, 20)
    assert (calls, reader.read) == ([*range(1, 9)], [0.5] * 7)
    assert reader.values(2, 7).tolist() == [0.5] * 6 and reader[7] == 0.5
    with pytest.raises(ValueError, match="no value at n = 8"):  # the error kept, not a call again
        reader[8]
    assert calls == [*range(1, 9)]
    # A schedule with an array form is read by one values call, with its bits.
    s = Schedule.harmonic_tail(1.0, 0.5)
    reader = _Memo(s)
    assert reader.values(3, 6).tolist() == s.values(3, 6).tolist() and reader.read == s.values(1, 6).tolist()
    assert [reader[n] for n in (1, 6, 9)] == [s.at(n) for n in (1, 6, 9)] and len(reader.read) == 9


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
