"""Coefficient schedules: deterministic real sequences indexed from n = 1.

A ``Schedule`` is one of five kinds:

* ``constant``       -- at(n) = c
* ``geometric``      -- at(n) = r**n
* ``harmonic_tail``  -- at(n) = scale / (n + offset)
* ``table``          -- explicit leading values; the last value repeats so
                        at(n) stays defined for every n
* ``formula``        -- arbitrary callable (library use only; not accepted in
                        scenario files)

Schedules compare equal by kind and parameters, which keeps parsed scenarios
round-trippable.  ``at(n)`` reads one value and ``values(first, last)`` a run
of them as one array, with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ContractError, ScheduleError


@dataclass(frozen=True)
class Schedule:
    kind: str
    params: tuple[tuple[str, object], ...]
    _fn: Callable[[int], float] = field(compare=False, repr=False)
    # The values for n = first .. last as one array, or None to read at(n) in turn.
    _rows: Callable[[int, int], np.ndarray] | None = field(default=None, compare=False, repr=False)

    @staticmethod
    def constant(value: float) -> "Schedule":
        value = float(value)
        if not math.isfinite(value):
            raise ScheduleError(f"constant schedule needs a finite value, got {value}")
        return Schedule("constant", (("value", value),), lambda n: value,
                        lambda first, last: np.full(last - first + 1, value))

    @staticmethod
    def geometric(ratio: float) -> "Schedule":
        ratio = float(ratio)
        if not math.isfinite(ratio):
            raise ScheduleError(f"geometric schedule needs a finite ratio, got {ratio}")
        # Python's ** per element, since np.power may differ in the last bit.
        return Schedule("geometric", (("ratio", ratio),), lambda n: ratio**n,
                        lambda first, last: np.array([ratio**n for n in range(first, last + 1)], dtype=float))

    @staticmethod
    def harmonic_tail(scale: float = 1.0, offset: float = 0.0) -> "Schedule":
        scale, offset = float(scale), float(offset)
        if not (math.isfinite(scale) and math.isfinite(offset)):
            raise ScheduleError(f"harmonic_tail schedule needs a finite scale and offset, got {scale}, {offset}")
        if offset <= -1.0:
            raise ScheduleError(f"harmonic_tail offset must be > -1 so at(1) is defined, got {offset}")
        return Schedule(
            "harmonic_tail",
            (("scale", scale), ("offset", offset)),
            lambda n: scale / (n + offset),
            lambda first, last: scale / (np.arange(first, last + 1) + offset),
        )

    @staticmethod
    def table(values) -> "Schedule":
        vals = tuple(float(v) for v in values)
        if not vals:
            raise ScheduleError("table schedule needs at least one value")
        if not all(math.isfinite(v) for v in vals):
            raise ScheduleError(f"table schedule has non-finite entries: {vals}")
        return Schedule("table", (("values", vals),), lambda n: vals[min(n, len(vals)) - 1],
                        lambda first, last: np.array(vals)[np.minimum(np.arange(first, last + 1), len(vals)) - 1])

    @staticmethod
    def formula(fn: Callable[[int], float], label: str = "formula") -> "Schedule":
        return Schedule("formula", (("label", label),), fn)

    def at(self, n: int) -> float:
        n = _index(n)
        try:
            raw = self._fn(n)
            try:
                value = float(raw)
            except (TypeError, ValueError) as e:
                raise ScheduleError(f"{self.kind} schedule is not a real number at n = {n}: {raw!r}") from e
        except OverflowError as e:
            raise ScheduleError(f"{self.kind} schedule overflows at n = {n}") from e
        if not math.isfinite(value):
            raise ScheduleError(f"{self.kind} schedule is not finite at n = {n}: {value}")
        return value

    def values(self, first: int, last: int, until: Callable | None = None) -> np.ndarray:
        """at(n) for n = first .. last as one float64 array with at's bits,
        empty when last = first - 1.  A ``formula`` reads at(n) in order, and
        so does every kind where its array overflows or is not finite, which
        raises at's error at the first bad n.  ``until``, a test of a value
        that also applies elementwise to an array, ends the values at the
        first one it holds for: no n past it is read in order or raised on."""
        first = _index(first)
        last = _index(last, first - 1)
        got = None
        if self._rows is not None and last < 2**63 - 1:  # an index past int64 is read by at(n)
            try:
                with np.errstate(all="ignore"):
                    got = self._rows(first, last)
            except (OverflowError, ScheduleError):
                pass
        if got is not None and np.isfinite(got).all():
            stop = np.flatnonzero(until(got)) if until is not None else ()
            return got[:stop[0] + 1] if len(stop) else got
        return np.array(_Memo(self)._in_order(first, last, until), dtype=float)

    def to_dict(self) -> dict:
        if self.kind == "formula":
            raise ScheduleError("formula schedules are not serializable to scenario files")
        # A table's values are a list, as scenario files hold them.
        return {"kind": self.kind,
                "parameters": {k: list(v) if isinstance(v, tuple) else v for k, v in self.params}}


class _Memo:
    """One run's reader of a schedule: ``memo[n]`` and ``read[n - 1]`` are at(n),
    read once each in order from n = 1, as arrays where the schedule has them.
    An at(n) that raises keeps the values before it, and its error to raise again."""

    def __init__(self, schedule: Schedule):
        self.schedule, self.read, self.error = schedule, [], None

    def __getitem__(self, n: int) -> float:
        if n > len(self.read):
            self.values(n, n)
        return self.read[n - 1]

    def values(self, first: int, last: int, until: Callable | None = None) -> np.ndarray:
        """As ``Schedule.values``; ``until`` ends the values read from the schedule."""
        read = self.read
        if last > len(read):
            if self.schedule._rows is None:
                self._in_order(len(read) + 1, last, until)
            else:
                read.extend(self.schedule.values(len(read) + 1, last, until).tolist())
        return np.array(read[first - 1:last], dtype=float)

    def _in_order(self, first: int, last: int, until: Callable | None) -> list[float]:
        """``read`` with at(n) for n = first .. last appended, to the first value ``until`` holds for."""
        if self.error is not None:
            raise self.error
        try:
            for n in range(first, last + 1):
                self.read.append(self.schedule.at(n))
                if until is not None and until(self.read[-1]):
                    break
        except Exception as e:
            self.error = e
            raise
        return self.read


def _index(n, least: int = 1) -> int:
    """n as an int, when it is a whole number >= least."""
    try:
        if int(n) == n >= least:
            return int(n)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ContractError(f"schedules are indexed by whole numbers from n = 1, got n = {n}")
