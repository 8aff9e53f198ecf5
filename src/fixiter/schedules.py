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
round-trippable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .errors import ContractError, ScheduleError


@dataclass(frozen=True)
class Schedule:
    kind: str
    params: tuple[tuple[str, object], ...]
    _fn: Callable[[int], float] = field(compare=False, repr=False)

    @staticmethod
    def constant(value: float) -> "Schedule":
        value = float(value)
        if not math.isfinite(value):
            raise ScheduleError(f"constant schedule needs a finite value, got {value}")
        return Schedule("constant", (("value", value),), lambda n: value)

    @staticmethod
    def geometric(ratio: float) -> "Schedule":
        ratio = float(ratio)
        if not math.isfinite(ratio):
            raise ScheduleError(f"geometric schedule needs a finite ratio, got {ratio}")
        return Schedule("geometric", (("ratio", ratio),), lambda n: ratio**n)

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
        )

    @staticmethod
    def table(values) -> "Schedule":
        vals = tuple(float(v) for v in values)
        if not vals:
            raise ScheduleError("table schedule needs at least one value")
        if not all(math.isfinite(v) for v in vals):
            raise ScheduleError(f"table schedule has non-finite entries: {vals}")
        return Schedule("table", (("values", vals),), lambda n: vals[min(n, len(vals)) - 1])

    @staticmethod
    def formula(fn: Callable[[int], float], label: str = "formula") -> "Schedule":
        return Schedule("formula", (("label", label),), fn)

    def at(self, n: int) -> float:
        if n < 1:
            raise ContractError(f"schedules are indexed from n = 1, got n = {n}")
        try:
            raw = self._fn(int(n))
            try:
                value = float(raw)
            except (TypeError, ValueError) as e:
                raise ScheduleError(f"{self.kind} schedule is not a real number at n = {n}: {raw!r}") from e
        except OverflowError as e:
            raise ScheduleError(f"{self.kind} schedule overflows at n = {n}") from e
        if not math.isfinite(value):
            raise ScheduleError(f"{self.kind} schedule is not finite at n = {n}: {value}")
        return value

    def to_dict(self) -> dict:
        if self.kind == "formula":
            raise ScheduleError("formula schedules are not serializable to scenario files")
        # A table's values are a list, as scenario files hold them.
        return {"kind": self.kind,
                "parameters": {k: list(v) if isinstance(v, tuple) else v for k, v in self.params}}
