"""Custom maps without a closed-form power, and their catalog twins.

Each custom map evaluates exactly like a catalog map but is built with
``build_mapping(..., power=None)``, so every ``T^n`` goes through
``apply_power``'s n-fold loop.  The twin is the catalog map itself, whose
closed-form power gives the reference trajectory.

fixiter's functions are looked up on the package at call time, so a traced
build goes through the tracer's wrappers.
"""

from __future__ import annotations

import fixiter
from fixiter import Box, MappingMeta, NormedSpace, Schedule, Vector

_EXPAND, _SHRINK = 1.2, 0.5


def _example21(q: float):
    def apply(x: Vector) -> Vector:
        v = x.coords[0]
        return Vector((0.0,)) if v >= 1.0 else Vector((q * v,))

    meta = MappingMeta(
        declared_class="nearly_nonexpansive",
        known_fixed_points=(Vector((0.0,)),),
        a_schedule=Schedule.geometric(q),
        discontinuities=(Vector((1.0,)),),
    )
    return fixiter.build_mapping("example21_powerless", NormedSpace(1, 2.0), Box((0.0,), (1.0,)),
                         apply, None, meta, {"q": q})


def _swap_scale(dim: int):
    def apply(x: Vector) -> Vector:
        out = _SHRINK * x.array
        out[0] = _EXPAND * x.coords[1]
        out[1] = _SHRINK * x.coords[0]
        return Vector.from_array(out)

    lows = [-1.0, -1.0 / _EXPAND] + [-1.0] * (dim - 2)
    meta = MappingMeta(
        declared_class="asymptotically_nonexpansive",
        known_fixed_points=(Vector((0.0,) * dim),),
        lipschitz_L=_EXPAND,
        k_schedule=Schedule.table((_EXPAND, 1.0)),
    )
    return fixiter.build_mapping("swap_scale_powerless", NormedSpace(dim, 2.0),
                         Box(tuple(lows), tuple(-v for v in lows)), apply, None, meta, {"dim": dim})


def build_maps(specs: dict) -> dict:
    """The workload's power-less maps, keyed like ``specs``."""
    return {key: _example21(s["q"]) if s["kind"] == "example21" else _swap_scale(s["dim"])
            for key, s in specs.items()}


def build_twins(specs: dict) -> dict:
    """The catalog maps with closed-form powers that the power-less maps copy."""
    return {key: fixiter.make_example21(s["q"]) if s["kind"] == "example21"
            else fixiter.make_asymptotically_nonexpansive_example(s["dim"])
            for key, s in specs.items()}
