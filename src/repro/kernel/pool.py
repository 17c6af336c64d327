"""Bulk vehicle kinematics: ``(N,)`` state arrays stepped together.

The :class:`KinematicsPool` owns position/speed/acceleration/jerk (and
per-slot physical parameters) as numpy arrays.  Each vehicle holds a
:class:`PooledDynamics` facade over one slot, exposing the exact
``VehicleDynamics`` API -- so the rest of the stack (sensors, beacons,
metrics, attacks) is oblivious to which kernel is running.

Bit-exactness contract
----------------------
:meth:`KinematicsPool.step_slots` mirrors
:meth:`repro.platoon.dynamics.VehicleDynamics.step` expression by
expression.  Every operation is IEEE-754 add/mul/div/min/max (identical
elementwise in numpy and CPython floats) and the one transcendental --
the first-order-lag factor -- comes from the shared, cached
:func:`repro.platoon.dynamics.lag_alpha`, so scalar and bulk stepping
produce bit-identical trajectories.  The differential suite in
``tests/kernel/`` enforces this.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence, Union

import numpy as np

from repro.obs import registry as obs
from repro.platoon.dynamics import (
    LongitudinalState,
    VehicleParams,
    lag_alpha,
)

_FloatArray = np.ndarray


class KinematicsPool:
    """Shared array storage for all pooled vehicles' longitudinal state."""

    def __init__(self, capacity: int = 16) -> None:
        capacity = max(capacity, 1)
        self._n = 0
        self.position = np.zeros(capacity)
        self.speed = np.zeros(capacity)
        self.acceleration = np.zeros(capacity)
        self.jerk = np.zeros(capacity)
        self.max_accel = np.zeros(capacity)
        self.max_decel = np.zeros(capacity)
        self.tau = np.zeros(capacity)
        self.max_speed = np.zeros(capacity)
        self._params: list[VehicleParams] = []
        self._alpha_cache: dict[float, _FloatArray] = {}

    def __len__(self) -> int:
        return self._n

    def _grow(self) -> None:
        new_cap = 2 * self.position.shape[0]
        for name in ("position", "speed", "acceleration", "jerk",
                     "max_accel", "max_decel", "tau", "max_speed"):
            old = getattr(self, name)
            fresh = np.zeros(new_cap)
            fresh[:old.shape[0]] = old
            setattr(self, name, fresh)

    def make_dynamics(self, params: VehicleParams,
                      initial: Optional[LongitudinalState] = None
                      ) -> "PooledDynamics":
        """Allocate a slot and return its ``VehicleDynamics``-shaped facade.

        Matches the ``VehicleDynamics(params, initial)`` constructor
        signature so it can be passed as a ``dynamics_factory``.
        """
        state = initial or LongitudinalState()
        if self._n == self.position.shape[0]:
            self._grow()
        slot = self._n
        self._n += 1
        self.position[slot] = state.position
        self.speed[slot] = state.speed
        self.acceleration[slot] = state.acceleration
        self.jerk[slot] = 0.0
        self.max_accel[slot] = params.max_accel
        self.max_decel[slot] = params.max_decel
        self.tau[slot] = params.tau
        self.max_speed[slot] = params.max_speed
        self._params.append(params)
        self._alpha_cache.clear()
        return PooledDynamics(self, slot, params)

    def _alphas(self, dt: float) -> _FloatArray:
        """Per-slot lag factors for a tick length, via the shared cache."""
        cached = self._alpha_cache.get(dt)
        if cached is None or cached.shape[0] != self._n:
            cached = np.array([lag_alpha(dt, p.tau) for p in self._params])
            self._alpha_cache[dt] = cached
        return cached

    def step_slots(self, dt: float,
                   idx: Union[Sequence[int], np.ndarray],
                   u: Union[Sequence[float], np.ndarray]) -> None:
        """Advance the selected slots by ``dt`` under commands ``u``.

        Expression-for-expression mirror of ``VehicleDynamics.step``;
        see the module docstring for the bit-exactness argument.
        """
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        idx = np.asarray(idx, dtype=np.intp)
        u = np.asarray(u, dtype=np.float64)
        obs.inc("dynamics.steps", int(idx.shape[0]))
        t0 = time.perf_counter() if obs.profiling_enabled() else None

        max_accel = self.max_accel[idx]
        max_decel = self.max_decel[idx]
        old_speed = self.speed[idx]
        old_accel = self.acceleration[idx]

        u = np.maximum(-max_decel, np.minimum(max_accel, u))

        # first-order actuation lag (exact discretisation)
        alpha = self._alphas(dt)[idx]
        new_accel = u + (old_accel - u) * alpha
        new_accel = np.maximum(-max_decel, np.minimum(max_accel, new_accel))

        new_speed = old_speed + new_accel * dt
        below = new_speed < 0.0
        if below.any():
            new_accel = np.where(below & (old_speed <= 0.0),
                                 np.maximum(new_accel, 0.0), new_accel)
            new_speed = np.where(below, 0.0, new_speed)
        max_speed = self.max_speed[idx]
        above = new_speed > max_speed
        if above.any():
            new_accel = np.where(above & (old_speed >= max_speed),
                                 np.minimum(new_accel, 0.0), new_accel)
            new_speed = np.where(above, max_speed, new_speed)

        avg_speed = 0.5 * (old_speed + new_speed)
        self.position[idx] = self.position[idx] + avg_speed * dt
        self.jerk[idx] = (new_accel - old_accel) / dt
        self.speed[idx] = new_speed
        self.acceleration[idx] = new_accel
        if t0 is not None:
            obs.observe("dynamics.step", time.perf_counter() - t0)


class _SlotState:
    """Live ``LongitudinalState``-shaped view of one pool slot.

    Mutating attributes writes straight through to the pool arrays,
    matching how callers mutate the plain dataclass held by the scalar
    ``VehicleDynamics``.
    """

    __slots__ = ("_pool", "_slot")

    def __init__(self, pool: KinematicsPool, slot: int) -> None:
        object.__setattr__(self, "_pool", pool)
        object.__setattr__(self, "_slot", slot)

    @property
    def position(self) -> float:
        return float(self._pool.position[self._slot])

    @position.setter
    def position(self, value: float) -> None:
        self._pool.position[self._slot] = value

    @property
    def speed(self) -> float:
        return float(self._pool.speed[self._slot])

    @speed.setter
    def speed(self, value: float) -> None:
        self._pool.speed[self._slot] = value

    @property
    def acceleration(self) -> float:
        return float(self._pool.acceleration[self._slot])

    @acceleration.setter
    def acceleration(self, value: float) -> None:
        self._pool.acceleration[self._slot] = value

    def __repr__(self) -> str:
        return (f"_SlotState(position={self.position}, speed={self.speed}, "
                f"acceleration={self.acceleration})")


class PooledDynamics:
    """``VehicleDynamics``-compatible facade over one pool slot."""

    def __init__(self, pool: KinematicsPool, slot: int,
                 params: VehicleParams) -> None:
        self.pool = pool
        self.slot = slot
        self.params = params
        self._state_view = _SlotState(pool, slot)

    @property
    def state(self) -> _SlotState:
        return self._state_view

    @state.setter
    def state(self, value) -> None:
        pool = self.pool
        pool.position[self.slot] = value.position
        pool.speed[self.slot] = value.speed
        pool.acceleration[self.slot] = value.acceleration

    @property
    def position(self) -> float:
        return float(self.pool.position[self.slot])

    @property
    def speed(self) -> float:
        return float(self.pool.speed[self.slot])

    @property
    def acceleration(self) -> float:
        return float(self.pool.acceleration[self.slot])

    @property
    def last_jerk(self) -> float:
        """Jerk realised over the last step; comfort metric input."""
        return float(self.pool.jerk[self.slot])

    def clamp_command(self, u: float) -> float:
        return max(-self.params.max_decel, min(self.params.max_accel, u))

    def step(self, dt: float, u: float) -> _SlotState:
        """Single-slot step, routed through the bulk array path.

        Using :meth:`KinematicsPool.step_slots` even for one vehicle
        keeps every trajectory on exactly one code path per kernel.
        """
        self.pool.step_slots(dt, (self.slot,), (u,))
        return self._state_view
