"""Deterministic testing harnesses for the serving tier.

:mod:`repro.testing.faults` is the fault-injection harness: a seedable
:class:`~repro.testing.faults.FaultPlan` fires typed failures at named
sites inside the serving, cache, remote and WAL code paths, so every
recovery mechanism (transactional rollback, retry/backoff, quarantine,
sweeper survival) is exercised reproducibly in tests and
benchmarks rather than only under real production failures.
"""

from repro.testing.faults import (
    CI_STANDARD_PLAN,
    FaultPlan,
    FaultRule,
    active_plan,
    fault_plan,
    plan_from_env,
)

__all__ = [
    "CI_STANDARD_PLAN",
    "FaultPlan",
    "FaultRule",
    "active_plan",
    "fault_plan",
    "plan_from_env",
]
