"""Deterministic fault injection for the serving tier.

Every fault-tolerance mechanism in this repo - transactional admission
rollback, retry/backoff in the server workers, disk-cache quarantine,
sweeper survival - exists to handle failures that are rare and hard to
reproduce.  This module makes them cheap to reproduce: code at a handful
of **named fault sites** calls :func:`check`, and an active
:class:`FaultPlan` decides - deterministically, from its seed and
per-site invocation counters - whether that call raises an injected
failure.

Sites instrumented today:

=========================  ====================================================
``worker.pre_merge``       serving worker, before handing a spec to the store
                           (a "worker thread died mid-request" stand-in)
``store.merge``            inside the admission lock, per spec union merge
                           (mid-batch ``admit_many`` rollback)
``store.process``          per-library delta locate/compact inside a
                           transaction (mid-admission rollback)
``diskcache.read``         disk-tier entry decode (treated as a corrupt
                           entry: quarantined + recomputed)
``diskcache.write``        disk-tier entry persist (an ``OSError``)
``sweeper.tick``           the background sweeper's periodic sweep
``remote.send``            parent side, before writing a request frame to a
                           remote shard worker (a dropped connection)
``remote.recv``            parent side, before reading the worker's response
                           frame (worker died mid-request)
``shard.spawn``            remote shard supervisor, before forking a worker
                           process (spawn failure / restart storm)
``snapshot.read``          snapshot manifest/shard-image read (a torn or
                           corrupt on-disk snapshot)
``wal.append``             write-ahead log, before the record frame is
                           written (the admission rolls back, or - as a
                           kill - is lost unacknowledged)
``wal.fsync``              write-ahead log, before the physical fsync (a
                           power-loss window)
``wal.replay``             durability recovery, before applying one WAL
                           record to the store
``checkpoint.truncate``    durability checkpoint, after the snapshot export
                           but before the WAL truncation (the crash window
                           the watermark exists for)
``remote.heartbeat``       supervisor liveness probe, before pinging the
                           worker
=========================  ====================================================

Plans are **opt-in**: nothing fires unless a plan is activated, either
programmatically (:func:`activate` / the :func:`fault_plan` context
manager) or by the entry points that honour the ``REPRO_FAULT_PLAN``
environment variable (the serving CLI, the fault tests, and
``bench_faults.py``).  ``REPRO_FAULT_PLAN`` accepts a named plan
(``ci-standard``), optionally with a seed override (``ci-standard:123``),
or an inline rule spec::

    seed=42;worker.pre_merge@1;store.process%0.05;diskcache.read@2:corrupt

``site@N1,N2`` fires on those 1-based invocation ordinals of the site;
``site%RATE`` fires each invocation with probability RATE drawn from a
seeded per-rule stream; an optional ``:kind`` suffix picks the injected
failure (``fault`` | ``corrupt`` | ``oserror`` | ``kill`` | ``delay``).
``kill`` is the crash-matrix kind: instead of raising, it sends
``SIGKILL`` to the current process at the fault site, simulating a hard
crash with no chance to run cleanup - only meaningful in a child process
driven via ``REPRO_FAULT_PLAN``.  ``delay`` raises
nothing either: it stalls the site for :data:`DELAY_S` (a slow disk or a
loaded host), which is how deadline handling is rehearsed.

Determinism: each rule keeps its own invocation counter and (for rate
rules) its own :class:`~repro.utils.rng.RngStream` seeded from
``(plan seed, rule site)``, so the *k*-th matching invocation of a site
fires identically across runs.  Under a threaded server, which request
lands on which ordinal can vary with scheduling - the fault *pattern* per
site is reproducible, the victim assignment is whatever the schedule
produced (exactly like a real flaky component).
"""

from __future__ import annotations

import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, FaultError
from repro.utils.rng import RngStream

#: Environment variable naming (or spelling out) the plan to activate.
PLAN_ENV = "REPRO_FAULT_PLAN"

#: Injected-failure kinds a rule may request.
FAULT_KINDS = ("fault", "corrupt", "oserror", "kill", "delay")

#: How long a ``delay`` fault stalls its site, in seconds.
DELAY_S = 0.5


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: where, when, and what to raise.

    ``site`` matches an instrumented site exactly, or as a dotted prefix
    (rule ``wal`` matches sites ``wal.append`` and ``wal.fsync``).
    Exactly one of ``ordinals`` (fire on these 1-based matching
    invocations) or ``rate`` (independent per-invocation probability)
    must be set.
    """

    site: str
    ordinals: tuple[int, ...] | None = None
    rate: float | None = None
    kind: str = "fault"

    def __post_init__(self) -> None:
        if not self.site:
            raise ConfigurationError("fault rule needs a site name")
        if (self.ordinals is None) == (self.rate is None):
            raise ConfigurationError(
                f"fault rule {self.site!r} needs exactly one of ordinals "
                f"or rate"
            )
        if self.rate is not None and not (0.0 <= self.rate <= 1.0):
            raise ConfigurationError(
                f"fault rate must be in [0, 1], got {self.rate}"
            )
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.ordinals is not None:
            object.__setattr__(self, "ordinals", tuple(self.ordinals))

    def matches(self, site: str) -> bool:
        return site == self.site or site.startswith(self.site + ".")


@dataclass(frozen=True)
class FiredFault:
    """One injection that actually fired (for reporting/assertions)."""

    site: str
    rule_site: str
    ordinal: int
    kind: str


class FaultPlan:
    """A seeded set of :class:`FaultRule` with per-rule firing state.

    Thread-safe; a plan instance is single-use in the sense that its
    ordinal counters advance as sites are checked - :meth:`reset` rewinds
    them for a fresh run with identical behaviour.
    """

    def __init__(
        self, rules: tuple[FaultRule, ...] | list[FaultRule],
        seed: int = 0, name: str = "",
    ) -> None:
        self.rules = tuple(rules)
        self.seed = int(seed)
        self.name = name
        self._lock = threading.Lock()
        self._counts: dict[int, int] = {}
        self._streams: dict[int, RngStream] = {}
        self.fired: list[FiredFault] = []

    def reset(self) -> None:
        """Rewind every counter and RNG stream to the pristine state."""
        with self._lock:
            self._counts.clear()
            self._streams.clear()
            self.fired.clear()

    def check(self, site: str) -> None:
        """Raise the configured failure if any rule fires for ``site``."""
        for idx, rule in enumerate(self.rules):
            if not rule.matches(site):
                continue
            with self._lock:
                ordinal = self._counts.get(idx, 0) + 1
                self._counts[idx] = ordinal
                if rule.ordinals is not None:
                    fire = ordinal in rule.ordinals
                else:
                    stream = self._streams.get(idx)
                    if stream is None:
                        stream = self._streams[idx] = RngStream(
                            "fault-plan", self.seed, rule.site, rule.kind
                        )
                    fire = float(stream.uniform()) < rule.rate
                if fire:
                    self.fired.append(
                        FiredFault(site, rule.site, ordinal, rule.kind)
                    )
            if fire:
                if rule.kind == "kill":
                    # Hard crash: no exception, no cleanup, no atexit.
                    os.kill(os.getpid(), signal.SIGKILL)
                if rule.kind == "delay":
                    time.sleep(DELAY_S)
                    continue
                raise _exception_for(rule.kind, site, ordinal)

    def stats(self) -> dict[str, int]:
        """Fired-injection counts per rule site."""
        with self._lock:
            out: dict[str, int] = {}
            for fault in self.fired:
                out[fault.rule_site] = out.get(fault.rule_site, 0) + 1
            return out


def _exception_for(kind: str, site: str, ordinal: int) -> BaseException:
    if kind == "oserror":
        return OSError(f"injected I/O error at {site} (ordinal {ordinal})")
    # "fault" and "corrupt" both surface as FaultError; the site decides
    # what a corrupt payload means (the disk cache quarantines it).
    return FaultError(site, ordinal, kind)


# -- the active plan ----------------------------------------------------------

_ACTIVE: FaultPlan | None = None
_ACTIVE_LOCK = threading.Lock()


def active_plan() -> FaultPlan | None:
    return _ACTIVE


def activate(plan: FaultPlan) -> FaultPlan:
    """Make ``plan`` the process-wide active plan (sites start firing)."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        _ACTIVE = plan
    return plan


def deactivate() -> None:
    global _ACTIVE
    with _ACTIVE_LOCK:
        _ACTIVE = None


@contextmanager
def fault_plan(plan: FaultPlan):
    """Activate ``plan`` for the duration of a ``with`` block."""
    global _ACTIVE
    previous = _ACTIVE
    activate(plan)
    try:
        yield plan
    finally:
        with _ACTIVE_LOCK:
            _ACTIVE = previous


def check(site: str) -> None:
    """The fault site hook: a no-op unless a plan is active and fires.

    Instrumented code calls this unconditionally; with no active plan the
    cost is one global read and a ``None`` test.
    """
    plan = _ACTIVE
    if plan is not None:
        plan.check(site)


# -- named plans + env parsing ------------------------------------------------

#: Fixed seed of the CI plan; part of the reproducibility contract.
CI_STANDARD_SEED = 20250808

#: The acceptance-criteria plan: one worker kill, one mid-batch merge
#: fault, one mid-transaction process fault, one corrupt disk entry, and
#: one sweeper exception.  Every admission driven against it
#: must succeed after retry, and the end-state store must be
#: byte-identical to a fault-free run of the same arrivals.
#:
#: The remote-federation rules (``remote.*`` / ``shard.spawn`` /
#: ``snapshot.read``) only fire when those sites exist - i.e. under
#: ``remote_shards > 0`` or an explicit snapshot import - so the plan
#: stays byte-compatible for in-process runs: a dropped request frame, a
#: dropped response frame, one failed worker spawn (the supervisor's next
#: call retries it), and one corrupt snapshot read.
#:
#: The durability rules (``wal.*`` / ``checkpoint.truncate`` /
#: ``remote.heartbeat``) likewise only fire with durability or heartbeats
#: enabled, and every one is recovered from: a failed WAL append or fsync
#: rolls the admission back and raises a transient ``WalAppendError``
#: (counted in ``wal_failures``), so the server's retry policy re-admits
#: it and it lands exactly once; a truncate fault leaves the checkpoint
#: snapshot in place (the watermark makes the extra replay a no-op); and a
#: heartbeat fault is one failed probe.  ``wal.replay`` is deliberately
#: *not* in this plan: a replay fault aborts recovery rather than being
#: tolerated, so it belongs to the explicit crash matrix, not the
#: steady-state plan.
CI_STANDARD_PLAN = (
    FaultRule("worker.pre_merge", ordinals=(1,)),
    FaultRule("store.merge", ordinals=(2,)),
    FaultRule("store.process", ordinals=(4,)),
    FaultRule("diskcache.read", ordinals=(1,), kind="corrupt"),
    FaultRule("sweeper.tick", ordinals=(1,)),
    FaultRule("remote.send", ordinals=(2,)),
    FaultRule("remote.recv", ordinals=(4,)),
    FaultRule("shard.spawn", ordinals=(2,)),
    FaultRule("snapshot.read", ordinals=(3,), kind="corrupt"),
    FaultRule("wal.append", ordinals=(3,)),
    FaultRule("wal.fsync", ordinals=(2,), kind="oserror"),
    FaultRule("checkpoint.truncate", ordinals=(1,)),
    FaultRule("remote.heartbeat", ordinals=(2,)),
)

_NAMED_PLANS: dict[str, tuple[tuple[FaultRule, ...], int]] = {
    "ci-standard": (CI_STANDARD_PLAN, CI_STANDARD_SEED),
}


def named_plan(name: str, seed: int | None = None) -> FaultPlan:
    """Instantiate a registered plan (fresh counters every call)."""
    try:
        rules, default_seed = _NAMED_PLANS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown fault plan {name!r}; known: {sorted(_NAMED_PLANS)}"
        ) from None
    return FaultPlan(
        rules, seed=default_seed if seed is None else seed, name=name
    )


def parse_plan(text: str) -> FaultPlan:
    """Parse a ``REPRO_FAULT_PLAN`` value into a :class:`FaultPlan`.

    Accepts a named plan (``ci-standard`` / ``ci-standard:SEED``) or the
    inline ``seed=S;site@N1,N2[:kind];site%RATE[:kind]`` rule grammar
    documented in the module docstring.
    """
    text = text.strip()
    if not text:
        raise ConfigurationError("empty fault plan spec")
    head = text.split(";", 1)[0]
    if "@" not in head and "%" not in head and "=" not in head:
        name, _, seed_text = text.partition(":")
        return named_plan(
            name, int(seed_text) if seed_text else None
        )
    seed = 0
    rules: list[FaultRule] = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if part.startswith("seed="):
            seed = int(part[len("seed="):])
            continue
        body, _, kind = part.partition(":")
        kind = kind or "fault"
        if "@" in body:
            site, _, ordinal_text = body.partition("@")
            ordinals = tuple(
                int(tok) for tok in ordinal_text.split(",") if tok
            )
            rules.append(FaultRule(site, ordinals=ordinals, kind=kind))
        elif "%" in body:
            site, _, rate_text = body.partition("%")
            rules.append(FaultRule(site, rate=float(rate_text), kind=kind))
        else:
            raise ConfigurationError(
                f"fault rule {part!r} needs '@ordinals' or '%rate'"
            )
    if not rules:
        raise ConfigurationError(f"fault plan spec {text!r} has no rules")
    return FaultPlan(tuple(rules), seed=seed, name=text)


def plan_from_env() -> FaultPlan | None:
    """The plan named by ``$REPRO_FAULT_PLAN``, or None when unset/empty."""
    text = os.environ.get(PLAN_ENV, "").strip()
    if not text:
        return None
    return parse_plan(text)
