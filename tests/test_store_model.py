"""Model-based checks of the store contracts under generated interleavings.

A hypothesis state machine drives one local, durable PyTorch shard of a
:class:`~repro.api.DebloatEngine` through fresh and duplicate admits,
batches that repeat a spec, evictions, resets, admissions a fault rolls
back, and crashes (the engine dropped unclosed and reopened on its
durability directory).  The model is the admission ledger alone; after
every step the live store must equal a from-scratch ``admit_many`` of the
ledger's distinct specs - library bytes, union sizes and report rows -
and its published rows must equal rows recomputed from its own library
map, which is what the publish memo has to get right.  Duplicate
admissions take the store's no-merge fast path, so this suite is that
path's reference check.
"""

from __future__ import annotations

import shutil
import tempfile

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.api import DebloatEngine, EngineConfig
from repro.api.config import DurabilityConfig
from repro.core.debloat import DebloatOptions
from repro.core.report import LibraryReduction
from repro.errors import FaultError, WalAppendError
from repro.frameworks.catalog import get_framework
from repro.serving import store as store_mod
from repro.serving.store import DebloatStore
from repro.testing import faults
from repro.workloads.spec import TABLE1_WORKLOADS

from tests.conftest import TEST_SCALE

OPTS = DebloatOptions(verify=False, runtime_comparison_top_n=0)
BASE = [w for w in TABLE1_WORKLOADS if w.framework == "pytorch"]
#: Half-batch variants share their base's workload id, so one evict
#: removes both - the model has to follow that too.
SPECS = BASE + [w.variant(batch_size=max(1, w.batch_size // 2)) for w in BASE]
FAULT_SITES = ("store.merge", "store.process", "wal.append")
#: Rules draw positions in SPECS (a spec's repr is a whole model graph).
spec_at = st.integers(min_value=0, max_value=len(SPECS) - 1).map(
    lambda i: SPECS[i]
)

#: frozenset of live specs -> its from-scratch reference store.
_REFERENCES: dict[frozenset, DebloatStore] = {}


def reference(live: frozenset) -> DebloatStore:
    ref = _REFERENCES.get(live)
    if ref is None:
        framework = get_framework("pytorch", scale=TEST_SCALE)
        ref = DebloatStore(framework, OPTS, use_cache=True)
        ref.admit_many(sorted(live, key=SPECS.index))
        ref = _REFERENCES[live] = ref
    return ref


class StoreMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="store-model-")
        self.config = EngineConfig(
            scale=TEST_SCALE,
            options=OPTS,
            use_cache=True,
            durability=DurabilityConfig(
                enabled=True, directory=self.root, fsync="always"
            ),
        )
        self.engine = DebloatEngine(self.config).open()
        self.ledger: list = []

    def teardown(self) -> None:
        self.engine.close()
        shutil.rmtree(self.root, ignore_errors=True)

    @property
    def store(self) -> DebloatStore:
        return self.engine.federation.shard("pytorch").store

    def live(self) -> list:
        return [s for s in SPECS if s in self.ledger]

    # -- rules ----------------------------------------------------------------

    @precondition(lambda self: len(self.live()) < len(SPECS))
    @rule(data=st.data())
    def admit_fresh(self, data) -> None:
        fresh = [s for s in SPECS if s not in self.ledger]
        spec = fresh[data.draw(st.integers(0, len(fresh) - 1))]
        result = self.engine.federation.admit(spec)
        assert not result.duplicate
        self.ledger.append(spec)

    @precondition(lambda self: self.ledger)
    @rule(data=st.data())
    def admit_duplicate(self, data) -> None:
        live = self.live()
        spec = live[data.draw(st.integers(0, len(live) - 1))]
        result = self.engine.federation.admit(spec)
        assert result.duplicate
        assert (result.new_kernels, result.new_functions) == (0, 0)
        assert result.recompacted == ()
        self.ledger.append(spec)

    @rule(
        specs=st.lists(spec_at, min_size=1, max_size=3),
        repeat=st.integers(min_value=0, max_value=2),
    )
    def admit_many_with_repeat(self, specs, repeat) -> None:
        batch = list(specs)
        batch.insert(min(repeat + 1, len(batch)), batch[0])
        self.engine.federation.admit_many(batch)
        self.ledger.extend(batch)

    @precondition(lambda self: self.ledger)
    @rule(data=st.data())
    def evict(self, data) -> None:
        workload_id = data.draw(
            st.sampled_from(sorted({s.workload_id for s in self.ledger}))
        )
        self.engine.federation.evict(workload_id)
        self.ledger = [s for s in self.ledger if s.workload_id != workload_id]

    @precondition(lambda self: self.ledger)
    @rule()
    def reset(self) -> None:
        self.store.reset()
        self.ledger = []

    @rule(spec=spec_at, site=st.sampled_from(FAULT_SITES))
    def faulted_admit_rolls_back(self, spec, site) -> None:
        from repro.core import serialize

        before = serialize.stable_digest(self.store.export_state())
        plan = faults.FaultPlan((faults.FaultRule(site, ordinals=(1,)),))
        with faults.fault_plan(plan):
            try:
                self.engine.federation.admit(spec)
            except (FaultError, WalAppendError):
                assert plan.fired
            else:
                # A duplicate recompacts nothing, so a process fault has
                # nowhere to fire and the admission simply lands.
                assert not plan.fired and site == "store.process"
                self.ledger.append(spec)
                return
        assert serialize.stable_digest(self.store.export_state()) == before

    @rule()
    def crash_and_reopen(self) -> None:
        # Dropped unclosed: only what the WAL holds survives.
        self.engine = DebloatEngine(self.config).open()

    # -- the reference model ------------------------------------------------

    @invariant()
    def matches_from_scratch_union(self) -> None:
        store = self.store
        store.validate_invariants()
        snap = store.snapshot()
        assert snap.workload_ids == tuple(s.workload_id for s in self.ledger)
        live = self.live()
        if not live:
            assert snap.reductions == () and not snap.libraries
            return
        assert store.report(verify=False).workload_ids == list(
            snap.workload_ids
        )
        ref = reference(frozenset(live))
        ref_snap = ref.snapshot()
        assert (snap.union_kernels, snap.union_functions) == (
            ref_snap.union_kernels,
            ref_snap.union_functions,
        )
        assert sorted(snap.libraries) == sorted(ref_snap.libraries)
        for soname, d in snap.libraries.items():
            assert d.lib.data == ref_snap.libraries[soname].lib.data, soname
        framework = store.framework
        recomputed = tuple(
            LibraryReduction.from_debloated(
                framework.libraries[row.soname], snap.libraries[row.soname]
            )
            for row in ref_snap.reductions
        )
        assert snap.reductions == recomputed == ref_snap.reductions


def test_store_matches_model():
    run_state_machine_as_test(
        StoreMachine,
        settings=settings(
            max_examples=16,
            stateful_step_count=15,
            derandomize=True,
            database=None,
            deadline=None,
            suppress_health_check=list(HealthCheck),
        ),
    )


def test_evict_between_lookup_and_merge_still_merges(monkeypatch):
    """An evict lands after admit()'s unlocked usage lookup found the spec
    and before its locked merge: the merge must not trust the stale
    lookup, or the union would lose the re-admitted spec's usage."""
    framework = get_framework("pytorch", scale=TEST_SCALE)
    store = DebloatStore(framework, OPTS, use_cache=True)
    target, other = BASE[0], BASE[1]
    store.admit(target)
    store.admit(other)

    check = store_mod._check_spec
    calls = []

    def evict_on_locked_check(name, arch, spec):
        calls.append(spec)
        # Call 1 is admit()'s unlocked validation; call 2 runs under the
        # admission lock, after the unlocked usage lookup.
        if len(calls) == 2:
            store.evict(target.workload_id)
        return check(name, arch, spec)

    monkeypatch.setattr(store_mod, "_check_spec", evict_on_locked_check)
    result = store.admit(target)
    monkeypatch.setattr(store_mod, "_check_spec", check)

    assert len(calls) == 2
    assert result.new_kernels > 0 and result.recompacted
    store.validate_invariants()
    assert store.snapshot().workload_ids == (
        other.workload_id,
        target.workload_id,
    )
    ref = reference(frozenset((target, other)))
    assert store.snapshot().union_kernels == ref.snapshot().union_kernels
    assert store.snapshot().union_functions == ref.snapshot().union_functions
    for soname, d in store.debloated_libraries().items():
        assert d.lib.data == ref.debloated_libraries()[soname].lib.data
    assert store.snapshot().reductions == ref.snapshot().reductions
