"""Structured environment snapshots (the pickle-free resume path).

Phase-II impact analysis checkpoints the guest at each candidate's first
interception site and resumes once per candidate × mechanism.  The capture
is plain data walked once at snapshot time:

* every resource is captured as its *image* — its full ``__dict__`` with
  mutable fields (file content, registry values) frozen to immutable forms,
  because the capture run keeps executing and mutating the live
  environment afterwards.  This is the same image copy
  :meth:`SystemEnvironment.clone` makes (see
  :class:`~repro.winenv.objects.ResourceTable`), so clone, restore and
  orphans share one format and one thaw;
* every captured resource gets an integer **rid** from an id-map keyed on
  object identity, and handle specs reference resources by rid — so two
  handles to the same resource object still share one object after
  restore, and a handle to a resource no namespace holds (an *orphan*: a
  file removed while a handle was open, or a phantom handle fabricated by
  ``FORCE_SUCCESS``) keeps its identity through a ``(rid, class, image)``
  orphan row;
* effectively-immutable records — frozen ACLs, ``RemoteWrite`` /
  ``TrafficRecord`` rows, the machine identity — are shared by reference,
  and interceptor *objects* are shared exactly like
  :meth:`SystemEnvironment.clone` shares them;
* the RNG is captured **mid-sequence** via ``random.getstate()`` (an
  immutable tuple, shared across restores) so resumed runs draw the same
  tick/temp-name stream a full rerun would at that point.

Restores rebuild each object as ``__new__`` plus one dict copy of its image
and a thaw of its mutable fields.  Namespaces none of whose rows a guest
handle references (recorded per capture in :attr:`EnvSnapshot.eager`)
defer even that rebuild until the first access, so a resumed run pays only
for the namespaces it actually touches.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Tuple

from .environment import RESOURCE_TABLES, MachineIdentity, SystemEnvironment
from .network import Network
from .objects import HandleTable, Resource, freeze_image, thaw_image
from .processes import Process, ProcessTable

#: Fault injection for chaos testing: when set to N (via the environment at
#: import time), every Nth restore raises — the survey must degrade that
#: candidate to a legacy full rerun, never abort.
_FAULT_EVERY = int(os.environ.get("REPRO_FAULT_ENV_RESTORE", "0") or 0)
_restore_count = 0


class _IdMap:
    """Object-identity → rid assignment for one capture walk.

    The environment keeps every captured object alive for the duration of
    the walk, so ``id()`` keys cannot be recycled mid-capture.
    """

    __slots__ = ("_rids", "objects")

    def __init__(self) -> None:
        self._rids: Dict[int, int] = {}
        self.objects: list = []

    def rid(self, obj: Resource) -> int:
        key = id(obj)
        r = self._rids.get(key)
        if r is None:
            r = len(self.objects)
            self._rids[key] = r
            self.objects.append(obj)
        return r


@dataclass(frozen=True)
class EnvSnapshot:
    """One structured capture of a machine plus its guest process.

    Every field is plain data (tuples of immutables, shared frozen records),
    so :meth:`restore` can be called any number of times and each call
    yields an independent ``(environment, process)`` pair.
    """

    identity: MachineIdentity
    rng_seed: int
    rng_state: tuple
    tick: int
    interceptors: tuple
    #: Rows of each resource namespace, in ``RESOURCE_TABLES`` order.
    tables: tuple
    network: tuple
    processes: tuple
    #: ``(rid, class, image)`` rows of resources reached only by handles.
    orphans: tuple
    main_pid: int
    #: Per-namespace eager-restore flags, in ``RESOURCE_TABLES`` order
    #: (filesystem, registry, mutexes, services, windows, libraries).  A
    #: namespace is eager only when some guest handle references one of its
    #: rows (handle identity must hold immediately); everything else is
    #: rebuilt lazily on first access — resumed runs that never touch a
    #: namespace never pay for it.
    eager: tuple = (True,) * len(RESOURCE_TABLES)

    @classmethod
    def capture(
        cls, environment: SystemEnvironment, process: Process
    ) -> "EnvSnapshot":
        idmap = _IdMap()
        rid = idmap.rid
        tables = tuple(
            getattr(environment, name).snapshot_state(rid)
            for name, _cls in RESOURCE_TABLES
        )
        proc_state = environment.processes.snapshot_state(rid)

        # Any rid assigned during the walk that no namespace row claims was
        # reached only through a handle: an orphan (deleted-but-open node,
        # phantom resource).  Captured inline so shared orphans keep identity.
        owned = set()
        for rows in (*tables, proc_state[1]):
            owned.update(row[0] for row in rows)
        orphans = tuple(
            (r, type(obj), freeze_image(obj))
            for r, obj in enumerate(idmap.objects)
            if r not in owned
        )

        # Rids some guest handle references must be rebuilt eagerly at
        # restore time (the handle pass resolves them by rid); a namespace
        # none of whose rows are handle-referenced can defer its rebuild.
        referenced = {
            hrid
            for prow in proc_state[1]
            for hrid, _attrs in prow[3][1]
            if hrid is not None
        }
        eager = tuple(any(row[0] in referenced for row in rows) for rows in tables)

        return cls(
            identity=environment.identity,
            rng_seed=environment.rng_seed,
            rng_state=environment.rng.getstate(),
            tick=environment._tick,
            interceptors=tuple(environment.global_interceptors),
            tables=tables,
            network=environment.network.snapshot_state(),
            processes=proc_state,
            orphans=orphans,
            main_pid=process.pid,
            eager=eager,
        )

    def restore(self) -> Tuple[SystemEnvironment, Process]:
        """Rebuild a fresh ``(environment, process)`` pair from the rows."""
        if _FAULT_EVERY:
            global _restore_count
            _restore_count += 1
            if _restore_count % _FAULT_EVERY == 0:
                raise RuntimeError(
                    f"injected environment-restore fault (every {_FAULT_EVERY})"
                )

        objs: Dict[int, Resource] = {}
        register = objs.__setitem__

        env = SystemEnvironment.__new__(SystemEnvironment)
        d = env.__dict__ = {
            "identity": self.identity,
            "rng_seed": self.rng_seed,
            # No ``rng`` key: SystemEnvironment.__getattr__ materializes it
            # from ``_rng_state`` on the first draw — many resumed runs
            # never draw randomness at all.
            "_rng_state": self.rng_state,
        }
        # Only handle-referenced namespaces rebuild now (their rids must
        # resolve in the handle pass below); the rest defer to first access.
        for (name, table_cls), rows, eager in zip(RESOURCE_TABLES, self.tables, self.eager):
            d[name] = (
                table_cls.restore_state(rows, register)
                if eager
                else table_cls.restore_lazy(rows)
            )
        for rid, res_cls, image in self.orphans:
            register(rid, thaw_image(res_cls, image))
        processes, pending = ProcessTable.restore_state(self.processes, register)
        d["network"] = Network.restore_state(self.network)
        d["processes"] = processes
        d["global_interceptors"] = list(self.interceptors)
        d["_tick"] = self.tick
        # Second pass: handle tables resolve rids only after every process
        # and orphan exists (a PROCESS handle may point at another process).
        resolve = objs.__getitem__
        for proc, handle_state in pending:
            proc.handles = HandleTable.restore_state(handle_state, resolve)
        return env, processes.get(self.main_pid)


__all__ = ["EnvSnapshot"]
