"""Base classes for named system resources and the handle table.

Everything AUTOVAC observes — files, registry keys, mutexes, processes,
services, GUI windows, libraries — is a *named resource* that guest programs
reach through handles returned by the API layer.  The paper's vaccine
identifier is exactly ``(resource type, identifier)``, so the base class keeps
both.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, Iterator, Optional, Tuple, Type

from .acl import Acl, open_acl


class ResourceType(enum.Enum):
    """The seven resource categories the paper's evaluation covers (§VI-B)."""

    FILE = "file"
    REGISTRY = "registry"
    MUTEX = "mutex"
    PROCESS = "process"
    SERVICE = "service"
    WINDOW = "window"
    LIBRARY = "library"
    NETWORK = "network"  # propagation substrate only; never a vaccine itself


class Operation(enum.Enum):
    """Resource operations tallied by Phase I (Figure 3 axes)."""

    CREATE = "create"
    READ = "read"          # read/open in the paper's figure
    WRITE = "write"
    DELETE = "delete"
    EXECUTE = "execute"
    CHECK = "check"        # existence check (paper Table III symbol E)


@dataclass
class Resource:
    """A named system resource with an ACL.

    ``identifier`` is the canonical name used for vaccine extraction
    (lower-cased path for files/registry, verbatim name for mutexes etc.).
    """

    name: str
    rtype: ResourceType
    acl: Acl = field(default_factory=open_acl)
    created_by: Optional[int] = None   # pid of the creating process, if any

    #: Attributes whose live value is mutable, as ``(name, freeze, thaw)``.
    #: A resource *image* is its ``__dict__`` with each of these frozen to
    #: an immutable form; every copy (clone, restore, orphan) thaws a fresh
    #: mutable value from either the live or the frozen form.
    _mutable_fields: ClassVar[Tuple] = ()

    @property
    def identifier(self) -> str:
        return self.name

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.rtype.value}:{self.name}>"


class HandleKind(enum.Enum):
    """What a guest handle refers to."""

    FILE = "file"
    REGISTRY = "registry"
    MUTEX = "mutex"
    PROCESS = "process"
    THREAD = "thread"
    SERVICE = "service"
    SCMANAGER = "scmanager"
    WINDOW = "window"
    LIBRARY = "library"
    SOCKET = "socket"
    INTERNET = "internet"


@dataclass
class Handle:
    """A per-process handle entry mapping a small integer to a resource."""

    value: int
    kind: HandleKind
    resource: Optional[Resource]
    #: Position of the read cursor for file-like handles.
    cursor: int = 0
    #: Extra per-handle state (e.g. registry enum index, socket peer).
    state: Dict[str, object] = field(default_factory=dict)


class HandleTable:
    """Per-process handle table.

    Handle values start at a distinctive base so they never collide with the
    boolean/NULL encodings APIs use for failure (0/1/0xFFFFFFFF).
    """

    _BASE = 0x100

    def __init__(self) -> None:
        # Plain int, not itertools.count: snapshot/restore must read and
        # re-seed the counter position (closed handles still consumed values).
        self._next = self._BASE
        self._table: Dict[int, Handle] = {}

    def allocate(self, kind: HandleKind, resource: Optional[Resource]) -> Handle:
        handle = Handle(value=self._next, kind=kind, resource=resource)
        self._next += 4
        self._table[handle.value] = handle
        return handle

    def get(self, value: int) -> Optional[Handle]:
        return self._table.get(value)

    def close(self, value: int) -> bool:
        return self._table.pop(value, None) is not None

    def __iter__(self) -> Iterator[Handle]:
        return iter(self._table.values())

    def __len__(self) -> int:
        return len(self._table)

    # -- structured snapshot/restore --------------------------------------

    def snapshot_state(self, rid_of: Callable[[Resource], int]) -> Tuple:
        """Plain-data image of the table: counter position plus one spec per
        handle.  Resources are referenced by the id-map rid ``rid_of``
        assigns, so handles sharing a resource object keep that identity
        across restores."""
        rows = []
        for h in self._table.values():
            attrs = dict(vars(h))
            attrs["resource"] = None  # resolved by rid on restore
            attrs["state"] = _freeze_state(h.state)
            rows.append(
                (None if h.resource is None else rid_of(h.resource), attrs)
            )
        return (self._next, tuple(rows))

    @classmethod
    def restore_state(
        cls, state: Tuple, resolve: Callable[[int], Resource]
    ) -> "HandleTable":
        next_value, rows = state
        table = cls.__new__(cls)
        table._next = next_value
        table._table = entries = {}
        new = Handle.__new__
        for rid, attrs in rows:
            # Image rebuild — restores run once per candidate × mechanism,
            # and the dataclass __init__ only re-copies the captured image.
            h = new(Handle)
            d = dict(attrs)
            state_rows = attrs["state"]
            d["state"] = _thaw_state(state_rows) if state_rows else {}
            if rid is not None:
                d["resource"] = resolve(rid)
            h.__dict__ = d
            entries[attrs["value"]] = h
        return table


def freeze_image(res: Resource) -> dict:
    """Immutable image of ``res``: its ``__dict__`` with mutable fields
    frozen.  Other values are immutable or append-only records shared by
    reference (frozen ACLs, enum members, ``RemoteWrite`` rows)."""
    image = dict(res.__dict__)
    for name, freeze, _thaw in res._mutable_fields:
        image[name] = freeze(image[name])
    return image


def thaw_image(cls: Type[Resource], image: dict) -> Resource:
    """A new ``cls`` resource from an image (live or frozen): ``__new__``
    plus one dict copy — the constructor would only re-derive what the
    image already holds."""
    res = cls.__new__(cls)
    d = dict(image)
    for name, _freeze, thaw in cls._mutable_fields:
        d[name] = thaw(d[name])
    res.__dict__ = d
    return res


class ResourceTable:
    """A namespace of named resources: one ``key → resource`` dict.

    Subclasses name the dict attribute (``_table``) and the resource class
    it holds (``_resource``).  This class gives every namespace the one
    copy mechanism environment copies go through — :meth:`clone` for a
    fresh run, :meth:`snapshot_state`/:meth:`restore_state` for a resumed
    one — each an image copy per resource (see :func:`thaw_image`).
    """

    #: Name of the ``key → resource`` dict attribute (``_nodes``, ``_keys`` …).
    _table: str = ""
    #: Class of every resource in the table.
    _resource: Type[Resource] = Resource

    def clone(self) -> "ResourceTable":
        """Image copy of every resource, for a fresh run."""
        other = type(self).__new__(type(self))
        rows = ((None, key, res.__dict__) for key, res in getattr(self, self._table).items())
        setattr(other, self._table, self._build(rows, None))
        return other

    # -- structured snapshot/restore --------------------------------------

    def snapshot_state(self, rid_of: Callable[[Resource], int]) -> Tuple:
        """Plain-data rows ``(rid, key, image)`` for
        :class:`~repro.winenv.snapshot.EnvSnapshot`.  Images are frozen
        because the capture run keeps mutating the live resources."""
        return tuple(
            (rid_of(res), key, freeze_image(res))
            for key, res in getattr(self, self._table).items()
        )

    @classmethod
    def restore_state(
        cls, rows: Tuple, register: Callable[[int, Resource], None]
    ) -> "ResourceTable":
        """Rebuild the table now, registering each resource under its rid."""
        table = cls.__new__(cls)
        setattr(table, cls._table, cls._build(rows, register))
        return table

    @classmethod
    def restore_lazy(cls, rows: Tuple) -> "ResourceTable":
        """Defer the rebuild until the first namespace access — used by
        ``EnvSnapshot.restore`` when no guest handle references a row, so
        resumed runs that never touch the namespace never pay for it."""
        table = cls.__new__(cls)
        table._lazy_rows = rows
        return table

    def __getattr__(self, name: str):
        if name == self._table:
            rows = self.__dict__.pop("_lazy_rows", None)
            if rows is not None:
                resources = self._build(rows, None)
                setattr(self, name, resources)
                return resources
        raise AttributeError(name)

    @classmethod
    def _build(cls, rows, register) -> dict:
        """Thaw ``(rid, key, image)`` rows into a table.  Restores run once
        per candidate × mechanism, so the loop is the inlined
        :func:`thaw_image`, and a resource class without mutable fields
        pays for nothing but the dict copy."""
        res_cls = cls._resource
        new = res_cls.__new__
        fields = res_cls._mutable_fields
        resources = {}
        if not fields:
            for rid, key, image in rows:
                res = new(res_cls)
                res.__dict__ = dict(image)
                resources[key] = res
                if register is not None:
                    register(rid, res)
            return resources
        for rid, key, image in rows:
            res = new(res_cls)
            d = dict(image)
            for name, _freeze, thaw in fields:
                d[name] = thaw(d[name])
            res.__dict__ = d
            resources[key] = res
            if register is not None:
                register(rid, res)
        return resources


def _freeze_state(state: Dict[str, object]) -> Tuple:
    """Immutable image of a handle's ``state`` dict.  Mutable values (the
    enum-API pid snapshot list) are copied so later guest activity cannot
    reach back into a captured snapshot."""
    return tuple(
        (key, ("list", tuple(value)) if isinstance(value, list) else ("val", value))
        for key, value in state.items()
    )


def _thaw_state(rows: Tuple) -> Dict[str, object]:
    return {
        key: list(payload) if tag == "list" else payload
        for key, (tag, payload) in rows
    }
