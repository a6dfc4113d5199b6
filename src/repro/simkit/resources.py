"""Shared-resource primitives for the discrete-event engine.

These model the contention points in the streaming system:

* :class:`Resource` — a counted resource with FIFO queuing.  Used for
  connection slots on proxies, broker channel concurrency, CPU slots on
  load balancers / ingress controllers.
* :class:`HandoffServer` — a FIFO c-server whose service time is known at
  grant.  A finishing job hands its server straight to the next waiter, so
  a job costs one event and no request objects.  Used for link wires and
  host CPUs.
* :class:`PriorityResource` — same, but requests carry a priority (control
  traffic can pre-empt queue position over bulk data).
* :class:`Container` — a continuous quantity (bytes of queue memory).
* :class:`Store` / :class:`FilterStore` — object stores used for message
  queues and mailbox-style communication between simulated processes.

All ``request``/``get``/``put`` operations return events that a process must
``yield``; releasing is immediate.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Optional

from .core import NORMAL, Environment, Event
from .errors import ResourceError

__all__ = [
    "Request",
    "Release",
    "Resource",
    "PriorityResource",
    "HandoffServer",
    "Container",
    "Store",
    "FilterStore",
    "StorePut",
    "StoreGet",
]


class Request(Event):
    """A pending request for one unit of a :class:`Resource`.

    Usable as a context manager inside a process::

        with resource.request() as req:
            yield req
            ... hold the resource ...
        # released automatically
    """

    __slots__ = ("resource", "proc")

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        self.proc = resource.env.active_process
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # The context-manager exit is the hot release path: skip the
        # confirmation Release event (nobody can observe it here).
        resource = self.resource
        resource._do_release(self)
        resource._trigger_waiters()

    def cancel(self) -> None:
        """Withdraw a request that has not been granted yet."""
        self.resource._cancel(self)


class PriorityRequest(Request):
    """A :class:`Request` with an explicit priority (lower = sooner)."""

    __slots__ = ("priority", "time", "key")

    def __init__(self, resource: "PriorityResource", priority: int = 0) -> None:
        self.priority = priority
        self.time = resource.env.now
        self.key = (priority, self.time)
        super().__init__(resource)


class Release(Event):
    """Immediate event confirming a resource release (for symmetry)."""

    __slots__ = ("resource", "request")

    def __init__(self, resource: "Resource", request: Request) -> None:
        super().__init__(resource.env)
        self.resource = resource
        self.request = request
        self.succeed()


class Resource:
    """A counted, FIFO-queued resource with fixed capacity."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self._capacity = int(capacity)
        self.users: list[Request] = []
        self.queue: deque[Request] = deque()

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of units currently in use."""
        return len(self.users)

    def request(self) -> Request:
        return Request(self)

    def release(self, request: Request) -> Release:
        self._do_release(request)
        self._trigger_waiters()
        return Release(self, request)

    # -- internals ----------------------------------------------------------
    def _do_request(self, request: Request) -> None:
        if len(self.users) < self._capacity:
            self.users.append(request)
            request.succeed()
        else:
            self.queue.append(request)

    def _do_release(self, request: Request) -> None:
        try:
            self.users.remove(request)
        except ValueError:
            # Request was still queued (released before being granted) or
            # already released; canceling a queued request is fine.
            self._cancel(request)

    def _cancel(self, request: Request) -> None:
        try:
            self.queue.remove(request)
        except ValueError:
            pass

    def _trigger_waiters(self) -> None:
        while self.queue and len(self.users) < self._capacity:
            nxt = self.queue.popleft()
            if nxt.triggered:
                continue
            self.users.append(nxt)
            nxt.succeed()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<{type(self).__name__} used={self.count}/{self._capacity} "
                f"queued={len(self.queue)}>")


class PriorityResource(Resource):
    """A resource whose waiting queue is ordered by request priority."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        super().__init__(env, capacity)
        self._pqueue: list[tuple[tuple, int, PriorityRequest]] = []
        self._order = 0

    def request(self, priority: int = 0) -> PriorityRequest:  # type: ignore[override]
        return PriorityRequest(self, priority)

    def _do_request(self, request: Request) -> None:
        if len(self.users) < self._capacity:
            self.users.append(request)
            request.succeed()
        else:
            assert isinstance(request, PriorityRequest)
            order = self._order
            self._order = order + 1
            heapq.heappush(self._pqueue, (request.key, order, request))

    def _cancel(self, request: Request) -> None:
        self._pqueue = [entry for entry in self._pqueue if entry[2] is not request]
        heapq.heapify(self._pqueue)

    def _trigger_waiters(self) -> None:
        while self._pqueue and len(self.users) < self._capacity:
            _key, _n, nxt = heapq.heappop(self._pqueue)
            if nxt.triggered:
                continue
            self.users.append(nxt)
            nxt.succeed()


class HandoffServer:
    """A FIFO server with ``capacity`` identical units for jobs whose
    service time is known when they are granted.

    ``acquire(cost_fn, *args)`` returns the event the job waits on until
    its service is over.  With a unit free, that is ``env.timeout(cost)``
    where ``cost = cost_fn(*args)``.  Otherwise it is a pending event
    queued FIFO.  The job calls :meth:`release` once its event has fired.
    Release hands the unit straight to the oldest waiter: it evaluates
    that waiter's ``cost_fn`` at that moment and schedules the waiter's
    event ``cost`` after now.  So a job costs one event, where a
    :class:`Resource` costs a request, a grant and the service timeout.

    Scheduling at release, not at arrival, keeps a :class:`Resource`
    traversal's order: waiters start in release order, and each cost is
    computed at grant time, so state that ``cost_fn`` reads (a link's
    slowdown, say) is read when the unit is handed over.

    A queued job cannot be withdrawn: interrupting a process that waits
    on :meth:`acquire` is not supported.
    """

    __slots__ = ("env", "capacity", "busy", "_waiters")

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = int(capacity)
        #: Units currently serving a job.
        self.busy = 0
        self._waiters: deque[tuple[Event, Callable[..., float], tuple]] = (
            deque())

    @property
    def queue_length(self) -> int:
        """Jobs waiting for a unit."""
        return len(self._waiters)

    def acquire(self, cost_fn: Callable[..., float], *args: Any) -> Event:
        """The event that fires when this job's service is over."""
        if self.busy < self.capacity:
            self.busy += 1
            return self.env.timeout(cost_fn(*args))
        event = Event(self.env)
        self._waiters.append((event, cost_fn, args))
        return event

    def release(self) -> None:
        """Free the caller's unit, or hand it to the oldest waiter."""
        waiters = self._waiters
        if not waiters:
            self.busy -= 1
            return
        event, cost_fn, args = waiters.popleft()
        event._ok = True
        event._value = None
        self.env._schedule(event, NORMAL, cost_fn(*args))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<HandoffServer busy={self.busy}/{self.capacity} "
                f"queued={len(self._waiters)}>")


class ContainerPut(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float) -> None:
        if amount <= 0:
            raise ValueError("amount must be positive")
        super().__init__(container.env)
        self.amount = amount


class ContainerGet(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float) -> None:
        if amount <= 0:
            raise ValueError("amount must be positive")
        super().__init__(container.env)
        self.amount = amount


class Container:
    """A continuous-quantity resource (e.g. bytes of broker queue memory)."""

    def __init__(self, env: Environment, capacity: float = float("inf"),
                 init: float = 0.0) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise ValueError("init must lie within [0, capacity]")
        self.env = env
        self._capacity = capacity
        self._level = init
        self._put_waiters: deque[ContainerPut] = deque()
        self._get_waiters: deque[ContainerGet] = deque()

    @property
    def capacity(self) -> float:
        return self._capacity

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> ContainerPut:
        event = ContainerPut(self, amount)
        self._put_waiters.append(event)
        self._dispatch()
        return event

    def get(self, amount: float) -> ContainerGet:
        event = ContainerGet(self, amount)
        self._get_waiters.append(event)
        self._dispatch()
        return event

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._put_waiters:
                put = self._put_waiters[0]
                if self._level + put.amount <= self._capacity:
                    self._put_waiters.popleft()
                    self._level += put.amount
                    put.succeed()
                    progress = True
            if self._get_waiters:
                get = self._get_waiters[0]
                if get.amount <= self._level:
                    self._get_waiters.popleft()
                    self._level -= get.amount
                    get.succeed()
                    progress = True


class StorePut(Event):
    """Pending put of an item into a :class:`Store`."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.item = item
        store._put_waiters.append(self)
        store._dispatch()


class StoreGet(Event):
    """Pending get of an item from a :class:`Store`."""

    __slots__ = ("store", "filter")

    def __init__(self, store: "Store",
                 filter: Optional[Callable[[Any], bool]] = None) -> None:
        super().__init__(store.env)
        self.store = store
        self.filter = filter
        store._get_waiters.append(self)
        store._dispatch()

    def cancel(self) -> None:
        """Withdraw the get request if it has not been satisfied yet, so
        the next item goes to the next waiter instead."""
        try:
            self.store._get_waiters.remove(self)
        except ValueError:
            pass  # already satisfied or cancelled


class Store:
    """A FIFO store of Python objects with optional bounded capacity.

    This is the building block for simulated message queues and mailboxes.
    ``put`` blocks (i.e. the returned event stays pending) while the store is
    full; ``get`` blocks while it is empty.
    """

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self._capacity = capacity
        self.items: deque[Any] = deque()
        self._put_waiters: deque[StorePut] = deque()
        self._get_waiters: deque[StoreGet] = deque()

    @property
    def capacity(self) -> float:
        return self._capacity

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        return StorePut(self, item)

    def get(self) -> StoreGet:
        return StoreGet(self)

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False if the store is full."""
        if len(self.items) >= self._capacity:
            return False
        self.items.append(item)
        self._dispatch()
        return True

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get; returns ``(False, None)`` if empty."""
        if not self.items:
            return False, None
        item = self.items.popleft()
        self._dispatch()
        return True, item

    # -- internals ----------------------------------------------------------
    def _do_put(self, event: StorePut) -> bool:
        if len(self.items) < self._capacity:
            self.items.append(event.item)
            event.succeed()
            return True
        return False

    def _do_get(self, event: StoreGet) -> bool:
        if self.items:
            event.succeed(self.items.popleft())
            return True
        return False

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            while self._put_waiters and self._put_waiters[0].triggered:
                self._put_waiters.popleft()
            while self._get_waiters and self._get_waiters[0].triggered:
                self._get_waiters.popleft()
            if self._put_waiters and self._do_put(self._put_waiters[0]):
                self._put_waiters.popleft()
                progress = True
            if self._get_waiters and self._do_get(self._get_waiters[0]):
                self._get_waiters.popleft()
                progress = True


class FilterStore(Store):
    """A store whose ``get`` can select items matching a predicate."""

    def get(self, filter: Optional[Callable[[Any], bool]] = None) -> StoreGet:  # type: ignore[override]
        return StoreGet(self, filter)

    def _do_get(self, event: StoreGet) -> bool:
        if event.filter is None:
            return super()._do_get(event)
        for idx, item in enumerate(self.items):
            if event.filter(item):
                del self.items[idx]
                event.succeed(item)
                return True
        return False

    def _dispatch(self) -> None:
        # Unlike the FIFO store, a blocked get at the head must not block
        # gets behind it that could match other items.
        progress = True
        while progress:
            progress = False
            while self._put_waiters and self._put_waiters[0].triggered:
                self._put_waiters.popleft()
            self._get_waiters = deque(
                g for g in self._get_waiters if not g.triggered)
            if self._put_waiters and self._do_put(self._put_waiters[0]):
                self._put_waiters.popleft()
                progress = True
            for getter in list(self._get_waiters):
                if self._do_get(getter):
                    self._get_waiters.remove(getter)
                    progress = True
