"""Shared-resource primitives for the discrete-event engine.

These model the contention points in the streaming system:

* :class:`Resource` — a counted resource with FIFO queuing.  Used for
  connection slots on proxies, broker channel concurrency, CPU slots on
  load balancers / ingress controllers.
* :class:`HandoffServer` — a FIFO c-server whose service time is known at
  grant.  A finishing job hands its server straight to the next waiter, so
  a job costs one event and no request objects.  Used for link wires and
  host CPUs.
* :class:`Store` — a FIFO object store, used as a client's mailbox.

All ``request``/``get``/``put`` operations return events that a process must
``yield``; releasing is immediate.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from .core import NORMAL, Environment, Event

__all__ = [
    "Request",
    "Resource",
    "HandoffServer",
    "Store",
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

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        resource = self.resource
        resource._do_release(self)
        resource._trigger_waiters()


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
            # The request leaves its ``with`` block before being granted.
            self._cancel(request)

    def _cancel(self, request: Request) -> None:
        try:
            self.queue.remove(request)
        except ValueError:
            pass

    def _trigger_waiters(self) -> None:
        while self.queue and len(self.users) < self._capacity:
            nxt = self.queue.popleft()
            self.users.append(nxt)
            nxt.succeed()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<{type(self).__name__} used={self.count}/{self._capacity} "
                f"queued={len(self.queue)}>")


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
    slowdown, say) is read when the unit is handed over.  A queued job
    cannot be withdrawn.
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

    __slots__ = ()

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)
        store._get_waiters.append(self)
        store._dispatch()


class Store:
    """A FIFO store of Python objects with optional bounded capacity.

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

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        return StorePut(self, item)

    def get(self) -> StoreGet:
        return StoreGet(self)

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
            if self._put_waiters and self._do_put(self._put_waiters[0]):
                self._put_waiters.popleft()
                progress = True
            if self._get_waiters and self._do_get(self._get_waiters[0]):
                self._get_waiters.popleft()
                progress = True
