"""Stepping timer: per-layer host self time for generator-based sim code.

The sim's layers are generator functions chained with ``yield from``,
so one call is not one contiguous interval of host time: the kernel
resumes it step by step, interleaved with every other process.  The
timer therefore wraps each layer entry point from outside (no edits in
``src/``) and drives the wrapped generator itself, charging the host
time of every single step to the innermost span open during that step.

* self time of a span = host time of its steps minus the part spent in
  spans nested inside those steps;
* ``sim.kernel`` is the frame around ``Environment.run``; its self time
  is everything no wrapped layer claimed (event loop, process resume,
  and the unwrapped workload driver code);
* by construction the self times of all names add up to the host time
  spent inside ``Environment.run``.

Spans live in memory only; :meth:`StepTimer.dump` writes the per-name
aggregates and the first complete span trees when the benchmark ends.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

KERNEL = "sim.kernel"


class _Stats:
    """Aggregate for one span name."""

    __slots__ = ("count", "steps", "total_s", "self_s")

    def __init__(self):
        self.count = 0
        self.steps = 0
        self.total_s = 0.0
        self.self_s = 0.0


class _Frame:
    """One open span: its aggregate, its tree node, its step start."""

    __slots__ = ("stats", "node", "entered")

    def __init__(self, stats: _Stats, node: Optional[dict]):
        self.stats = stats
        self.node = node
        self.entered = 0.0


class StepTimer:
    """Charges each step's host time to the innermost open span."""

    def __init__(self, keep_trees: int = 200):
        self.stats: Dict[str, _Stats] = {}
        self.keep_trees = keep_trees
        #: Root nodes in opening order (at most ``keep_trees``).
        self.roots: List[dict] = []
        #: Closure sizes seen by the attachment wrapper.
        self.closure_sizes = [0, 0]  # [count, sum]
        #: Strong refs, so ``scheduled_events`` can be summed afterwards.
        self.environments: List[Any] = []
        #: Lock managers seen, for the post-run invariant check.
        self.lock_managers: List[Any] = []
        #: Invocation services seen, for the remote/local call counts.
        self.invocation_services: List[Any] = []
        self._seen_ids: set = set()
        self._stack: List[_Frame] = []
        self._mark = 0.0
        self._origin = time.perf_counter()
        self._patches: List[tuple] = []

    # -- the accounting core ------------------------------------------------

    def _stats_for(self, name: str) -> _Stats:
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = _Stats()
        return stats

    def _open(self, name: str, stats: _Stats) -> _Frame:
        """Count one span; give it a tree node while trees are kept."""
        stats.count += 1
        stack = self._stack
        parent = stack[-1].node if stack else None
        node = None
        if parent is not None:
            node = _node(name)
            parent["children"].append(node)
        elif name != KERNEL and len(self.roots) < self.keep_trees:
            node = _node(name)
            self.roots.append(node)
        return _Frame(stats, node)

    def _push(self, frame: _Frame) -> None:
        now = time.perf_counter()
        stack = self._stack
        if stack:
            stack[-1].stats.self_s += now - self._mark
            node = stack[-1].node
            if node is not None:
                node["self_us"] += (now - self._mark) * 1e6
        self._mark = now
        frame.entered = now
        stack.append(frame)

    def _pop(self) -> None:
        now = time.perf_counter()
        frame = self._stack.pop()
        stats = frame.stats
        stats.steps += 1
        stats.self_s += now - self._mark
        stats.total_s += now - frame.entered
        node = frame.node
        if node is not None:
            node["self_us"] += (now - self._mark) * 1e6
            node["busy_us"] += (now - frame.entered) * 1e6
            node["steps"] += 1
            if node["start_us"] is None:
                node["start_us"] = (frame.entered - self._origin) * 1e6
            node["end_us"] = (now - self._origin) * 1e6
        self._mark = now

    def _remember(self, obj: Any, into: List[Any]) -> None:
        # The strong reference keeps `id(obj)` from being reused.
        if id(obj) not in self._seen_ids:
            self._seen_ids.add(id(obj))
            into.append(obj)

    # -- wrappers -------------------------------------------------------------

    def wrap_call(self, name: str, fn: Callable) -> Callable:
        """Wrap a plain function: one span, one step."""
        stats = self._stats_for(name)

        def wrapper(*args, **kwargs):
            frame = self._open(name, stats)
            self._push(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                self._pop()
                if frame.node is not None:
                    frame.node["done"] = True

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Wrap a function returning a generator: one span, many steps.

        The span opens when the function is *called* (inside the
        parent's step), so a generator handed to ``env.process`` still
        hangs under the span that spawned it.
        """
        stats = self._stats_for(name)

        def wrapper(*args, **kwargs):
            frame = self._open(name, stats)
            return self._drive(frame, fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        return wrapper

    def _drive(self, frame: _Frame, inner):
        """Step ``inner``, timing each step; transparent to the caller."""
        send, throw = inner.send, inner.throw
        value = None
        pending: Optional[BaseException] = None
        try:
            while True:
                self._push(frame)
                try:
                    if pending is None:
                        yielded = send(value)
                    else:
                        error, pending = pending, None
                        yielded = throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    self._pop()
                try:
                    value = yield yielded
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as error:  # forwarded into `inner`
                    pending = error
        finally:
            if frame.node is not None:
                frame.node["done"] = True

    # -- installation -----------------------------------------------------------

    def _patch(self, owner: type, attr: str, wrapped: Callable) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        """Wrap the layer entry points named in the suite's README."""
        from repro.core.attachment import AttachmentManager
        from repro.core.locking import LockManager
        from repro.core.policies.base import MigrationPolicy
        import repro.core.policies.registry  # noqa: F401 - loads subclasses
        from repro.network.network import Network
        from repro.runtime.invocation import InvocationService
        from repro.runtime.migration import MigrationService
        from repro.sim.kernel import Environment

        timer = self
        run = Environment.__dict__["run"]
        kernel_stats = self._stats_for(KERNEL)

        def timed_run(env, *args, **kwargs):
            timer._remember(env, timer.environments)
            frame = timer._open(KERNEL, kernel_stats)
            timer._push(frame)
            try:
                return run(env, *args, **kwargs)
            finally:
                timer._pop()

        self._patch(Environment, "run", timed_run)
        self._patch(
            Network,
            "transmit",
            self.wrap_generator("network", Network.__dict__["transmit"]),
        )
        invoke = self.wrap_generator(
            "runtime.invocation", InvocationService.__dict__["invoke"]
        )

        def tracked_invoke(service, *args, **kwargs):
            timer._remember(service, timer.invocation_services)
            return invoke(service, *args, **kwargs)

        self._patch(InvocationService, "invoke", tracked_invoke)
        self._patch(
            MigrationService,
            "migrate",
            self.wrap_generator(
                "runtime.migration", MigrationService.__dict__["migrate"]
            ),
        )
        # `migrate` hands each object to a `_transfer_one` process; its
        # steps run under the kernel, not under `migrate`, so without
        # this wrapper the transfer work would read as kernel time.
        if "_transfer_one" in MigrationService.__dict__:
            self._patch(
                MigrationService,
                "_transfer_one",
                self.wrap_generator(
                    "runtime.migration",
                    MigrationService.__dict__["_transfer_one"],
                ),
            )

        closure = AttachmentManager.__dict__["closure"]
        timed_closure = self.wrap_call("core.attachment", closure)

        def counted_closure(manager, *args, **kwargs):
            members = timed_closure(manager, *args, **kwargs)
            timer.closure_sizes[0] += 1
            timer.closure_sizes[1] += len(members)
            return members

        self._patch(AttachmentManager, "closure", counted_closure)

        lock = self.wrap_call("core.locking", LockManager.__dict__["lock"])

        def tracked_lock(manager, *args, **kwargs):
            timer._remember(manager, timer.lock_managers)
            return lock(manager, *args, **kwargs)

        self._patch(LockManager, "lock", tracked_lock)
        self._patch(
            LockManager,
            "release_block",
            self.wrap_call(
                "core.locking", LockManager.__dict__["release_block"]
            ),
        )
        for cls in _with_subclasses(MigrationPolicy):
            for attr in ("move", "end"):
                fn = cls.__dict__.get(attr)
                if fn is None or getattr(fn, "__isabstractmethod__", False):
                    continue
                self._patch(
                    cls, attr, self.wrap_generator("core.policies", fn)
                )

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------------

    def self_seconds(self, name: str) -> float:
        stats = self.stats.get(name)
        return stats.self_s if stats is not None else 0.0

    def count(self, name: str) -> int:
        stats = self.stats.get(name)
        return stats.count if stats is not None else 0

    def total_self_seconds(self) -> float:
        return sum(stats.self_s for stats in self.stats.values())

    def scheduled_events(self) -> int:
        return sum(env.scheduled_events for env in self.environments)

    def dump(self) -> dict:
        """Per-name aggregates plus the first complete span trees."""
        complete = [root for root in self.roots if _complete(root)]
        return {
            "names": {
                name: {
                    "count": stats.count,
                    "steps": stats.steps,
                    "total_s": stats.total_s,
                    "self_s": stats.self_s,
                }
                for name, stats in sorted(self.stats.items())
            },
            "self_total_s": self.total_self_seconds(),
            "trees_kept": len(complete),
            "trees": [_strip(root) for root in complete],
        }


def _node(name: str) -> dict:
    return {
        "name": name,
        "start_us": None,
        "end_us": None,
        "steps": 0,
        "busy_us": 0.0,
        "self_us": 0.0,
        "done": False,
        "children": [],
    }


def _complete(node: dict) -> bool:
    return node["done"] and all(_complete(c) for c in node["children"])


def _strip(node: dict) -> dict:
    out = {k: v for k, v in node.items() if k not in ("done", "children")}
    out["children"] = [_strip(child) for child in node["children"]]
    return out


def _with_subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_with_subclasses(sub))
    return found
