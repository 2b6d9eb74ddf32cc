"""Inline-cache and plan-cache plumbing for the pycode backend.

The generated code's call, field and type sites keep per-receiver-class
caches whose events land in ``maya_interp_ic_events_total{site,event}``
(rendered by ``--profile`` and exported by ``--metrics-out``); a site
stops caching new classes past ``MEGAMORPHIC``.  Compiled plans live
directly on each ``Method`` and are bounded by a :class:`PlanRegistry`
LRU so long-lived daemon sessions cannot accumulate them forever.
This module also holds the static-type predicates and the constant
folding table the code generator selects its fast paths with.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict

from repro.obs.metrics import REGISTRY
from repro.types import BYTE, DOUBLE, FLOAT, INT, LONG, SHORT

#: Inline-cache events by site kind (call / field / type).
_IC_EVENTS = REGISTRY.counter(
    "maya_interp_ic_events_total",
    "Inline-cache events at generated call, field and type sites, "
    "by site kind.",
    ("site", "event"))
_IC_CALL_HIT = _IC_EVENTS.labels("call", "hit")
_IC_CALL_MISS = _IC_EVENTS.labels("call", "miss")
_IC_CALL_MEGA = _IC_EVENTS.labels("call", "megamorphic")
_IC_FIELD_HIT = _IC_EVENTS.labels("field", "hit")
_IC_FIELD_MISS = _IC_EVENTS.labels("field", "miss")
_IC_FIELD_MEGA = _IC_EVENTS.labels("field", "megamorphic")
_IC_TYPE_HIT = _IC_EVENTS.labels("type", "hit")
_IC_TYPE_MISS = _IC_EVENTS.labels("type", "miss")

#: Site cache size past which a site is megamorphic: new receiver
#: classes stop being cached (existing entries keep hitting).
MEGAMORPHIC = 8

#: Missing-key sentinel distinct from any storable value.
_MISSING = object()

#: Bound on how many Methods may hold a cached plan attribute.
PLAN_CACHE_SIZE = 4096

_NUMERIC_TYPES = (INT, LONG, SHORT, BYTE, DOUBLE, FLOAT)


def _is_int_type(t) -> bool:
    return t is INT or t is LONG or t is SHORT or t is BYTE


def _is_numeric_type(t) -> bool:
    return t in _NUMERIC_TYPES


def _is_string_type(t) -> bool:
    return getattr(t, "name", "") == "java.lang.String"


#: Operators whose int-literal operands fold to a constant.
_FOLDABLE = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


class PlanRegistry:
    """A bounded LRU registry of Methods carrying a cached plan.

    The plan itself stays directly on the Method (one ``getattr`` on
    the hit path — the registry is never consulted there); ``note()``
    is called only on compile misses, so eviction order is
    least-recently-*compiled*, and evicting a method just deletes its
    plan attribute — the next call recompiles.  Evictions are counted
    in the ``maya_cache_events_total`` registry family.
    """

    def __init__(self, attr: str, maxsize: int, stats) -> None:
        self.attr = attr
        self.maxsize = max(1, maxsize)
        self.stats = stats
        self._lock = threading.Lock()
        self._entries: "OrderedDict[int, weakref.ref]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def note(self, method) -> None:
        """Record that ``method`` just (re)compiled a plan, evicting the
        oldest plans past the bound."""
        victims = []
        with self._lock:
            key = id(method)
            existing = self._entries.pop(key, None)
            if existing is None or existing() is not method:
                existing = weakref.ref(method)
            self._entries[key] = existing
            while len(self._entries) > self.maxsize:
                _key, ref = self._entries.popitem(last=False)
                victims.append(ref)
        for ref in victims:
            victim = ref()
            if victim is None:
                continue  # the Method died; nothing left to evict
            try:
                delattr(victim, self.attr)
            except AttributeError:
                continue  # already invalidated some other way
            self.stats.evict()
