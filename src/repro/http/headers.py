"""HTTP header model and the mesh's well-known header names.

Header names are case-insensitive (stored lower-case), like HTTP.
The mesh uses custom end-to-end metadata headers exactly as the paper's
prototype does (§4.3): ``x-request-id`` ties spans of one end-to-end
request together, and ``x-priority`` carries the performance objective
assigned at the ingress.
"""

from __future__ import annotations

from collections.abc import Mapping

# Well-known header names.
REQUEST_ID = "x-request-id"
PRIORITY = "x-priority"
TRACE_ID = "x-b3-traceid"
SPAN_ID = "x-b3-spanid"
PARENT_SPAN_ID = "x-b3-parentspanid"
DEADLINE = "x-deadline"
RETRY_ATTEMPT = "x-retry-attempt"
FORWARDED_FOR = "x-forwarded-for"
# Response header: seconds the callee spent serving the request, stamped
# by the callee-side sidecar while a service-graph collector is attached
# so callers can split hop latency into "theirs" vs "the wire's".
SERVER_TIMING = "x-server-timing"

# Headers each sidecar copies from an inbound request onto the internal
# requests spawned to serve it (Istio calls this header propagation; the
# paper's design extends the propagated set with the priority header).
PROPAGATED_HEADERS = (
    REQUEST_ID,
    PRIORITY,
    TRACE_ID,
    DEADLINE,
)


class Headers:
    """A case-insensitive string->string multimap (single-valued).

    The serialized size is kept up to date on every set and delete, so
    :meth:`wire_size` (asked on every proxy traversal) is O(1).
    """

    __slots__ = ("_items", "_size")

    def __init__(self, initial: Mapping | None = None):
        self._items: dict[str, str] = {}
        self._size = 0
        if initial:
            for key, value in initial.items():
                self[key] = value

    def __getitem__(self, key: str) -> str:
        return self._items[key.lower()]

    def __setitem__(self, key: str, value) -> None:
        key = key.lower()
        value = str(value)
        old = self._items.get(key)
        if old is None:
            self._size += len(key) + len(value) + 4
        else:
            self._size += len(value) - len(old)
        self._items[key] = value

    def __delitem__(self, key: str) -> None:
        key = key.lower()
        value = self._items.pop(key)
        self._size -= len(key) + len(value) + 4

    def __contains__(self, key) -> bool:
        return str(key).lower() in self._items

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other) -> bool:
        if isinstance(other, Headers):
            return self._items == other._items
        if isinstance(other, Mapping):
            return self._items == {str(k).lower(): str(v) for k, v in other.items()}
        return NotImplemented

    def get(self, key: str, default: str | None = None) -> str | None:
        return self._items.get(key.lower(), default)

    def items(self):
        return self._items.items()

    def copy(self) -> "Headers":
        clone = Headers()
        clone._items = dict(self._items)
        clone._size = self._size
        return clone

    def wire_size(self) -> int:
        """Approximate serialized size: 'name: value\\r\\n' per header."""
        return self._size

    def __repr__(self):
        return f"Headers({self._items!r})"


def propagate(parent: Headers, child: Headers | None = None) -> Headers:
    """Copy the mesh-propagated headers from ``parent`` into ``child``.

    This is the provenance-carrying step of the paper's design (§4.2
    component 2): the priority and request id assigned at the ingress
    follow every internal request spawned on behalf of the original one.
    """
    result = child if child is not None else Headers()
    for name in PROPAGATED_HEADERS:
        value = parent.get(name)
        if value is not None and name not in result:
            result[name] = value
    return result
