"""HTTP request/response messages.

Messages carry a declared body size rather than real bytes — the
simulation accounts for wire size (request line + headers + body) when
the transport serializes them, which is what queueing at the bottleneck
depends on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .headers import Headers

_message_ids = itertools.count(1)

# A hop-by-hop serialization constant: request/status line + framing.
FIRST_LINE_BYTES = 32


class HttpStatus:
    """The status codes the mesh uses."""

    OK = 200
    BAD_REQUEST = 400
    NOT_FOUND = 404
    REQUEST_TIMEOUT = 408
    TOO_MANY_REQUESTS = 429
    INTERNAL_ERROR = 500
    BAD_GATEWAY = 502
    SERVICE_UNAVAILABLE = 503
    GATEWAY_TIMEOUT = 504

    RETRYABLE = frozenset({502, 503, 504})


@dataclass(slots=True)
class HttpRequest:
    """An HTTP request addressed to a mesh service.

    ``service`` is the logical destination ("reviews"); resolution to a
    concrete instance happens in the sidecar, which is exactly the
    service-mesh-as-a-layer abstraction the paper describes (§3.1):
    "get the response to this HTTP request from service X".
    """

    service: str
    path: str = "/"
    method: str = "GET"
    headers: Headers = field(default_factory=Headers)
    body_size: int = 0
    message_id: int = field(default_factory=lambda: next(_message_ids))

    def wire_size(self) -> int:
        return FIRST_LINE_BYTES + self.headers.wire_size() + self.body_size

    def reply(self, status: int = HttpStatus.OK, body_size: int = 0) -> "HttpResponse":
        """A response to this request, echoing its correlation headers."""
        response = HttpResponse(
            status=status,
            request_id=self.message_id,
            body_size=body_size,
        )
        for name in ("x-request-id", "x-priority", "x-b3-traceid"):
            value = self.headers.get(name)
            if value is not None:
                response.headers[name] = value
        return response

    def __repr__(self):
        return (
            f"<HttpRequest #{self.message_id} {self.method} "
            f"{self.service}{self.path} body={self.body_size}B>"
        )


@dataclass(slots=True)
class HttpResponse:
    """An HTTP response; ``request_id`` pairs it with its request."""

    status: int = HttpStatus.OK
    request_id: int = 0
    headers: Headers = field(default_factory=Headers)
    body_size: int = 0
    message_id: int = field(default_factory=lambda: next(_message_ids))

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def retryable(self) -> bool:
        return self.status in HttpStatus.RETRYABLE

    def wire_size(self) -> int:
        return FIRST_LINE_BYTES + self.headers.wire_size() + self.body_size

    def __repr__(self):
        return (
            f"<HttpResponse #{self.message_id} {self.status} "
            f"for=#{self.request_id} body={self.body_size}B>"
        )
