"""Method + path routing with ``{param}`` segments (FastAPI's shape).

A :class:`Router` maps ``(method, path)`` onto registered handlers.
Matching follows HTTP semantics exactly: an unknown path is a 404, a
known path with the wrong method is a 405 carrying an ``Allow`` header.
Handlers and their dispatch policy (whether the route runs on the worker
pool) hang off the :class:`Route` so the HTTP layer stays generic. A
handler returns ``(status, payload, headers)``; a pooled handler may add
its request record (``tenant``, ``failed``, ``debug``) as a fourth item,
which the app copies into the middleware holder.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class HTTPError(Exception):
    """An HTTP failure with a status, message, and optional headers.

    Raised anywhere between parse and response; the HTTP layer renders it
    as a JSON error body (see ``schemas.error_response``).
    """

    def __init__(self, status, message, headers=None, detail=None):
        self.status = int(status)
        self.message = message
        self.headers = dict(headers or {})
        self.detail = detail
        super().__init__(f"{self.status} {message}")


def _split(path):
    return [segment for segment in path.split("/") if segment]


@dataclass(frozen=True)
class Route:
    """One registered route."""

    method: str
    path: str
    handler: object
    #: Route name used in metrics/span labels (defaults to the path).
    name: str = ""
    #: Request schema class validated against the JSON body (POST only).
    schema: object = None
    #: Whether the handler is synchronous pipeline work that must run on
    #: the bounded worker pool (admission control applies). False for
    #: cheap introspection routes served directly on the event loop.
    pooled: bool = False
    segments: tuple = field(default=(), compare=False)

    def match(self, segments):
        """Path params when ``segments`` matches, else None."""
        if len(segments) != len(self.segments):
            return None
        params = {}
        for pattern, actual in zip(self.segments, segments):
            if pattern.startswith("{") and pattern.endswith("}"):
                params[pattern[1:-1]] = actual
            elif pattern != actual:
                return None
        return params


class Router:
    """Ordered route table with 404/405 semantics."""

    def __init__(self):
        self._routes = []

    def add(self, method, path, handler, name="", schema=None,
            pooled=False):
        route = Route(
            method=method.upper(),
            path=path,
            handler=handler,
            name=name or path.strip("/").split("/")[0] or "root",
            schema=schema,
            pooled=pooled,
            segments=tuple(_split(path)),
        )
        self._routes.append(route)
        return route

    def match(self, method, path):
        """``(route, path_params)`` or an :class:`HTTPError` (404/405)."""
        segments = _split(path)
        allowed = []
        for route in self._routes:
            params = route.match(segments)
            if params is None:
                continue
            if route.method == method.upper():
                return route, params
            allowed.append(route.method)
        if allowed:
            raise HTTPError(
                405, "method not allowed",
                headers={"Allow": ", ".join(sorted(set(allowed)))},
            )
        raise HTTPError(404, "not found")
