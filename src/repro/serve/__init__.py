"""A long-lived determinacy service over maintained materializations.

``repro serve`` keeps :class:`repro.ivm.MaterializedView` objects warm
across requests: each *session* owns one view, updates are coalesced
into single maintenance rounds, and parsed programs are cached across
sessions keyed on the hash of their text.  The protocol is JSON lines
over a TCP socket (stdlib ``asyncio`` only); ``repro serve --once``
replays a scripted session from a JSON file without opening a socket,
which is how CI smokes the service.
"""

from repro.serve.service import ProgramCache, ReproServer, ServeService, Session

__all__ = ["ProgramCache", "ReproServer", "ServeService", "Session"]
