"""The RSP server under its scale-out name.

:class:`ShardedRSPServer` is :class:`repro.service.server.RSPServer` —
the same class object, not a subclass.  There is one server; it runs
``n_shards`` store partitions (one by default) behind one intake loop.
"""

from repro.service.server import RSPServer

ShardedRSPServer = RSPServer

__all__ = ["ShardedRSPServer"]
