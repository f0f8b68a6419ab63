"""Client-side components.

* :mod:`~repro.client.client` — the demand-driven client process of the
  paper's §4.1 model: think, request, serve from cache or wait on the
  broadcast, repeat.
* :mod:`~repro.client.prefetch` — the opportunistic prefetching
  extension sketched in the paper's §7 ("use the broadcast as a way to
  opportunistically increase the temperature of its cache"): a PT cache
  policy that :class:`~repro.experiments.engine.FastEngine` drives.
"""

from repro.client.client import Client
from repro.client.prefetch import PrefetchEngine, pt_value

__all__ = ["Client", "PrefetchEngine", "pt_value"]
