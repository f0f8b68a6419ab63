"""Hybrid push/pull: a low-bandwidth upstream channel (§6 future work).

The paper's clients are mute; its related-work discussion (§6) notes
that Datacycle had an upstream network and says "we intend to
investigate issues raised by allowing such upstream communication
through low-bandwidth links as part of our ongoing work".  This
subpackage builds that investigation's substrate:

* the server reserves every ``pull_spacing``-th broadcast slot for a
  **pull queue**; the remaining slots carry the ordinary cyclic push
  program (which the reservation stretches in real time);
* a client that misses may either wait for the page's next push
  appearance or send a pull request over a low-bandwidth upstream link
  (modelled with the kernel's :class:`~repro.sim.resources.Resource`)
  and take whichever delivery arrives first;
* the client pulls only when the push wait exceeds a threshold — the
  knob that trades upstream traffic against latency.

The headline phenomenon (measured in ``benchmarks/bench_hybrid.py``):
with few clients, generous pull bandwidth behaves like an on-demand
server and wins; as the client population grows the pull queue
saturates while push performance is population-independent — the
scalability argument at the heart of the broadcast-disk idea.
"""

from repro.hybrid.channel import HybridChannel
from repro.hybrid.client import HybridClient, HybridReport
from repro.hybrid.study import hybrid_population_study

__all__ = [
    "HybridChannel",
    "HybridClient",
    "HybridReport",
    "hybrid_population_study",
]
