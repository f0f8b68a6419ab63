"""Time-varying client access patterns (workload drift).

§3 lists "a client's access distribution may change over time" among the
reasons a broadcast (and a probability oracle) goes stale.  This module
makes that concrete: a :class:`DriftingZipfDistribution` keeps the Zipf
shape but rotates which region is hottest as the request index advances,
completing ``rotations`` full laps of the access range over ``horizon``
requests.

The interesting consequence: the idealised P/PIX policies consult a
*frozen* probability snapshot (what the client once told the server),
so drift silently invalidates their oracle, while LRU/LIX estimate
probabilities from recent behaviour and adapt.  Any run sets it up
with :attr:`ExperimentConfig.drift_rotations
<repro.experiments.config.ExperimentConfig.drift_rotations>`, and
:func:`repro.experiments.figures.drift_study` sweeps it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.workload.trace import RequestTrace
from repro.workload.zipf import ZipfRegionDistribution


class DriftingZipfDistribution:
    """A Zipf-over-regions profile whose hotspot rotates over time.

    At request index ``n`` the region ranked hottest is
    ``floor(n * rotations * num_regions / horizon) mod num_regions``;
    region ranks rotate with it, so the distribution is always a rotated
    copy of the initial one.
    """

    def __init__(
        self,
        access_range: int,
        region_size: int,
        theta: float,
        horizon: int,
        rotations: float = 1.0,
    ):
        if horizon < 1:
            raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
        if rotations < 0:
            raise ConfigurationError(
                f"rotations must be >= 0, got {rotations}"
            )
        self.base = ZipfRegionDistribution(access_range, region_size, theta)
        self.access_range = access_range
        self.region_size = region_size
        self.horizon = horizon
        self.rotations = float(rotations)

    @property
    def num_regions(self) -> int:
        """Regions in the access range."""
        return self.base.num_regions

    def hot_region_at(self, request_index: int) -> int:
        """The hottest region when issuing request ``request_index``."""
        if request_index < 0:
            raise ConfigurationError(
                f"request_index must be >= 0, got {request_index}"
            )
        steps = int(
            request_index * self.rotations * self.num_regions / self.horizon
        )
        return steps % self.num_regions

    def probabilities_at(self, request_index: int) -> np.ndarray:
        """The dense page-probability vector in force at ``request_index``."""
        shift = self.hot_region_at(request_index) * self.region_size
        return np.roll(self.base.probabilities(), shift)

    def initial_snapshot(self) -> np.ndarray:
        """The t=0 probabilities — what a static oracle would be fed."""
        return self.base.probabilities()

    def generate_trace(
        self, num_requests: int, rng: np.random.Generator
    ) -> RequestTrace:
        """Draw a trace whose distribution drifts with the request index.

        Implemented by drawing from the *base* distribution and rotating
        each sample by the hotspot shift in force at its index — exactly
        equivalent to sampling the rotated distribution, but vectorised.
        """
        if num_requests < 1:
            raise ConfigurationError(
                f"num_requests must be >= 1, got {num_requests}"
            )
        return RequestTrace(self.rotate(self.base.sample(rng, num_requests)))

    def rotate(self, pages: np.ndarray, start: int = 0) -> np.ndarray:
        """Base-distribution ``pages`` drawn at request indices
        ``start, start + 1, ...`` along their last axis, each rotated by
        the hotspot shift in force at its index.

        A trace drawn in blocks rotates each block from its first
        request's index, so its pages equal the whole trace's.
        """
        indices = np.arange(start, start + pages.shape[-1])
        steps = (
            indices * self.rotations * self.num_regions / self.horizon
        ).astype(np.int64) % self.num_regions
        return (pages + steps * self.region_size) % self.access_range
