"""Typed fault models and their compilation into a frozen FaultPlan.

The *spec* layer describes failure **rates** (fail 5% of links, drop
setups with probability 0.01); the *plan* layer is the concrete,
reproducible outcome of rolling those rates for one seed (exactly these
links are dead, exactly this sub-seed drives runtime drops).  A
:class:`FaultSpec` compiles into a :class:`FaultPlan` with
:meth:`FaultSpec.compile`; a plan can also be written out directly when
a test or experiment wants to pin an exact failure set.

Seed discipline: compilation derives one sub-seed per stochastic
decision with :func:`derive_seed` (a SHA-256 split of the base seed and
a label), so fault draws can never alias workload-generation draws and
no module-level RNG exists anywhere in the subsystem.

Nested sampling: the failed-link (and failed-slice) sets for one base
seed are prefixes of a single seeded permutation, so sweeping the rate
upward only ever *adds* failures.  This is what makes degradation
curves monotone by construction instead of by luck.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from typing import Tuple

from repro.noc.topology import Link, MeshTopology


def derive_seed(base: int, label: str) -> int:
    """Split a deterministic 63-bit sub-seed from ``base`` for ``label``.

    SHA-256 of ``"<base>:<label>"`` — stable across platforms and Python
    versions (unlike ``hash()``), collision-free for practical purposes,
    and independent per label so consumers can never share a stream.
    """
    digest = hashlib.sha256(f"{base}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & ((1 << 63) - 1)


# ----------------------------------------------------------------------
# The typed fault models (the spec layer)


@dataclass(frozen=True)
class LinkFailure:
    """Permanent failure of directed mesh links.

    ``rate`` fails that fraction of the mesh's directed links (chosen by
    a seeded permutation at compile time); ``links`` pins explicit
    additional failures (useful for targeted experiments and tests).
    """

    rate: float = 0.0
    links: Tuple[Link, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(
                f"link failure rate must be in [0, 1] (got {self.rate})"
            )
        object.__setattr__(
            self, "links", tuple((int(a), int(b)) for a, b in self.links)
        )


@dataclass(frozen=True)
class ArbiterDrop:
    """Transient arbiter fault: each setup attempt is independently
    dropped with this probability (the grant is lost, the requester
    backs off and retries)."""

    probability: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                "arbiter drop probability must be in [0, 1] "
                f"(got {self.probability})"
            )


@dataclass(frozen=True)
class SliceFailure:
    """Permanent failure of shared-L2 TLB slices (the SRAM at a tile).

    A dead slice serves no lookups and accepts no fills; requests homed
    to it degrade to a local page walk.  The tile's *router* stays
    alive — slice death and link death are independent fault axes.
    """

    rate: float = 0.0
    slices: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(
                f"slice failure rate must be in [0, 1] (got {self.rate})"
            )
        object.__setattr__(
            self, "slices", tuple(int(s) for s in self.slices)
        )


@dataclass(frozen=True)
class WalkerSlowdown:
    """Degraded page-table walkers: every walk's latency is multiplied
    by ``factor`` (>= 1), modelling a failing memory path under the
    walker rather than the TLB fabric itself."""

    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ValueError("walker slowdown factor must be >= 1.0")


@dataclass(frozen=True)
class FaultSpec:
    """A composition of fault models plus the resilience knobs.

    ``setup_timeout`` bounds how many cycles a NOCSTAR path setup may
    spend retrying (contention + transient drops) before abandoning the
    circuit-switched fabric and falling back to buffered-mesh routing;
    ``max_backoff`` caps the exponential backoff between dropped
    attempts; ``max_retries`` bounds shootdown retransmissions (the
    final attempt is delivered via the reliable escalation path, so a
    shootdown can never livelock).
    """

    links: LinkFailure = field(default_factory=LinkFailure)
    arbiter: ArbiterDrop = field(default_factory=ArbiterDrop)
    slices: SliceFailure = field(default_factory=SliceFailure)
    walker: WalkerSlowdown = field(default_factory=WalkerSlowdown)
    setup_timeout: int = 64
    max_backoff: int = 8
    max_retries: int = 8

    def __post_init__(self) -> None:
        if self.setup_timeout < 1:
            raise ValueError("setup_timeout must be >= 1 cycle")
        if self.max_backoff < 1:
            raise ValueError("max_backoff must be >= 1 cycle")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    def compile(self, num_tiles: int, base_seed: int) -> "FaultPlan":
        """Roll the rates into a concrete :class:`FaultPlan`.

        Deterministic: ``(spec, num_tiles, base_seed)`` fully determines
        the plan.  Rate-selected links/slices are prefixes of one seeded
        permutation (nested across rates; see module docstring), and
        explicit ``links``/``slices`` are validated against the mesh and
        added on top.
        """
        topology = MeshTopology(num_tiles)
        all_links = sorted(topology.all_links())
        link_set = set(all_links)
        for link in self.links.links:
            if link not in link_set:
                raise ValueError(f"{link} is not a link of the {num_tiles}-tile mesh")
        for index in self.slices.slices:
            if not 0 <= index < num_tiles:
                raise ValueError(f"slice {index} outside the {num_tiles}-tile mesh")

        order = list(all_links)
        random.Random(derive_seed(base_seed, "faults.links")).shuffle(order)
        k = int(round(self.links.rate * len(order)))
        failed_links = set(order[:k]) | set(self.links.links)

        slice_order = list(range(num_tiles))
        random.Random(derive_seed(base_seed, "faults.slices")).shuffle(slice_order)
        k = int(round(self.slices.rate * num_tiles))
        failed_slices = set(slice_order[:k]) | set(self.slices.slices)

        return FaultPlan(
            num_tiles=num_tiles,
            failed_links=tuple(sorted(failed_links)),
            arbiter_drop_prob=self.arbiter.probability,
            failed_slices=tuple(sorted(failed_slices)),
            walker_slowdown=self.walker.factor,
            setup_timeout=self.setup_timeout,
            max_backoff=self.max_backoff,
            max_retries=self.max_retries,
            seed=derive_seed(base_seed, "faults.runtime"),
        )


# ----------------------------------------------------------------------
# The compiled plan


@dataclass(frozen=True)
class FaultPlan:
    """The frozen, concrete fault injection of one run.

    Pure data: hashable, canonicalisable (a cache-key field of
    :class:`~repro.sim.scenario.RunUnit`), and complete — everything the
    runtime :class:`~repro.faults.inject.FaultInjector` needs, including
    the sub-seed that drives transient drop draws.
    """

    num_tiles: int
    failed_links: Tuple[Link, ...] = ()
    arbiter_drop_prob: float = 0.0
    failed_slices: Tuple[int, ...] = ()
    walker_slowdown: float = 1.0
    setup_timeout: int = 64
    max_backoff: int = 8
    max_retries: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_tiles < 1:
            raise ValueError("need at least one tile")
        if not 0.0 <= self.arbiter_drop_prob <= 1.0:
            raise ValueError("arbiter drop probability must be in [0, 1]")
        if self.walker_slowdown < 1.0:
            raise ValueError("walker slowdown must be >= 1.0")
        if self.setup_timeout < 1 or self.max_backoff < 1 or self.max_retries < 0:
            raise ValueError("resilience knobs out of range")
        object.__setattr__(
            self,
            "failed_links",
            tuple(sorted((int(a), int(b)) for a, b in self.failed_links)),
        )
        object.__setattr__(
            self, "failed_slices", tuple(sorted(int(s) for s in self.failed_slices))
        )
        for index in self.failed_slices:
            if not 0 <= index < self.num_tiles:
                raise ValueError(f"failed slice {index} outside the mesh")

    @property
    def is_empty(self) -> bool:
        """True when injecting this plan cannot change any outcome.

        The engine treats an empty plan exactly like ``faults=None`` —
        the fault-free code path — so a rate-0 sweep point is bit-
        identical to the plain run by construction.
        """
        return (
            not self.failed_links
            and not self.failed_slices
            and self.arbiter_drop_prob == 0.0
            and self.walker_slowdown == 1.0
        )

    def scaled_walk_latency(self, latency: int) -> int:
        """A walk's latency under the walker-slowdown model."""
        if self.walker_slowdown == 1.0:
            return latency
        return int(math.ceil(latency * self.walker_slowdown))
