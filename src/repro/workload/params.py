"""Simulation parameters — Table 1 of the paper.

=========  =============================================  ============
Parameter  Description                                    Distribution
=========  =============================================  ============
D          Number of nodes                                fixed
C          Number of clients                              fixed
S1         Number of 1st-layer servers                    fixed
S2         Number of 2nd-layer servers                    fixed
M          Migration duration for servers                 fixed
N          Number of calls in a move-block                exponential
t_i        Time between two calls in a block              exponential
t_m        Time between two move-blocks                   exponential
—          Duration of a remote call                      exp(1)
=========  =============================================  ============

All times are multiples of one remote-message latency (normalized to
mean 1).  A move-block is *sensible* when its expected number of calls
exceeds the migration duration (N > M, §4.1); the paper's parameter
sets respect this (N̄=8 or 6 against M=6) and :meth:`validate`
enforces it unless explicitly waived.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.attachment import AttachmentMode
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SimulationParameters:
    """One experiment cell's full parameterization.

    Attributes mirror Table 1, plus the policy under test and the
    attachment semantics for layered (Fig 16) workloads.
    """

    #: D — number of nodes.
    nodes: int = 3
    #: C — number of clients (sedentary, one move-block loop each).
    clients: int = 3
    #: S1 — first-layer servers (directly used by clients).
    servers_layer1: int = 3
    #: S2 — second-layer servers (used by first-layer servers; 0 for
    #: the basic client–server structure of Fig 6).
    servers_layer2: int = 0
    #: M — migration duration for a size-1 server.
    migration_duration: float = 6.0
    #: Mean of N — calls per move-block (exponential).
    mean_calls_per_block: float = 8.0
    #: Mean of t_i — time between two calls in a block (exponential).
    mean_intercall_time: float = 1.0
    #: Mean of t_m — time between two move-blocks (exponential).
    mean_interblock_time: float = 30.0
    #: Mean duration of one remote message (normalized to 1).
    mean_message_latency: float = 1.0
    #: Policy under test (registry name).
    policy: str = "placement"
    #: Block style: "move" (object stays after end, §2.3's move) or
    #: "visit" (object migrates back to where it came from at end —
    #: call-by-visit).  Visit adds a return transfer per granted block.
    block_style: str = "move"
    #: Attachment semantics for layered workloads.
    attachment_mode: AttachmentMode = AttachmentMode.UNRESTRICTED
    #: Whether move-blocks are issued within their alliance context
    #: (A-transitive experiments set this together with the mode).
    use_alliances: bool = False
    #: Working-set size of each first-layer server (layered workloads).
    working_set_size: int = 2
    #: Root random seed.
    seed: int = 0
    #: Physical topology (registry name; "full" is the paper's model).
    topology: str = "full"
    #: Location strategy (registry name; "immediate" is the paper's).
    locator: str = "immediate"

    # -- validation -----------------------------------------------------------------

    def validate(self, require_sensible: bool = True) -> None:
        """Raise :class:`ConfigurationError` on inconsistent settings."""
        if self.nodes < 1:
            raise ConfigurationError("need at least one node")
        if self.clients < 1:
            raise ConfigurationError("need at least one client")
        if self.servers_layer1 < 1:
            raise ConfigurationError("need at least one first-layer server")
        if self.servers_layer2 < 0:
            raise ConfigurationError("servers_layer2 must be >= 0")
        if self.migration_duration < 0:
            raise ConfigurationError("migration_duration must be >= 0")
        if self.mean_calls_per_block <= 0:
            raise ConfigurationError("mean_calls_per_block must be > 0")
        if self.mean_intercall_time < 0:
            raise ConfigurationError("mean_intercall_time must be >= 0")
        if self.mean_interblock_time < 0:
            raise ConfigurationError("mean_interblock_time must be >= 0")
        if self.mean_message_latency < 0:
            raise ConfigurationError("mean_message_latency must be >= 0")
        if self.working_set_size < 1:
            raise ConfigurationError("working_set_size must be >= 1")
        if self.block_style not in ("move", "visit"):
            raise ConfigurationError(
                f"block_style must be 'move' or 'visit', got "
                f"{self.block_style!r}"
            )
        if (
            self.servers_layer2 > 0
            and self.working_set_size > self.servers_layer2
        ):
            raise ConfigurationError(
                "working_set_size cannot exceed servers_layer2"
            )
        if require_sensible and not self.is_sensible:
            raise ConfigurationError(
                "move-blocks are not sensible: mean N "
                f"({self.mean_calls_per_block}) must exceed M "
                f"({self.migration_duration}) — §4.1; pass "
                "require_sensible=False to study insensible setups"
            )

    @property
    def is_sensible(self) -> bool:
        """The §4.1 sensibility condition N > M (non-strict).

        Non-strict because the paper's own Fig 17 parameter set uses
        N̄ = M = 6.
        """
        return self.mean_calls_per_block >= self.migration_duration

    @property
    def is_layered(self) -> bool:
        """Whether the Fig 7 two-layer structure applies."""
        return self.servers_layer2 > 0

    @property
    def workload(self) -> type:
        """The workload class that simulates this cell (Fig 6 or 7)."""
        from repro.workload.clientserver import ClientServerWorkload
        from repro.workload.layered import LayeredWorkload

        return LayeredWorkload if self.is_layered else ClientServerWorkload

    # -- derived deterministic placement ------------------------------------------------

    def client_node(self, client_index: int) -> int:
        """Home node of client i (round-robin over nodes)."""
        return client_index % self.nodes

    def server_node(self, server_index: int) -> int:
        """Initial node of first-layer server j (round-robin).

        Symmetric with the clients, which yields the paper's sedentary
        baseline anchors (e.g. P(local) = 1/3 for D = C = S1 = 3).
        """
        return server_index % self.nodes

    def layer2_node(self, server_index: int) -> int:
        """Initial node of second-layer server k (offset round-robin)."""
        return (self.servers_layer1 + server_index) % self.nodes

    def with_overrides(self, **changes) -> "SimulationParameters":
        """Functional update (sweeps build cells this way)."""
        return replace(self, **changes)

    def label(self) -> str:
        """Short human-readable cell label for reports."""
        bits = [
            f"policy={self.policy}",
            f"D={self.nodes}",
            f"C={self.clients}",
            f"S1={self.servers_layer1}",
        ]
        if self.servers_layer2:
            bits.append(f"S2={self.servers_layer2}")
            bits.append(f"attach={self.attachment_mode.value}")
        bits.append(f"M={self.migration_duration:g}")
        bits.append(f"N~exp({self.mean_calls_per_block:g})")
        bits.append(f"tm~exp({self.mean_interblock_time:g})")
        return " ".join(bits)
