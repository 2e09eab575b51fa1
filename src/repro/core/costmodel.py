"""Analytic cost model of §3.2.

Let C be the cost of one remote message, N the number of invocations a
move-block performs, and M the cost of migrating the object (M > C for
any non-trivial object).  A move-block is *sensible* when N·C > M — the
programmer promises the migration pays for itself.

For the two-concurrent-movers scenario of Fig 4 the paper derives:

* place-policy: the object moves once; the loser invokes remotely:
  ``M + (2N + 1)·C``
* conventional move, worst case (the second request arrives before the
  first mover performed any call): the object moves twice and one
  mover's N invocations happen remotely anyway:
  ``2M + (2N + 2)·C``

The place-policy is therefore strictly cheaper whenever M > C... in
fact whenever ``M + C > 0``.  These closed forms cross-check the
simulation (``tests/test_core_costmodel.py``) and power the break-even
analytics.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostParameters:
    """The §3.2 cost constants.

    Attributes
    ----------
    remote_message_cost:
        C — mean cost of one remote message (normalized to 1 in §4).
    migration_cost:
        M — cost of migrating the object.
    calls_per_block:
        N — invocations inside one move-block.
    """

    remote_message_cost: float = 1.0
    migration_cost: float = 6.0
    calls_per_block: float = 8.0

    def __post_init__(self):
        if self.remote_message_cost < 0:
            raise ValueError("remote_message_cost must be >= 0")
        if self.migration_cost < 0:
            raise ValueError("migration_cost must be >= 0")
        if self.calls_per_block <= 0:
            raise ValueError("calls_per_block must be > 0")

    @property
    def is_sensible(self) -> bool:
        """The paper's sensibility condition for move-blocks: N·C > M."""
        return self.calls_per_block * self.remote_message_cost > self.migration_cost


def cost_no_migration(params: CostParameters, movers: int = 2) -> float:
    """Total cost of the scenario with sedentary objects.

    Every one of the ``movers`` blocks performs N remote invocations
    (call + result message each); nothing migrates.
    """
    c, n = params.remote_message_cost, params.calls_per_block
    return movers * 2 * n * c


def cost_placement_concurrent(params: CostParameters) -> float:
    """§3.2's place-policy cost for two concurrent movers.

    One migration; the winner's N calls are local, the loser's N calls
    are remote (2N messages), plus one move-request message:
    ``M + (2N + 1)·C``.
    """
    c, m, n = (
        params.remote_message_cost,
        params.migration_cost,
        params.calls_per_block,
    )
    return m + (2 * n + 1) * c


def cost_conventional_worst_case(params: CostParameters) -> float:
    """§3.2's conventional worst case for two concurrent movers.

    The second move-request arrives before the first mover performed
    any call: two migrations, one mover still ends up calling remotely:
    ``2M + (2N + 2)·C``.
    """
    c, m, n = (
        params.remote_message_cost,
        params.migration_cost,
        params.calls_per_block,
    )
    return 2 * m + (2 * n + 2) * c


def placement_advantage(params: CostParameters) -> float:
    """Worst-case saving of placement over conventional migration.

    ``(2M + (2N+2)C) − (M + (2N+1)C) = M + C`` — always positive.
    """
    return cost_conventional_worst_case(params) - cost_placement_concurrent(params)


def migration_break_even_clients(
    params: CostParameters,
    nodes: int,
) -> float:
    """First-order estimate of Fig 12's break-even client count.

    Compares the sedentary per-call cost against a simple conflict
    model for conventional migration: each additional concurrent
    client adds one expected object steal per block, costing the
    victim remote calls plus the extra migration.  The estimate
    deliberately stays coarse — the simulation gives the real curve —
    but it reproduces the right order of magnitude and the right
    monotonicity in N/M (the paper: "an increase in N/M will have an
    over-proportional effect on the break-even point").
    """
    c, m, n = (
        params.remote_message_cost,
        params.migration_cost,
        params.calls_per_block,
    )
    if nodes < 2:
        raise ValueError("need at least 2 nodes for a remote/local distinction")
    p_remote = 1.0 - 1.0 / nodes
    sedentary_per_call = 2 * c * p_remote
    # Conventional with no conflicts: amortized migration only.
    base_per_call = p_remote * m / n
    # Marginal conflict cost per extra client: a stolen block loses
    # local service for half its calls on average (they become remote)
    # and the thief's migration adds M amortized over the victim's N.
    conflict_per_client = (c * p_remote + m / (2 * n)) / n
    if conflict_per_client <= 0:
        return float("inf")
    return 1 + (sedentary_per_call - base_per_call) / conflict_per_client
