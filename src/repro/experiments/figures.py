"""Per-figure experiment definitions (§4's evaluation), ablations and
outlook studies.

Each factory in :data:`FIGURES` returns the :class:`~repro.experiments.
config.ExperimentDef` that regenerates one figure of the paper, with the
exact parameter tables printed next to the figures (Figs 9, 13, 15, 17);
one ablation: a short grid of cells around a figure's base that checks
something the paper mentions, neglects or normalizes away; or one
outlook study (§2.2, §5), whose cells are another workload's parameters.

``fast=True`` thins the figures' sweeps for smoke tests and CI; the full
grids are what EXPERIMENTS.md reports.  The outlook sweeps are already
short and ignore it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Dict, Tuple, Union

from repro.availability.faulttolerance import FaultToleranceParameters
from repro.availability.workload import AvailabilityParameters
from repro.core.attachment import AttachmentMode
from repro.experiments.config import ExperimentDef, SeriesDef
from repro.fragmentation.workload import FragmentationParameters
from repro.replication.workload import ReplicationParameters
from repro.workload.params import SimulationParameters

# ---------------------------------------------------------------------------
# Figure 8 / 10 / 11 — increasing the usage frequency (t_m sweep)
# ---------------------------------------------------------------------------

#: Parameters of Fig 9: D=3, C=3, S1=3, S2=0, M=6, N~exp(8), t_i~exp(1).
FIG8_BASE = SimulationParameters(
    nodes=3,
    clients=3,
    servers_layer1=3,
    servers_layer2=0,
    migration_duration=6.0,
    mean_calls_per_block=8.0,
    mean_intercall_time=1.0,
)

#: The three policies of Fig 8's legend.
FIG8_POLICIES = (
    ("without Migration", "sedentary"),
    ("Migration", "migration"),
    ("Transient Placement", "placement"),
)


Variants = Tuple[Tuple[str, Dict[str, Any]], ...]


def _series(
    base: Any,
    seed: int,
    variants: Variants,
    axis: Callable[[float], Dict[str, Any]],
) -> Tuple[SeriesDef, ...]:
    """One curve per ``(label, overrides)`` of ``base``; ``axis`` maps
    an x-value to its own overrides."""
    return tuple(
        SeriesDef(
            label=label,
            cell=lambda x, overrides=overrides: replace(
                base, seed=seed, **axis(x), **overrides
            ),
        )
        for label, overrides in variants
    )


def _policies(pairs) -> Variants:
    return tuple((label, {"policy": policy}) for label, policy in pairs)


def _tm_sweep(fast: bool) -> Tuple[float, ...]:
    if fast:
        return (4.0, 30.0, 100.0)
    return (2.0, 4.0, 7.0, 10.0, 15.0, 20.0, 30.0, 40.0, 60.0, 80.0, 100.0)


def figure8(seed: int = 0, fast: bool = False) -> ExperimentDef:
    """Fig 8: mean communication time per call vs t_m (usage distance)."""
    series = _series(
        FIG8_BASE,
        seed,
        _policies(FIG8_POLICIES),
        axis=lambda tm: {"mean_interblock_time": tm},
    )
    return ExperimentDef(
        exp_id="fig8",
        title="Increasing the Usage Frequency",
        x_label="Mean Distance between two Usages (t_m)",
        x_values=_tm_sweep(fast),
        series=series,
        metric="mean_communication_time_per_call",
        notes=(
            "Sedentary baseline anchors at 4/3 (remote round trip 2 x "
            "P(remote)=2/3). Placement <= Migration everywhere; both beat "
            "the baseline at low concurrency (large t_m)."
        ),
    )


def figure10(seed: int = 0, fast: bool = False) -> ExperimentDef:
    """Fig 10: the call-duration component of Fig 8."""
    return replace(
        figure8(seed=seed, fast=fast),
        exp_id="fig10",
        title="Duration of Invocations",
        metric="mean_call_duration",
        notes="Call duration rises as concurrency rises (t_m falls).",
    )


def figure11(seed: int = 0, fast: bool = False) -> ExperimentDef:
    """Fig 11: the migration-load component of Fig 8."""
    return replace(
        figure8(seed=seed, fast=fast),
        exp_id="fig11",
        title="Migration-Load",
        metric="mean_migration_time_per_call",
        notes=(
            "Migration time per call falls at maximum concurrency: the "
            "callee is increasingly often already collocated."
        ),
    )


# ---------------------------------------------------------------------------
# Figure 12 — increasing the number of callers (hot-spot objects)
# ---------------------------------------------------------------------------

#: Parameters of Fig 13: D=27, S1=3, M=6, N~exp(8), t_i~exp(1), t_m~exp(30).
FIG12_BASE = SimulationParameters(
    nodes=27,
    clients=1,
    servers_layer1=3,
    servers_layer2=0,
    migration_duration=6.0,
    mean_calls_per_block=8.0,
    mean_intercall_time=1.0,
    mean_interblock_time=30.0,
)


def _client_sweep(fast: bool, maximum: int) -> Tuple[float, ...]:
    if fast:
        return tuple(float(c) for c in (1, max(2, maximum // 2), maximum))
    step_points = [1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 18, 21, 25]
    return tuple(float(c) for c in step_points if c <= maximum)


def _figure(
    exp_id: str,
    title: str,
    base: Any,
    variants: Variants,
    notes: str,
    grid: Union[int, Tuple[float, ...]] = 25,
    x_label: str = "Number of Clients",
    axis: Callable[[float], Dict[str, Any]] = lambda c: {"clients": int(c)},
    metric: str = "mean_communication_time_per_call",
) -> Callable[..., ExperimentDef]:
    """A figure factory: one curve per variant of ``base``, swept along
    ``axis`` (by default, the number of clients).

    An int ``grid`` is the top of the paper's client sweep, thinned by
    ``fast``; a tuple is a fixed grid (the ablations' and outlook
    studies', already short).
    """

    def factory(seed: int = 0, fast: bool = False) -> ExperimentDef:
        return ExperimentDef(
            exp_id=exp_id,
            title=title,
            x_label=x_label,
            x_values=(
                _client_sweep(fast, grid)
                if isinstance(grid, int)
                else tuple(float(x) for x in grid)
            ),
            series=_series(base, seed, variants, axis),
            metric=metric,
            notes=notes,
        )

    factory.__doc__ = f"{title}: {notes}"
    return factory


#: Fig 12: mean communication time per call vs number of clients.
figure12 = _figure(
    "fig12",
    "Increasing the Number of Clients",
    FIG12_BASE,
    _policies(FIG8_POLICIES),
    "Conventional migration grows ~linearly and crosses the "
    "sedentary baseline near C=6; placement grows sublinearly "
    "with break-even near C=20 (paper's numbers).",
)


# ---------------------------------------------------------------------------
# Figure 14 — exploiting dynamic information
# ---------------------------------------------------------------------------

#: Parameters of Fig 15: D=3, S1=3, M=6, N~exp(8), t_i~exp(1), t_m~exp(30).
FIG14_BASE = SimulationParameters(
    nodes=3,
    clients=1,
    servers_layer1=3,
    servers_layer2=0,
    migration_duration=6.0,
    mean_calls_per_block=8.0,
    mean_intercall_time=1.0,
    mean_interblock_time=30.0,
)

FIG14_POLICIES = (
    ("Conservative Place-Policy", "placement"),
    ("Comparing the Nodes", "comparing"),
    ("Comparing and Reinstantiation", "reinstantiation"),
)


#: Fig 14: intelligent placement strategies vs number of clients.
figure14 = _figure(
    "fig14",
    "Exploiting Dynamic Information",
    FIG14_BASE,
    _policies(FIG14_POLICIES),
    "Both intelligent strategies track the conservative place-"
    "policy closely; gains are marginal even with their "
    "bookkeeping overhead neglected (§4.3).",
)


# ---------------------------------------------------------------------------
# Figure 16 — keeping objects together (attachments & alliances)
# ---------------------------------------------------------------------------

#: Parameters of Fig 17: D=24, S1=6, S2=6, M=6, N~exp(6), t_i~exp(1),
#: t_m~exp(30).
FIG16_BASE = SimulationParameters(
    nodes=24,
    clients=1,
    servers_layer1=6,
    servers_layer2=6,
    migration_duration=6.0,
    mean_calls_per_block=6.0,
    mean_intercall_time=1.0,
    mean_interblock_time=30.0,
    working_set_size=2,
)

#: attachment label -> (attachment mode, use_alliances)
ATTACHMENTS = {
    "unrestricted": (AttachmentMode.UNRESTRICTED, False),
    "exclusive": (AttachmentMode.EXCLUSIVE, False),
    "A-transitive": (AttachmentMode.A_TRANSITIVE, True),
}


def _attached(label: str, policy: str, attachment: str):
    mode, ally = ATTACHMENTS[attachment]
    return label, dict(policy=policy, attachment_mode=mode, use_alliances=ally)


#: Fig 16's legend: the sedentary baseline, then policy x attachment.
FIG16_VARIANTS = (
    _attached("without Migration", "sedentary", "unrestricted"),
) + tuple(
    _attached(f"{label} + {attachment} Attachment", policy, attachment)
    for label, policy in FIG8_POLICIES[1:]
    for attachment in ("unrestricted", "A-transitive")
)


#: Fig 16: attachment semantics under increasing client counts.
figure16 = _figure(
    "fig16",
    "Keeping Objects Together",
    FIG16_BASE,
    FIG16_VARIANTS,
    "Migration + unrestricted attachment is devastating (clients "
    "steal whole chained working sets); A-transitive attachment "
    "bounds the damage; placement + A-transitive is best (§4.4).",
    grid=12,
)


# ---------------------------------------------------------------------------
# Ablations — what the paper mentions, neglects or normalizes away
# ---------------------------------------------------------------------------


#: §2.2's transient fixing "to avoid thrashing", on Fig 12's hot spot.
guard_ablation = _figure(
    "guard",
    "Transient Fixing against Thrashing",
    FIG12_BASE,
    _policies(
        (
            ("Migration", "migration"),
            ("Guarded Migration", "guarded:migration"),
            ("Transient Placement", "placement"),
        )
    ),
    "The ThrashingGuard pins ping-ponging objects, capping conventional "
    "migration's hot-spot degradation; it only rate-limits conflicts, "
    "so it does not reach the place-policy.",
    grid=(3, 10, 20, 25),
)

#: The object-location strategies §4.1 folds into the message time.
LOCATORS = ("immediate", "forwarding", "nameserver", "broadcast")

locator_ablation = _figure(
    "locator",
    "Object-Location Strategies",
    FIG12_BASE,
    tuple(
        (f"{label} ({locator})", dict(policy=policy, locator=locator))
        for locator in LOCATORS
        for label, policy in FIG8_POLICIES[1:]
    ),
    "Immediate update is the paper's zero-cost model; the other "
    "locators add cost without reversing the policy ordering.",
    grid=(10,),
)

#: §4.2.2's predicted N/M effect on placement's break-even.
nm_ratio_ablation = _figure(
    "nm_ratio",
    "Break-even vs N/M (M = 6)",
    FIG12_BASE,
    tuple(
        (f"{label}, N~exp({n:g})", dict(policy=policy, mean_calls_per_block=n))
        for n in (8.0, 16.0)
        for label, policy in (FIG8_POLICIES[0], FIG8_POLICIES[2])
    ),
    "Doubling the calls per move-block pushes placement's break-even "
    "with the sedentary baseline right, possibly out of range.",
    grid=(1, 3, 6, 10, 15, 20, 25),
)

#: §3.4's exclusive attachment, described but not plotted.
exclusive_ablation = _figure(
    "exclusive",
    "Exclusive Attachment",
    FIG16_BASE,
    tuple(
        _attached(f"{label} + {attachment} Attachment", policy, attachment)
        for label, policy in FIG8_POLICIES[1:]
        for attachment in ATTACHMENTS
    ),
    "First-come-first-served exclusivity bounds working sets without "
    "aligning them with usage: between unrestricted and A-transitive.",
    grid=(10,),
)

#: §2.3's call-by-visit against the paper's call-by-move.
visit_ablation = _figure(
    "visit",
    "Call-by-Move vs Call-by-Visit",
    FIG12_BASE,
    tuple(
        (f"{label} ({style})", dict(policy=policy, block_style=style))
        for label, policy in FIG8_POLICIES[1:]
        for style in ("move", "visit")
    ),
    "Visit returns the object home after every block and pays the "
    "return transfer; for uniform clients home is no better a place.",
    grid=(3, 10, 20),
)

#: §4.1's "other structures had no effects", under its normalized
#: latency (per-hop latency, where they do, is a unit test).
topology_ablation = _figure(
    "topology",
    "Transient Placement per Topology (normalized latency)",
    FIG12_BASE,
    tuple(
        (name, dict(policy="placement", topology=name))
        for name in ("full", "ring", "star", "grid")
    ),
    "Message latency has one mean for every node pair, so the "
    "topology curves agree within noise.",
    grid=(3, 10),
)


# ---------------------------------------------------------------------------
# Outlook studies — the paper's §2.2 goal and §5 outlook, same harness
# ---------------------------------------------------------------------------


#: §5: replication under a read/write mix, against migration's story.
replication_study = _figure(
    "replication",
    "Replication vs Read Ratio",
    ReplicationParameters(),
    _policies((p, p) for p in ("none", "eager", "threshold")),
    "Eager replication thrashes like conventional migration once "
    "writes appear; threshold replication behaves like the place-policy.",
    grid=(0.99, 0.95, 0.9, 0.8, 0.7, 0.5),
    x_label="read_ratio",
    axis=lambda ratio: {"read_ratio": ratio},
    metric="mean_op_time",
)

#: §5: fragmented objects under conflicting migration control.
fragmentation_study = _figure(
    "fragmentation",
    "Fragment Granularity",
    FragmentationParameters(clients=20),
    _policies((p, p) for p in ("migration", "placement")),
    "Finer fragments tame conflicts, with diminishing returns.",
    grid=(1, 2, 4, 8),
    x_label="fragments",
    axis=lambda k: {"fragments_per_object": int(k)},
)

#: §2.2: availability calls for spreading a group, performance for
#: collocating it.
availability_study = _figure(
    "availability",
    "Collocation vs Distribution under Failures",
    AvailabilityParameters(mttf=200.0, mttr=50.0),
    tuple((p, {"placement": p}) for p in ("collocated", "spread")),
    "Spreading wins for independent accesses, collocation for chained "
    "group operations.",
    grid=(0.0, 0.1, 0.3, 0.6, 1.0),
    x_label="group_op_fraction",
    axis=lambda mix: {"group_op_fraction": mix},
    metric="mean_op_time",
)

#: The paper's three policies on a system that loses messages and
#: crashes nodes, over a fixed horizon (the stopping rule does not
#: apply).  The place-policy runs with leases: unleased, an abandoned
#: block keeps its locks forever
#: (``tests/test_availability_faulttolerance.py`` checks that contrast).
faulttolerance_study = _figure(
    "faulttolerance",
    "Migration Policies under Message Loss and Crashes",
    FaultToleranceParameters(mttf=150.0, mttr=50.0, sim_time=5_000.0),
    _policies((p, p) for p in ("sedentary", "migration"))
    + (("placement", {"policy": "placement", "lease_duration": 60.0}),),
    "Leased placement stays ahead of conventional migration, which "
    "stays ahead of no migration, at every loss rate.",
    grid=(0.0, 0.01, 0.03, 0.05),
    x_label="loss",
    axis=lambda loss: {"loss": loss},
    metric="mean_call_duration",
)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: Everything ``repro-experiment <id>`` and ``all`` regenerate.
FIGURES = {
    "fig8": figure8,
    "fig10": figure10,
    "fig11": figure11,
    "fig12": figure12,
    "fig14": figure14,
    "fig16": figure16,
    "guard": guard_ablation,
    "locator": locator_ablation,
    "nm_ratio": nm_ratio_ablation,
    "exclusive": exclusive_ablation,
    "visit": visit_ablation,
    "topology": topology_ablation,
    "replication": replication_study,
    "fragmentation": fragmentation_study,
    "availability": availability_study,
    "faulttolerance": faulttolerance_study,
}


def make_figure(name: str, seed: int = 0, fast: bool = False) -> ExperimentDef:
    """Build a figure's experiment definition by name."""
    try:
        factory = FIGURES[name]
    except KeyError:
        raise ValueError(
            f"unknown figure {name!r}; choose from {sorted(FIGURES)}"
        ) from None
    return factory(seed=seed, fast=fast)
