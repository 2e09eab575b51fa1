"""Discrete-event simulation kernel (substrate).

A from-scratch, generator-based process simulation kernel in the style
of SimPy, plus the statistics machinery the paper's evaluation needs
(Welford accumulators, batch means, and the 1 %-CI-at-p-0.99 stopping
rule of §4.1).

Quick example::

    from repro.sim import Environment

    def ping(env, pong):
        while True:
            yield env.timeout(1)
            pong.succeed()
            pong = env.event()

    env = Environment()
    env.run(until=100)
"""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".events": (
            "AllOf",
            "AnyOf",
            "Condition",
            "ConditionValue",
            "Event",
            "Sleep",
            "Timeout",
        ),
        ".kernel": ("Environment", "Infinity"),
        ".monitor": ("StateMonitor",),
        ".process": ("Process",),
        ".resources": ("Resource", "Store", "Waiters"),
        ".rng": ("RandomStreams", "Stream"),
        ".stats": (
            "BatchMeans",
            "RunningStats",
            "TimeWeightedStats",
            "normal_ppf",
            "regularized_incomplete_beta",
            "student_t_cdf",
            "student_t_ppf",
        ),
        ".stopping": ("PrecisionStopping", "StoppingConfig"),
        ".trace": ("NULL_TRACER", "NullTracer", "TraceRecord", "Tracer"),
    },
)

__all__ = [
    "AllOf",
    "AnyOf",
    "BatchMeans",
    "Condition",
    "ConditionValue",
    "Environment",
    "Event",
    "Infinity",
    "NULL_TRACER",
    "NullTracer",
    "PrecisionStopping",
    "Process",
    "RandomStreams",
    "Resource",
    "StateMonitor",
    "RunningStats",
    "Sleep",
    "Store",
    "StoppingConfig",
    "Stream",
    "TimeWeightedStats",
    "Timeout",
    "TraceRecord",
    "Tracer",
    "Waiters",
    "normal_ppf",
    "student_t_ppf",
]
