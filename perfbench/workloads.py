"""Workload table of the paper-shape benchmark.

Every workload is built only through the public ``repro.experiments`` API:
presets, ``build_simulation``/``expand_grid`` and ``GridRunner``.  Dispatch
is chosen with ``ExperimentConfig.dispatch`` / ``policy=``.  The seed given
to the benchmark becomes both the science ``seed`` and the ``dataset_seed``
of the generated configs; the program sees nothing else.
"""

from __future__ import annotations

import math

#: Nominal seconds per measured unit (a round, or one cold sweep) on a
#: 2-core x86 host.  They only turn ``--seconds`` into a fixed amount of
#: work, so a run's work depends on its arguments alone, never on speed.
WORKLOADS = {
    "fmnist-dfar-refd": {
        "kind": "sim",
        "dataset": "fashion-mnist",
        "attack": "dfa-r",
        "defense": "refd",
        "dispatch": "serial",
        "unit_s": 2.3,
        "twin": "fmnist-dfar-refd",
        "why": "REFD inference lane: 10 models x 5000 reference images per round, serial",
    },
    "cifar10-dfag-mkrum": {
        "kind": "sim",
        "dataset": "cifar-10",
        "attack": "dfa-g",
        "defense": "mkrum",
        "dispatch": "serial",
        "unit_s": 7.5,
        "twin": "cifar10-dfag-mkrum",
        "why": "no REFD; CIFAR conv shapes in evaluation and in DFA-G/local training",
    },
    "fmnist-dfar-refd-pooled": {
        "kind": "sim",
        "dataset": "fashion-mnist",
        "attack": "dfa-r",
        "defense": "refd",
        "dispatch": "process:2",
        "unit_s": 2.9,
        "twin": "fmnist-dfar-refd",
        "why": "serial twin through the process pool, shm shard store and round/refd fan-out",
    },
    "grid-bench-sweep": {
        "kind": "grid",
        "dataset": "fashion-mnist",
        "attacks": ("dfa-r", "dfa-g", "lie", "fang"),
        "defenses": ("refd", "mkrum", "median"),
        "dispatch": "process:2",
        "unit_s": 5.0,
        "why": "cold 12-cell sweep: grid dispatch, dataset broker, pool, artifact writes",
    },
}

#: REFD drops exactly this many updates per round (``Refd(num_rejected=2)``).
REFD_REJECTED = 2

DEFAULT_SEED = 1


def preset(scale: str):
    from repro.experiments import benchmark_scale, paper_scale, smoke_scale

    return {"paper": paper_scale, "benchmark": benchmark_scale, "smoke": smoke_scale}[scale]


def units_for(name: str, seconds: float) -> int:
    """Measured units (rounds after the warm-up one, or sweeps) for a run."""
    return max(2, int(math.floor(seconds / WORKLOADS[name]["unit_s"] + 0.5)))


def sim_config(name: str, seed: int, rounds: int, scale: str = "paper"):
    """The ``ExperimentConfig`` of a simulation workload for one seed."""
    spec = WORKLOADS[name]
    return preset(scale)(
        spec["dataset"],
        attack=spec["attack"],
        defense=spec["defense"],
        seed=seed,
        dataset_seed=seed,
        num_rounds=rounds,
        dispatch=spec["dispatch"],
    )


def grid_scenarios(name: str, seed: int, scale: str = "benchmark"):
    """The ``(label, config)`` cells of a grid workload for one seed."""
    from repro.experiments import expand_grid

    spec = WORKLOADS[name]
    return expand_grid(
        datasets=(spec["dataset"],),
        attacks=spec["attacks"],
        defenses=spec["defenses"],
        seeds=(seed,),
        scale=preset(scale),
        dataset_seed=seed,
    )
