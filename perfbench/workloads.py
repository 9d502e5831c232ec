"""Seeded corpora for the benchmark workloads.

Every corpus is a pure function of (workload, seed): the generators draw
from one ``random.Random`` seeded with both, so a parent commit and a
change given the same seed optimize identical inputs, which the printed
fingerprint lets a reader confirm. Workload sizes are chosen so that one
pass over a corpus fits a run of about twelve seconds on two cores.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import shutil
from dataclasses import dataclass

from mapf_collapse import (
    Graph,
    GridMap,
    Instance,
    PlanRequest,
    PlanningError,
    Schedule,
    cell_name,
    grid_to_graph,
    noisy_rollout,
    prioritized_plan,
    reduce_independent_set,
    save_instance,
)

ROLLOUT32 = "rollout32"
GRID64 = "grid64"
REDUCTION = "reduction"
BATCH_PLANS = "batch_plans"
MODES = {ROLLOUT32: "relaxed", GRID64: "relaxed", REDUCTION: "strict", BATCH_PLANS: "strict"}

TIME_LIMIT_MS = 5000  # passed explicitly, so a change of the CLI default cannot move a workload
OBSTACLE_SHARE = 0.10

# rollout32: noisy rollouts on 32x32 maps. From T=56 on, the monolithic
# branch-and-bound has a heavy tail (at T=64 many instances reach the
# 5 s cap), so the corpus mean would hang on a handful of instances;
# T=52 with 8 agents keeps the solve at about a third of optimize time.
R32_SIZE, R32_AGENTS, R32_HORIZON, R32_NOISE = 32, 8, 52, 0.4
R32_MAPS, R32_PER_MAP = 75, 8

# grid64: one 64x64 map per instance, 64 agents, T=256: ~20k candidates
# and 2.4-3.6M within-agent mutex pairs per instance.
G64_SIZE, G64_AGENTS, G64_HORIZON, G64_NOISE = 64, 64, 256, 0.4
G64_INSTANCES = 3

# reduction: independent set -> collapse instances on random graphs with
# 10 vertices and 13 edges (density ~0.3). 10 vertices keeps every proof
# far below the time limit (12-14 vertices reach 3 s); a fixed edge count
# fixes the horizon (7m - 1), which sets most of the solve time.
RED_VERTICES, RED_EDGES, RED_INSTANCES = 10, 13, 800

# batch_plans: clean prioritized plans written to instance files. On
# maps with 10% obstacles about one 64-agent draw in ten has no plan,
# and the failed search alone costs seconds and ~45 MB, so set-up time
# and peak memory would depend on the seed; 5% obstacles avoid that.
BP_SIZE, BP_OBSTACLE_SHARE, BP_HORIZON_CAP, BP_FILES = 32, 0.05, 256, 16
BP_AGENT_COUNTS = (16, 32, 48, 64)


@dataclass(frozen=True)
class Case:
    id: str
    schedule: Schedule
    graph: Graph
    source: Graph | None = None  # reduction: the independent-set graph H


@dataclass
class Corpus:
    cases: list[Case]
    directory: str | None = None  # batch_plans: the instance files live here

    def fingerprint(self) -> str:
        """sha256 over every input the optimizer sees, in corpus order."""
        digest = hashlib.sha256()
        if self.directory is not None:
            for name in sorted(os.listdir(self.directory)):
                digest.update(name.encode())
                with open(os.path.join(self.directory, name), "rb") as fh:
                    digest.update(fh.read())
            return digest.hexdigest()
        graph_digests: dict[int, str] = {}
        for case in self.cases:
            key = id(case.graph)
            if key not in graph_digests:
                graph_digests[key] = hashlib.sha256(
                    json.dumps(case.graph.to_json_dict(), sort_keys=True).encode()
                ).hexdigest()
            digest.update(case.id.encode())
            digest.update(graph_digests[key].encode())
            for ag in case.schedule.agents:
                digest.update("|".join((ag.name, ag.start, ag.goal) + ag.path).encode())
        return digest.hexdigest()


def _direct(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _random_grid(rng: random.Random, size: int, obstacle_share: float = OBSTACLE_SHARE) -> GridMap:
    cells = [(r, c) for r in range(size) for c in range(size)]
    return GridMap(size, size, frozenset(rng.sample(cells, round(obstacle_share * size * size))))


def _rollouts(rng, span, size, agents, horizon, noise, n_maps, per_map, prefix) -> list[Case]:
    cases = []
    for m in range(n_maps):
        grid = _random_grid(rng, size)
        graph = span("graph.build", grid_to_graph, grid)
        free = [cell_name(r, c) for r, c in grid.free_cells()]
        for k in range(per_map):
            request = PlanRequest(
                graph,
                tuple(rng.sample(free, agents)),
                tuple(rng.sample(free, agents)),
                horizon=horizon,
                seed=rng.randrange(1 << 30),
                noise=noise,
            )
            schedule = span("planner.generate", noisy_rollout, request)
            cases.append(Case(f"{prefix}{m:03d}.{k}", schedule, graph))
    return cases


def _reduction_cases(rng, span) -> list[Case]:
    names = [f"u{i}" for i in range(RED_VERTICES)]
    pairs = list(itertools.combinations(names, 2))
    cases = []
    for k in range(RED_INSTANCES):
        h = span("graph.build", Graph, names, rng.sample(pairs, RED_EDGES))
        red = span("reduction.compile", reduce_independent_set, h, 1)
        cases.append(Case(f"is{k:04d}", red.schedule, red.graph, source=h))
    return cases


def _batch_files(rng, span, directory: str) -> list[Case]:
    if os.path.isdir(directory):
        shutil.rmtree(directory)
    os.makedirs(directory)
    cases = []
    for k in range(BP_FILES):
        agents = BP_AGENT_COUNTS[k % len(BP_AGENT_COUNTS)]
        while True:
            grid = _random_grid(rng, BP_SIZE, BP_OBSTACLE_SHARE)
            graph = span("graph.build", grid_to_graph, grid)
            free = [cell_name(r, c) for r, c in grid.free_cells()]
            request = PlanRequest(
                graph,
                tuple(rng.sample(free, agents)),
                tuple(rng.sample(free, agents)),
                horizon=BP_HORIZON_CAP,
            )
            try:
                schedule = span("planner.generate", prioritized_plan, request)
                break
            except PlanningError:
                continue  # no conflict-free plan on this draw; draw a new layout
        case_id = f"plan{k:02d}"
        path = os.path.join(directory, case_id + ".json")
        span("schedule.save", save_instance, Instance(graph, schedule, grid, "random32"), path)
        cases.append(Case(case_id, schedule, graph))
    return cases


def build_corpus(workload: str, seed: int, work_dir: str, span=None) -> Corpus:
    """Generate the workload's corpus; span(name, fn, *args) wraps each layer call."""
    rng = random.Random(f"{workload}/{seed}")
    span = span or _direct
    if workload == ROLLOUT32:
        cases = _rollouts(
            rng, span, R32_SIZE, R32_AGENTS, R32_HORIZON, R32_NOISE, R32_MAPS, R32_PER_MAP, "r"
        )
        return Corpus(cases)
    if workload == GRID64:
        cases = _rollouts(
            rng, span, G64_SIZE, G64_AGENTS, G64_HORIZON, G64_NOISE, G64_INSTANCES, 1, "g"
        )
        return Corpus(cases)
    if workload == REDUCTION:
        return Corpus(_reduction_cases(rng, span))
    if workload == BATCH_PLANS:
        directory = os.path.join(work_dir, f"batch_plans-seed{seed}")
        return Corpus(_batch_files(rng, span, directory), directory)
    raise ValueError(f"unknown workload {workload!r}")
