import re
import time
from dataclasses import dataclass

import pytest

from ifbench import (FAMILIES, INSTANCES_PER_FAMILY, HeuristicAgent,
                     ScriptedAgent, generate_family, run_episode)

BENCH_SEED = 17

_acceptance_outcomes: dict[str, str] = {}


def generate_all(base_seed: int,
                 count: int = INSTANCES_PER_FAMILY) -> dict[str, list]:
    """Every family at `base_seed`, in-process, by family name."""
    return {family: generate_family(base_seed, family, count)
            for family in FAMILIES}


@dataclass
class OracleRun:
    records: dict  # instance id -> (instance, episode record)
    elapsed: float


@pytest.fixture(scope="session")
def bench144():
    """All nine families x 16 instances at the default seed."""
    return generate_all(BENCH_SEED)


@pytest.fixture(scope="session")
def oracle_records(bench144):
    """Scripted replay of the stored optimal plan of every generated
    instance."""
    started = time.perf_counter()
    records = {}
    for family, instances in bench144.items():
        for instance in instances:
            agent = ScriptedAgent.from_plan(instance, instance.optimal_plan)
            records[instance.id] = (instance, run_episode(instance, agent))
    return OracleRun(records, time.perf_counter() - started)


@pytest.fixture(scope="session")
def heuristic_records(bench144):
    """A heuristic episode of every generated instance, by instance id."""
    records = {}
    for instances in bench144.values():
        for instance in instances:
            records[instance.id] = (instance, run_episode(
                instance, HeuristicAgent()))
    return records


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    match = re.search(r"test_acceptance\.py::test_criterion_(\w+)", report.nodeid)
    if match:
        _acceptance_outcomes[match.group(1)] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    def key(item):
        head = item[0].split("_")[0]
        return (0, int(head)) if head.isdigit() else (1, 0)
    for name, outcome in sorted(_acceptance_outcomes.items(), key=key):
        status = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}.get(
            outcome, outcome.upper())
        terminalreporter.write_line(f"criterion {name.replace('_', ' ')}: {status}")
