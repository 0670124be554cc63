"""Benchmark scoring: Played / Quality / GSR / clemscore, exploration
accounting, and failure-phase statistics.

Quality's denominator is the non-aborted (played) episodes; GSR is averaged
per episode over all episodes, aborted ones included, on their final state.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, dataclass
from typing import Iterable, Mapping

from .interpreter import PHASES

_FAILURE_PHASES = tuple(p for p in PHASES if p != "success")


class EmptyInput(Exception):
    pass


@dataclass
class EpisodeSummary:
    """What aggregation needs from one episode (matches the JSONL summary)."""

    instance_id: str
    family: str
    outcome: str
    turns: int
    goals_total: int
    goals_achieved: int
    phase_counts: Mapping[str, int]
    grounded_turns: int = 0
    epistemic_turns: int = 0
    pragmatic_turns: int = 0
    optimal_length: int | None = None

    @staticmethod
    def from_json(summary: Mapping) -> "EpisodeSummary":
        return EpisodeSummary(
            instance_id=summary["instance_id"],
            family=summary["family"],
            outcome=summary["outcome"],
            turns=summary["turns"],
            goals_total=summary["goals_total"],
            goals_achieved=len(summary["goals_achieved"]),
            phase_counts=dict(summary["phase_counts"]),
            grounded_turns=summary.get("grounded_turns", 0),
            epistemic_turns=summary.get("epistemic_turns", 0),
            pragmatic_turns=summary.get("pragmatic_turns", 0),
            optimal_length=summary.get("optimal_length"),
        )


@dataclass
class ExperimentScores:
    experiment: str
    n_episodes: int
    played_pct: float
    quality: float
    gsr: float
    mean_turns: float
    mean_optimal_turns: float | None
    phase_failure_histogram: dict[str, int]
    successful_turns: int
    epistemic_action_pct: float

    @staticmethod
    def from_json(experiment: str, data: Mapping) -> "ExperimentScores":
        """Inverse of one entry of ``scores_to_json(...)["experiments"]``."""
        return ExperimentScores(experiment=experiment, **data)


def goal_success_rate(achieved: int, total: int) -> float:
    """|achieved goals| / |goals| x 100."""
    if total < 1 or not 0 <= achieved <= total:
        raise ValueError(f"bad goal counts {achieved}/{total}")
    return achieved / total * 100.0


def is_played(outcome: str) -> bool:
    return outcome in ("success", "lost")


def aggregate(episodes: Iterable[EpisodeSummary],
              experiment: str | None = None) -> ExperimentScores:
    """Scores over one experiment family's episodes."""
    episodes = list(episodes)
    if not episodes:
        raise EmptyInput("no episodes to aggregate")
    experiment = experiment or episodes[0].family
    total = len(episodes)
    played = [e for e in episodes if is_played(e.outcome)]
    successes = [e for e in played if e.outcome == "success"]
    histogram = {p: 0 for p in _FAILURE_PHASES}
    successful_turns = 0
    grounded = epistemic = 0
    for e in episodes:
        for phase in _FAILURE_PHASES:
            histogram[phase] += e.phase_counts.get(phase, 0)
        successful_turns += e.phase_counts.get("success", 0)
        grounded += e.grounded_turns
        epistemic += e.epistemic_turns
    optimal = [e.optimal_length for e in episodes if e.optimal_length]
    return ExperimentScores(
        experiment=experiment,
        n_episodes=total,
        played_pct=len(played) / total * 100.0,
        quality=(len(successes) / len(played) * 100.0) if played else 0.0,
        gsr=sum(goal_success_rate(e.goals_achieved, e.goals_total)
                for e in episodes) / total,
        mean_turns=sum(e.turns for e in episodes) / total,
        mean_optimal_turns=(sum(optimal) / len(optimal)) if optimal else None,
        phase_failure_histogram=histogram,
        successful_turns=successful_turns,
        epistemic_action_pct=(epistemic / grounded * 100.0) if grounded else 0.0,
    )


def combine_clemscore(macro_quality: float, macro_played: float) -> float:
    return macro_quality * macro_played / 100.0


def macro_averages(per_experiment: Iterable[ExperimentScores]
                   ) -> tuple[float, float, float]:
    """Macro-average quality, played and GSR, summed in experiment-name
    order so that every caller gets the same float bits."""
    scores = sorted(per_experiment, key=lambda s: s.experiment)
    if not scores:
        raise EmptyInput("no experiment scores")
    n = len(scores)
    return (sum(s.quality for s in scores) / n,
            sum(s.played_pct for s in scores) / n,
            sum(s.gsr for s in scores) / n)


# -- reporting ----------------------------------------------------------------

def paper_pct(value: float) -> str:
    """Percentage formatted the way the reference tables truncate: one
    decimal, rounded toward zero (93.75 -> '93.7')."""
    truncated = math.floor(value * 10 + 1e-9) / 10
    return f"{truncated:.1f}"


def scores_to_json(agent: str, per_experiment: list[ExperimentScores]) -> dict:
    macro_quality, macro_played, gsr = macro_averages(per_experiment)
    return {
        "agent": agent,
        "clemscore": combine_clemscore(macro_quality, macro_played),
        "macro_quality": macro_quality,
        "macro_played": macro_played,
        "macro_gsr": gsr,
        "experiments": {
            s.experiment: {k: v for k, v in asdict(s).items() if k != "experiment"}
            for s in sorted(per_experiment, key=lambda s: s.experiment)
        },
    }


def scores_to_csv(rows: list[dict]) -> str:
    """One row per (agent, experiment)."""
    buf = io.StringIO()
    fields = ["agent", "experiment", "n_episodes", "played_pct", "quality",
              "gsr", "mean_turns", "mean_optimal_turns", "epistemic_action_pct"]
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k) for k in fields})
    return buf.getvalue()


def format_overview(rows: list[dict]) -> str:
    """Benchmark overview: one line per agent (clemscore ranking)."""
    header = f"{'agent':<24} {'clemscore':>9} {'quality':>8} {'played':>7} {'goal rate':>9}"
    lines = [header, "-" * len(header)]
    for row in sorted(rows, key=lambda r: -r["clemscore"]):
        lines.append(f"{row['agent']:<24} {row['clemscore']:>9.1f} "
                     f"{row['macro_quality']:>8.1f} {row['macro_played']:>7.1f} "
                     f"{row['macro_gsr']:>9.1f}")
    return "\n".join(lines)


def format_grid(per_agent: dict[str, list[ExperimentScores]]) -> str:
    """Per-experiment grid: quality/played cell per (experiment, agent)."""
    agents = sorted(per_agent)
    experiments = sorted({s.experiment for scores in per_agent.values()
                          for s in scores})
    width = max(12, max((len(a) for a in agents), default=12) + 1)
    header = f"{'experiment':<18}" + "".join(f"{a:>{width}}" for a in agents)
    lines = [header, "-" * len(header)]
    for experiment in experiments:
        cells = []
        for agent in agents:
            match = [s for s in per_agent[agent] if s.experiment == experiment]
            if match:
                cells.append(f"{paper_pct(match[0].quality)}/"
                             f"{paper_pct(match[0].played_pct)}")
            else:
                cells.append("-")
        lines.append(f"{experiment:<18}" + "".join(f"{c:>{width}}" for c in cells))
    return "\n".join(lines)
