"""Benchmark scoring: Played / Quality / GSR / clemscore, exploration
accounting, and failure-phase statistics, computed from the summary line
that closes each episode's transcript (`interpreter.episode_summary`), by
`score_summaries` for both `run` and `report`.

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


class EmptyInput(Exception):
    pass


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


def goal_success_rate(achieved: int, total: int) -> float:
    """|achieved goals| / |goals| x 100."""
    if total < 1 or not 0 <= achieved <= total:
        raise ValueError(f"bad goal counts {achieved}/{total}")
    return achieved / total * 100.0


def aggregate(episodes: Iterable[Mapping],
              experiment: str | None = None) -> ExperimentScores:
    """Scores over one experiment family's episodes, each given by its
    summary as `interpreter.episode_summary` makes it and
    `interpreter.read_episode_summary` reads it back."""
    episodes = list(episodes)
    if not episodes:
        raise EmptyInput("no episodes to aggregate")
    total = len(episodes)
    outcomes = [e["outcome"] for e in episodes]
    played = sum(o in ("success", "lost") for o in outcomes)
    by_phase = {p: sum(e["phase_counts"][p] for e in episodes) for p in PHASES}
    grounded = sum(e["grounded_turns"] for e in episodes)
    epistemic = sum(e["epistemic_turns"] for e in episodes)
    optimal = [e["optimal_length"] for e in episodes if e["optimal_length"]]
    return ExperimentScores(
        experiment=experiment or episodes[0]["family"],
        n_episodes=total,
        played_pct=played / total * 100.0,
        quality=(outcomes.count("success") / played * 100.0) if played else 0.0,
        gsr=sum(goal_success_rate(len(e["goals_achieved"]), e["goals_total"])
                for e in episodes) / total,
        mean_turns=sum(e["turns"] for e in episodes) / total,
        mean_optimal_turns=(sum(optimal) / len(optimal)) if optimal else None,
        phase_failure_histogram={p: n for p, n in by_phase.items()
                                 if p != "success"},
        successful_turns=by_phase["success"],
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


def score_summaries(agent: str, summaries: Iterable[Mapping]
                    ) -> tuple[list[ExperimentScores], dict]:
    """An agent's scores per experiment and its `scores.json` object: its
    summaries sorted by instance id, grouped by family and aggregated."""
    per_family: dict[str, list[Mapping]] = {}
    for summary in sorted(summaries, key=lambda s: s["instance_id"]):
        per_family.setdefault(summary["family"], []).append(summary)
    scores = [aggregate(group, family)
              for family, group in sorted(per_family.items())]
    return scores, scores_to_json(agent, scores)


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
    cells = {(s.experiment, agent): f"{paper_pct(s.quality)}/{paper_pct(s.played_pct)}"
             for agent in agents for s in per_agent[agent]}
    width = max(12, max((len(a) for a in agents), default=12) + 1)
    header = f"{'experiment':<18}" + "".join(f"{a:>{width}}" for a in agents)
    lines = [header, "-" * len(header)]
    for experiment in sorted({e for e, _ in cells}):
        lines.append(f"{experiment:<18}" + "".join(
            f"{cells.get((experiment, a), '-'):>{width}}" for a in agents))
    return "\n".join(lines)
