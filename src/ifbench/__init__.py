"""Deterministic interactive-fiction benchmark engine: world interpreter,
command grammar, seeded instance generator, optimal-plan oracle, metrics,
and a pluggable agent harness.

The generator's names are imported on first use (PEP 562), so that importing
the package, or a command other than ``generate``, does not load numpy."""

from .world import (Fact, fact, parse_fact, EntityDef, RoomDef, StateGroup,
                    GoalCondition, WorldDef, WorldState, Observation,
                    InvariantViolation, apply_delta, visible_facts,
                    check_goals, load_entity_catalogue, load_room_catalogue)
from .grammar import (ActionDef, ActionFlags, Lexicon, ParsedCommand,
                      GroundedAction, Parser, ParseFailure, GroundFailure,
                      DuplicateVerb, build_parser, load_standard_actions)
from .instance import (FAMILIES, INSTANCES_PER_FAMILY, Instance,
                       instance_to_dot, load_instances, save_instances)
from .interpreter import (Engine, Episode, EpisodeRecord, TurnRecord,
                          FormatViolation, AgentUnavailable, MissingBinding,
                          render_feedback, run_episode, write_episode,
                          read_episode_summary, TURN_LIMIT)
from .planner import PlanResult, Unsolvable, SearchBudgetExceeded, solve_optimal
from .pseudowords import PseudowordMaker, load_english_words
from .metrics import (EpisodeSummary, ExperimentScores, EmptyInput,
                      goal_success_rate, aggregate,
                      clemscore, combine_clemscore, label_action)
from .agents import (ScriptedAgent, HeuristicAgent, HumanAgent, LlmAgent,
                     LlmConfig, MalformedResponse, llm_chat,
                     transcript_to_messages)

__version__ = "0.1.0"

_GENERATE_NAMES = frozenset({
    "GenerationExhausted", "WalkNotFound", "generate_basic", "generate_family",
    "generate_all", "apply_inventory_limit", "generate_preexploration",
    "apply_lexicon"})


def __getattr__(name: str):
    if name in _GENERATE_NAMES:
        from . import generate
        return getattr(generate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
