"""Deterministic interactive-fiction benchmark engine: world interpreter,
command grammar, seeded instance generator, optimal-plan oracle, metrics,
and a pluggable agent harness. The package has no dependency outside the
standard library."""

from .world import (Fact, fact, parse_fact, EntityDef, RoomDef, StateGroup,
                    GoalCondition, WorldDef, WorldState,
                    InvariantViolation, apply_delta, visible_facts,
                    check_goals, load_entity_catalogue, load_room_catalogue)
from .grammar import (ActionDef, ActionFlags, Lexicon, ParsedCommand,
                      GroundedAction, Parser, ParseFailure, GroundFailure,
                      DuplicateVerb, build_parser, load_standard_actions)
from .instance import (FAMILIES, INSTANCES_PER_FAMILY, Instance,
                       instance_to_dot, load_instances, save_instances)
from .interpreter import (Engine, Episode, TurnRecord, FormatViolation,
                          AgentUnavailable, MissingBinding, render_feedback,
                          run_episode, episode_summary, write_episode,
                          read_episode_summary, TURN_LIMIT)
from .planner import PlanResult, Unsolvable, SearchBudgetExceeded, solve_optimal
from .pseudowords import PseudowordMaker, load_english_words
from .generate import (GenerationExhausted, WalkNotFound, generate_basic,
                       generate_family, generate_preexploration)
from .metrics import (EpisodeSummary, ExperimentScores, EmptyInput,
                      goal_success_rate, aggregate, combine_clemscore)
from .agents import (ScriptedAgent, HeuristicAgent, HumanAgent, LlmAgent,
                     LlmConfig, MalformedResponse, llm_chat,
                     transcript_to_messages)

__version__ = "0.1.0"
