"""Deterministic interactive-fiction benchmark engine: world interpreter,
command grammar, seeded instance generator, optimal-plan oracle, metrics,
and a pluggable agent harness. The package has no dependency outside the
standard library. Its public names and its submodules are imported on first
use (PEP 562), so that ``import ifbench`` loads none of the submodules."""

__version__ = "0.1.0"

_NAMES = {  # each submodule's public names
    "world": "Fact fact parse_fact EntityDef RoomDef StateGroup GoalCondition WorldDef "
             "WorldState InvariantViolation apply_delta visible_facts check_goals "
             "load_entity_catalogue load_room_catalogue",
    "grammar": "ActionDef ActionFlags Lexicon ParsedCommand GroundedAction Parser "
               "ParseFailure GroundFailure DuplicateVerb build_parser "
               "load_standard_actions",
    "instance": "FAMILIES INSTANCES_PER_FAMILY Instance instance_to_dot load_instances "
                "save_instances",
    "interpreter": "Engine Episode TurnRecord FormatViolation AgentUnavailable "
                   "MissingBinding render_feedback run_episode episode_summary "
                   "write_episode read_episode_summary TURN_LIMIT",
    "planner": "PlanResult Unsolvable SearchBudgetExceeded solve_optimal",
    "pseudowords": "PseudowordMaker load_english_words",
    "generate": "GenerationExhausted WalkNotFound generate_basic generate_family "
                "generate_preexploration",
    "metrics": "ExperimentScores EmptyInput goal_success_rate aggregate combine_clemscore",
    "agents": "ScriptedAgent HeuristicAgent HumanAgent LlmAgent LlmConfig "
              "MalformedResponse llm_chat transcript_to_messages",
}
_OWNER = {name: module for module, ns in _NAMES.items() for name in ns.split()}
__all__ = sorted(_OWNER)


def __getattr__(name: str):
    """A public name or a submodule, imported on first access and kept."""
    from importlib import import_module
    if name not in _OWNER and name not in _NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_OWNER.get(name, name)}", __name__)
    value = globals()[name] = getattr(module, name) if name in _OWNER else module
    return value


def __dir__() -> list[str]:
    return [*__all__, "__version__"]
