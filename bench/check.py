"""Output checks for the benchmark workloads.

Every check here is computed apart from ifbench: it reads the files the CLI
wrote as plain JSON and recomputes what they must say from the definitions
in the repository's README.md (scores, family constraints) or from properties the method must
have (optimal replay, determinism). Nothing is compared against a stored copy
of earlier output, and nothing here imports ifbench.

Each ``check_*`` function returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import deque
from pathlib import Path

FAMILIES = ("basic-easy", "basic-hard", "limit-easy", "limit-hard",
            "preexplore-easy", "preexplore-hard", "synthetic-easy",
            "synthetic-medium", "synthetic-hard")
PER_FAMILY = 16
INVENTORY_LIMIT = 2
TURN_LIMIT = 50
PHASES = ("format-fail", "parse-fail", "resolution-fail", "precondition-fail",
          "success")
FAILURE_PHASES = PHASES[:-1]
# families built on generate_basic(rng, "easy" | "hard")
EASY_BASED = ("basic-easy", "limit-easy", "preexplore-easy", "synthetic-easy",
              "synthetic-medium")
HARD_BASED = ("basic-hard", "limit-hard", "preexplore-hard")
# tolerance for sums taken in another order than the program's
EPS = 1e-9

_FACT = re.compile(r"^([a-z_][\w-]*)\(([^()]*)\)$")


def parse_fact(text: str) -> tuple[str, tuple[str, ...]]:
    m = _FACT.match(text)
    if not m:
        raise ValueError(f"not a fact: {text!r}")
    return m.group(1), tuple(m.group(2).split(",")) if m.group(2) else ()


def tree_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


# -- the generated suite -------------------------------------------------------

def load_suite(suite_dir: Path) -> dict[str, dict]:
    """Instance id -> instance JSON, in family and file order."""
    suite = {}
    for family in FAMILIES:
        payload = json.loads((suite_dir / f"{family}.json").read_text(encoding="utf-8"))
        for row in payload["instances"]:
            suite[row["id"]] = row
    return suite


def _distances(connections, origin: str) -> dict[str, int]:
    adj: dict[str, set[str]] = {}
    for a, b in connections:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    dist = {origin: 0}
    queue = deque([origin])
    while queue:
        cur = queue.popleft()
        for nxt in adj.get(cur, ()):
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                queue.append(nxt)
    return dist


def locations(inst: dict) -> tuple[str, dict[str, tuple[str, str]], dict[str, str], set[str]]:
    """Start room, item -> (predicate, holder), fixture -> room, closed ids."""
    start, placed, fixtures, closed = None, {}, {}, set()
    fixture_ids = {e["id"] for e in inst["entities"] if "room-fixture" in e["traits"]}
    for text in inst["initial_facts"]:
        pred, args = parse_fact(text)
        if pred == "at" and args[0] == "player":
            start = args[1]
        elif pred == "at" and args[0] in fixture_ids:
            fixtures[args[0]] = args[1]
        elif pred in ("at", "on", "in"):
            placed[args[0]] = (pred, args[1])
        elif pred == "closed":
            closed.add(args[0])
    return start, placed, fixtures, closed


def surface(inst: dict, noun: str) -> str:
    lex = inst.get("lexicon") or {}
    return (lex.get("nouns") or {}).get(noun, noun)


def check_suite(suite_dir: Path, data_dir: Path) -> list[str]:
    """The README's family constraints on the generated instance files."""
    problems = []
    english = {w.strip() for w in (data_dir / "english_words.txt").read_text(
        encoding="utf-8").splitlines() if w.strip() and not w.startswith("#")}
    catalogue = set()
    for name, key in (("entities.json", "entities"), ("rooms.json", "rooms")):
        for row in json.loads((data_dir / name).read_text(encoding="utf-8"))[key]:
            catalogue.add(row["noun"])
            catalogue.update(row["noun"].split())
    ids = set()
    for family in FAMILIES:
        path = suite_dir / f"{family}.json"
        if not path.is_file():
            problems.append(f"{family}: no instance file")
            continue
        payload = json.loads(path.read_text(encoding="utf-8"))
        rows = payload["instances"]
        if len(rows) != PER_FAMILY or payload.get("count") != PER_FAMILY:
            problems.append(f"{family}: {len(rows)} instances")
        for inst in rows:
            iid = inst["id"]
            if iid in ids:
                problems.append(f"{iid}: duplicate id")
            ids.add(iid)
            if inst["family"] != family:
                problems.append(f"{iid}: family {inst['family']}")
            problems.extend(f"{iid}: {p}" for p in _check_instance(
                family, inst, english, catalogue))
    return problems


def _check_instance(family: str, inst: dict, english: set[str],
                    catalogue: set[str]) -> list[str]:
    problems = []
    length = inst["optimal_length"]
    if not isinstance(length, int) or not 1 <= length <= TURN_LIMIT:
        problems.append(f"optimal_length {length}")
    limit = inst["inventory_limit"]
    if limit != (INVENTORY_LIMIT if family.startswith("limit-") else None):
        problems.append(f"inventory limit {limit}")
    start, placed, fixtures, closed = locations(inst)
    connections = [tuple(c) for c in inst["connections"]]
    goals = [(g["kind"],) + parse_fact(g["fact"]) for g in inst["goals"]]

    pre = inst.get("preexploration")
    if family.startswith("preexplore-"):
        problems.extend(_check_walk(inst, start, connections, pre))
    elif pre:
        problems.append("unexpected pre-exploration")

    if family in EASY_BASED or family in HARD_BASED:
        if len(goals) != 3 or any(k != "placement" for k, _, _ in goals):
            problems.append("expected three placement goals")
            return problems
        targets = [args[1] for _, _, args in goals]
        for _, pred, (item, target) in goals:
            target_room = fixtures[target]
            where, holder = placed[item]
            if family in HARD_BASED:
                if where != "in" or holder not in closed:
                    problems.append(f"{item} is not hidden in a closed container")
                elif _distances(connections, fixtures[holder]).get(target_room, 99) < 2:
                    problems.append(f"{item} is under 2 rooms from its target")
            else:
                if where == "in":
                    problems.append(f"{item} is hidden in a container")
                    continue
                room = holder if where == "at" else fixtures[holder]
                if _distances(connections, room).get(target_room, 99) > 1:
                    problems.append(f"{item} is not adjacent to its target")
        if family in HARD_BASED:
            holders = [placed[args[0]][1] for _, _, args in goals]
            if len(set(holders)) != 3 or len(set(targets)) != 3:
                problems.append("containers or targets are not distinct")

    lex = inst.get("lexicon") or {}
    nouns, verbs = lex.get("nouns") or {}, lex.get("verbs") or {}
    pseudo = list(nouns.values()) + list(verbs.values())
    if family == "synthetic-easy" and (len(nouns), len(verbs)) != (3, 1):
        problems.append(f"{len(nouns)} nouns and {len(verbs)} verbs replaced")
    if family == "synthetic-medium" and (len(nouns), len(verbs)) != (9, 3):
        problems.append(f"{len(nouns)} nouns and {len(verbs)} verbs replaced")
    if family == "synthetic-hard":
        problems.extend(_check_line(inst, connections, goals))
        pseudo += [e["noun"] for e in inst["entities"]]
        pseudo += [a["verb"] for a in inst["extra_actions"]]
        pseudo += [s for g in inst["state_groups"] for s in g["states"]]
    elif not family.startswith("synthetic-") and pseudo:
        problems.append("unexpected lexicon")
    for word in pseudo:
        if word in english or word in catalogue:
            problems.append(f"pseudo-word {word!r} is a real word")
    if len(set(pseudo)) != len(pseudo):
        problems.append("pseudo-words repeat")
    return problems


def _check_walk(inst: dict, start: str, connections, pre) -> list[str]:
    """6-8 `go` steps that walk along connections and return to the start."""
    if not pre or not 6 <= len(pre) <= 8:
        return [f"pre-exploration of {len(pre or [])} steps"]
    by_surface = {surface(inst, r["noun"]): r["id"] for r in inst["rooms"]}
    edges = set(connections) | {(b, a) for a, b in connections}
    room = start
    for command, _ in pre:
        if not command.startswith("> go "):
            return [f"pre-exploration step {command!r} is not a go"]
        nxt = by_surface.get(command[len("> go "):])
        if (room, nxt) not in edges:
            return [f"pre-exploration step {command!r} leaves the connections"]
        room = nxt
    return [] if room == start else ["pre-exploration walk is not closed"]


def _check_line(inst: dict, connections, goals) -> list[str]:
    rooms = {r["id"] for r in inst["rooms"]}
    degree = {r: 0 for r in rooms}
    for a, b in connections:
        degree[a] += 1
        degree[b] += 1
    problems = []
    if (len(rooms) != 4 or len(connections) != 3
            or sorted(degree.values()) != [1, 1, 2, 2]
            or len(_distances(connections, next(iter(rooms)))) != 4):
        problems.append("rooms are not four in a line")
    if sorted(len(g["states"]) for g in inst["state_groups"]) != [1, 2, 3]:
        problems.append("objects do not have 1/2/3-state machines")
    if any(kind != "entity-state" for kind, _, _ in goals):
        problems.append("goals are not object states")
    return problems


# -- transcripts and scores ----------------------------------------------------

def read_transcripts(agent_dir: Path, suite: dict[str, dict]) -> tuple[dict, list[str]]:
    """instance id -> (turn lines, summary), and the consistency problems:
    phase counts equal the tally of the turn lines, the final state holds
    exactly the goals reported as achieved, and the outcome follows from the
    last turn and the final state."""
    episodes, problems = {}, []
    for iid, inst in suite.items():
        path = agent_dir / inst["family"] / f"{iid}.jsonl"
        if not path.is_file():
            problems.append(f"{iid}: no transcript")
            continue
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        turns, summary = rows[:-1], rows[-1]
        episodes[iid] = (turns, summary)
        problems.extend(f"{iid}: {p}" for p in _check_episode(inst, turns, summary))
    return episodes, problems


def _check_episode(inst: dict, turns: list[dict], summary: dict) -> list[str]:
    problems = []
    if summary.get("type") != "summary" or any(t.get("type") != "turn" for t in turns):
        return ["transcript is not turn lines followed by one summary"]
    if [t["turn"] for t in turns] != list(range(1, len(turns) + 1)):
        problems.append("turn numbers are not 1..n")
    if summary["turns"] != len(turns):
        problems.append(f"summary says {summary['turns']} turns, {len(turns)} lines")
    tally = {p: 0 for p in PHASES}
    for t in turns:
        tally[t["phase"]] += 1
    if summary["phase_counts"] != tally:
        problems.append(f"phase counts {summary['phase_counts']} != tally {tally}")
    final = set(summary["final_state"]["facts"])
    goals = [g["fact"] for g in inst["goals"]]
    held = sorted(g for g in goals if g in final)
    if sorted(summary["goals_achieved"]) != held:
        problems.append(f"reports goals {summary['goals_achieved']}, state holds {held}")
    if summary["goals_total"] != len(goals):
        problems.append("goals_total differs from the instance")
    if summary["optimal_length"] != inst["optimal_length"]:
        problems.append("optimal_length differs from the instance")
    last = turns[-1] if turns else None
    if last and last["phase"] == "success" and (last["action"] or {}).get("verb") == "done":
        expected = "success" if len(held) == len(goals) else "lost"
    elif last and last["phase"] == "format-fail":
        expected = "aborted-format"
    elif len(turns) >= TURN_LIMIT:
        expected = "aborted-turn-limit"
    else:
        expected = "aborted-agent"
    if summary["outcome"] != expected:
        problems.append(f"outcome {summary['outcome']}, expected {expected}")
    return problems


def _scores(summaries: list[dict]) -> dict:
    """Played, Quality, GSR and the turn/phase figures of one family, by the
    README's definitions."""
    n = len(summaries)
    played = [s for s in summaries if s["outcome"] in ("success", "lost")]
    wins = [s for s in played if s["outcome"] == "success"]
    grounded = sum(s["grounded_turns"] for s in summaries)
    optimal = [s["optimal_length"] for s in summaries if s["optimal_length"]]
    return {
        "n_episodes": n,
        "played_pct": len(played) / n * 100.0,
        "quality": len(wins) / len(played) * 100.0 if played else 0.0,
        "gsr": sum(len(s["goals_achieved"]) / s["goals_total"] * 100.0
                   for s in summaries) / n,
        "mean_turns": sum(s["turns"] for s in summaries) / n,
        "mean_optimal_turns": sum(optimal) / len(optimal) if optimal else None,
        "phase_failure_histogram": {p: sum(s["phase_counts"][p] for s in summaries)
                                    for p in FAILURE_PHASES},
        "successful_turns": sum(s["phase_counts"]["success"] for s in summaries),
        "epistemic_action_pct": (sum(s["epistemic_turns"] for s in summaries)
                                 / grounded * 100.0) if grounded else 0.0,
    }


def _close(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= EPS
    return a == b


def check_scores(agent_dir: Path, episodes: dict) -> list[str]:
    """scores.json equals the scores recomputed from the JSONL summaries."""
    per_family: dict[str, list[dict]] = {}
    for _, summary in episodes.values():
        per_family.setdefault(summary["family"], []).append(summary)
    expected = {f: _scores(s) for f, s in sorted(per_family.items())}
    mq = sum(e["quality"] for e in expected.values()) / len(expected)
    mp = sum(e["played_pct"] for e in expected.values()) / len(expected)
    macro = {"clemscore": mq * mp / 100.0, "macro_quality": mq,
             "macro_played": mp,
             "macro_gsr": sum(e["gsr"] for e in expected.values()) / len(expected)}
    reported = json.loads((agent_dir / "scores.json").read_text(encoding="utf-8"))
    problems = [f"scores.json {k} = {reported.get(k)}, recomputed {v}"
                for k, v in macro.items() if not _close(reported.get(k), v)]
    if reported["experiments"].keys() != expected.keys():
        problems.append("scores.json families differ from the transcripts")
    for family, values in expected.items():
        got = reported["experiments"].get(family)
        if not _close(got, values):
            problems.append(f"scores.json {family} = {got}, recomputed {values}")
    return problems


def check_scripted(episodes: dict) -> list[str]:
    """Replaying an optimal plan succeeds in exactly optimal_length turns."""
    return [f"{iid}: {s['outcome']} in {s['turns']} turns, optimal {s['optimal_length']}"
            for iid, (_, s) in episodes.items()
            if s["outcome"] != "success" or s["turns"] != s["optimal_length"]]


def check_heuristic(episodes: dict) -> list[str]:
    """No agent beats the optimal plan; a `done` is judged on the final state
    (the latter is part of the consistency check)."""
    return [f"{iid}: {s['turns']} turns, below the optimal {s['optimal_length']}"
            for iid, (_, s) in episodes.items() if s["turns"] < s["optimal_length"]]


def check_report(report_dir: Path, suite: dict[str, dict], agent_dir: Path) -> list[str]:
    """turns.csv carries scores.json's mean turns and every instance has a graph."""
    problems = []
    scores = json.loads((agent_dir / "scores.json").read_text(encoding="utf-8"))
    rows = (report_dir / "turns.csv").read_text(encoding="utf-8").splitlines()
    expected = ["agent,experiment,mean_turns,mean_optimal_turns"] + [
        f"{scores['agent']},{f},{v['mean_turns']:.4f},{v['mean_optimal_turns']:.4f}"
        for f, v in sorted(scores["experiments"].items())]
    if rows != expected:
        problems.append("turns.csv differs from scores.json")
    for iid in suite:
        dot = report_dir / "graphs" / f"{iid}.dot"
        if not dot.is_file() or not dot.read_text(encoding="utf-8").startswith(
                f'digraph "{iid}"'):
            problems.append(f"{iid}: no graph")
    return problems


def check_stub(episodes: dict, script: dict[str, dict], stats: dict) -> list[str]:
    """Each episode replays its stub script: one request per turn, each
    request extends the previous one by exactly one reply and its feedback,
    phase counts equal the failures injected, and it succeeds in plan length
    plus injected turns."""
    problems = list(stats["errors"])
    by_id = {entry["id"]: entry for entry in script.values()}
    for iid, (turns, summary) in episodes.items():
        entry, seen = by_id[iid], stats["episodes"].get(iid)
        if seen is None:
            problems.append(f"{iid}: no request reached the stub")
            continue
        problems.extend(f"{iid}: {v}" for v in seen["violations"])
        injected = {p: entry["kinds"].count(p) for p in FAILURE_PHASES}
        if seen["requests"] != len(turns):
            problems.append(f"{iid}: {seen['requests']} requests for {len(turns)} turns")
        if [t["raw"] for t in turns] != entry["replies"] or seen["replies"] != entry["replies"]:
            problems.append(f"{iid}: turns differ from the stub's replies")
        if [t["feedback"] for t in turns[:-1]] != seen["feedback"]:
            problems.append(f"{iid}: feedback sent differs from the transcript")
        if {p: summary["phase_counts"][p] for p in FAILURE_PHASES} != injected:
            problems.append(f"{iid}: phase counts {summary['phase_counts']}, injected {injected}")
        if [t["phase"] for t in turns] != [k if k != "plan" else "success"
                                           for k in entry["kinds"]]:
            problems.append(f"{iid}: turn phases differ from the injected failures")
        plan_length = entry["kinds"].count("plan")
        if (summary["outcome"] != "success" or plan_length != summary["optimal_length"]
                or len(turns) != plan_length + sum(injected.values())):
            problems.append(f"{iid}: {summary['outcome']} in {len(turns)} turns "
                            f"for a plan of {plan_length}")
    return problems
