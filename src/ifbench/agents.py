"""Agent implementations behind one contract: scripted replay, a greedy
heuristic baseline, a human REPL, and a remote LLM over the
OpenAI-compatible /chat/completions protocol."""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass

from . import __version__
from .grammar import GroundedAction, staple_verbs
from .instance import Instance
from .interpreter import AgentUnavailable, Episode
from .world import PLAYER, WorldState, fact

API_KEY_VARS = ("IFBENCH_API_KEY", "OPENAI_API_KEY")

Transcript = tuple[tuple[str, str], ...]  # (role, text); roles: environment/agent


class MalformedResponse(Exception):
    pass


@dataclass
class LlmConfig:
    endpoint: str
    model: str
    temperature: float = 0.0
    max_tokens: int = 128
    timeout: float = 30.0
    retries: int = 2

    def __post_init__(self):
        # the bounds of the `run` options
        for name, low in (("temperature", 0), ("max_tokens", 1), ("retries", 0)):
            value = getattr(self, name)
            if not low <= value < float("inf"):  # JSON has no nan or inf
                raise ValueError(f"{name} must be >= {low} and finite, got {value}")
        if not 0 < self.timeout <= threading.TIMEOUT_MAX:  # also rejects nan
            raise ValueError(f"timeout must be > 0 and <= "
                             f"{threading.TIMEOUT_MAX}, got {self.timeout}")


class ScriptedAgent:
    """Replays a fixed command sequence (e.g. an optimal plan) verbatim."""

    def __init__(self, commands):
        self._queue = deque(commands)

    @classmethod
    def from_plan(cls, instance: Instance) -> "ScriptedAgent":
        """The agent that plays the instance's optimal plan, from the
        commands that loading it read back (`Instance.plan_commands`)."""
        return cls("> " + command for command in instance.plan_commands)

    def next_action(self, transcript: Transcript) -> str:
        if not self._queue:
            return "> done"
        return self._queue.popleft()


class HumanAgent:
    """Terminal REPL: prints new environment text, reads one command, and
    prefixes '>' when the player omits it."""

    def __init__(self, input_fn=None, print_fn=print):
        self._input = input_fn
        self._print = print_fn
        self._printed = 0

    def next_action(self, transcript: Transcript) -> str:
        for role, text in transcript[self._printed:]:
            if role == "environment":
                self._print(text)
                self._print()
        self._printed = len(transcript)
        try:
            line = (self._input or input)("> ")
        except EOFError as exc:
            raise AgentUnavailable("stdin closed") from exc
        line = line.strip()
        if not line.startswith(">"):
            line = "> " + line
        return line


def _action(verb: str, **bindings: str) -> GroundedAction:
    return GroundedAction(verb, tuple(bindings.items()))


class HeuristicAgent:
    """Greedy baseline: explore unvisited rooms, open closed containers once
    (where the instance has `open`), take reachable goal objects within the
    carry limit, deliver in target rooms, apply state-changing verbs to
    pending goal objects, then done.

    It plays the episode that `run_episode` hands to `start`, reading its
    state and never changing it. It believes only what the episode has
    shown, so it never needs to parse feedback text; and it returns a
    command only once its text grounds back to the decided action and that
    action's preconditions hold, so it never breaks the output format.
    """

    def start(self, episode: Episode) -> None:
        """Play `episode`, believing what it has shown so far: the start
        room and any pre-exploration walk."""
        self.episode, self.engine = episode, episode.engine
        self.world = episode.engine.world
        self.seen_rooms: set[str] = set()
        self.known_locations: dict[str, str] = {}
        self.opened: set[str] = set()
        self._observe(sorted(episode.observed))  # a set's order varies with str hashing

    @property
    def state(self) -> WorldState:
        return self.episode.state

    # -- belief upkeep ------------------------------------------------------

    def _observe(self, facts) -> None:
        """Take in observed facts (`visible_facts`' form): the rooms the
        player was in, and the room each entity was seen in, directly or
        on or in something there."""
        placed = [f.args for f in facts if f.predicate in ("at", "on", "in")]
        self.seen_rooms.update(r for e, r in placed if e == PLAYER)
        rooms = {e: r for e, r in placed if r in self.world.rooms and e != PLAYER}
        rooms.update((e, rooms[h]) for e, h in placed if h in rooms)
        self.known_locations.update(rooms)

    def next_action(self, transcript: Transcript) -> str:
        turns = self.episode.turns
        if turns:
            self._observe(turns[-1].revealed_facts)
        decided = self._decide()
        try:
            command = "> " + self.engine.parser.render(decided)
        except ValueError as exc:
            raise RuntimeError(f"heuristic decided {exc}") from exc
        failure = self.engine.step(decided, self.episode.steps).failure(self.state)
        if failure is not None:
            raise RuntimeError(f"heuristic issued {command!r}, which fails: "
                               f"{failure}")
        return command

    # -- policy -------------------------------------------------------------

    def _decide(self) -> GroundedAction:
        pending = [g for g in self.engine.goals
                   if g.fact not in self.state.facts]
        if not pending:
            return _action("done")
        visible = self.state.perceivable

        # open any closed container here we have not opened ourselves
        for container in sorted(visible):
            if self._to_open(container):
                self.opened.add(container)
                return _action("open", item=container)

        # apply a state-changing verb to a pending goal object in this room
        for goal in pending:
            if goal.kind != "entity-state":
                continue
            obj = goal.fact.args[0]
            if obj not in visible:
                continue
            for verb in sorted(set(self.engine.parser.actions) - set(staple_verbs())):
                grounded = _action(verb, item=obj)
                if self.engine.step(grounded, self.episode.steps).failure(
                        self.state) is None:
                    return grounded

        # deliver a carried goal object whose target is here
        for goal in pending:
            if goal.kind != "placement":
                continue
            item, target = goal.fact.args
            if item in self.state.inventory and target in visible:
                return _action("put", item=item, target=target)

        # pick up a reachable pending goal object (respecting the limit)
        space = (self.state.inventory_limit is None
                 or len(self.state.inventory) < self.state.inventory_limit)
        if space:
            for goal in pending:
                if goal.kind != "placement":
                    continue
                item = goal.fact.args[0]
                if item in visible and item not in self.state.inventory:
                    return _action("take", item=item)

        # navigate: towards a delivery target, a known pending object, a known
        # still-closed container when goal objects are unaccounted for, or the
        # nearest unvisited room
        desired = []
        unknown_items = False
        for goal in pending:
            if goal.kind == "placement":
                item, target = goal.fact.args
                if item in self.state.inventory and target in self.known_locations:
                    desired.append(self.known_locations[target])
                elif space and item not in self.state.inventory:
                    if item in self.known_locations:
                        desired.append(self.known_locations[item])
                    else:
                        unknown_items = True
            elif goal.fact.args[0] in self.known_locations:
                desired.append(self.known_locations[goal.fact.args[0]])
        if unknown_items:
            desired.extend(room for eid, room in self.known_locations.items()
                           if self._to_open(eid))
        step = self._step_towards(set(desired))
        if step is None:
            step = self._step_towards({b for a in self.seen_rooms
                                       for b in self.world.exits[a]
                                       if b not in self.seen_rooms})
        if step is not None:
            return _action("go", room=step)
        return _action("look")  # defensive; pending work always leaves a navigation target

    def _to_open(self, eid: str) -> bool:
        """`eid` is a closed container that we have not opened ourselves,
        and the instance has the verb to open it."""
        return ("open" in self.engine.parser.actions and self.world.is_container(eid)
                and eid not in self.opened
                and fact("closed", eid) in self.state.facts)

    def _step_towards(self, targets: set[str]) -> str | None:
        """The first move of a shortest path to one of `targets` along the
        passages the player has seen: those of the rooms it was in."""
        start = self.state.player_room
        if not targets or start in targets:
            return None
        seen = self.seen_rooms
        parents = {start: None}
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            for b in self.world.exits[cur]:
                if b in parents or cur not in seen and b not in seen:
                    continue
                parents[b] = cur
                if b in targets:
                    while parents[b] != start:
                        b = parents[b]
                    return b
                queue.append(b)
        return None


class LlmAgent:
    """Remote model over an OpenAI-compatible chat endpoint; responses are
    passed through verbatim and every request/response attempt is logged."""

    def __init__(self, config: LlmConfig):
        self.config = config
        self.log: list[dict] = []

    def next_action(self, transcript: Transcript) -> str:
        return llm_chat(self.config, transcript, log=self.log)


def transcript_to_messages(transcript: Transcript) -> list[dict]:
    roles = {"environment": "user", "agent": "assistant"}
    return [{"role": roles[role], "content": text} for role, text in transcript]


# the longest wait a Retry-After header may ask for, in seconds
RETRY_AFTER_MAX = 60.0
BACKOFF_S = 0.5  # seconds; retry n waits n times this, without a Retry-After


def _retry_after(value: str | None) -> float | None:
    """A Retry-After header given in delta-seconds (RFC 9110 10.2.3),
    capped at RETRY_AFTER_MAX; None when absent or in any other form."""
    value = (value or "").strip()
    if not (value.isascii() and value.isdigit()):
        return None
    return min(float(value), RETRY_AFTER_MAX)


def _retryable(status: int | None, error: Exception) -> bool:
    """Whether a failed attempt may pass on another try."""
    import http.client
    if status is None:  # no reply: transport failures only, not a bad URL
        return (isinstance(error, (OSError, http.client.HTTPException))
                and not isinstance(error, http.client.InvalidURL))
    return status < 400 or status in (408, 429) or status >= 500


def _reply_text(data) -> str:
    """The first choice's message content of a chat-completion body."""
    try:
        message = data["choices"][0]["message"]
    except (KeyError, IndexError, TypeError):
        raise MalformedResponse("no choices in response") from None
    text = message.get("content") if isinstance(message, dict) else None
    if not isinstance(text, str):
        raise MalformedResponse("no message content")
    return text


class _Kept:
    """A kept-alive connection (RFC 9112 9.3) to one endpoint URL with one
    timeout, through the environment's proxy for it when it is opened; it is
    closed when dropped, as when the thread that kept it ends."""

    def __init__(self, url: str, timeout: float):
        import base64
        import http.client
        import urllib.parse
        import urllib.request
        import weakref
        self.key, parts = (url, timeout), urllib.parse.urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.netloc:
            raise ValueError(f"not an http(s) URL with a host: {url!r}")
        host, tunnel, auth, self.headers = parts.netloc, None, {}, {}
        self.path = urllib.parse.urlunsplit(("", "", parts.path, parts.query, ""))
        proxy = urllib.request.getproxies().get(parts.scheme)
        if proxy and not urllib.request.proxy_bypass(parts.netloc):
            userinfo, _, host = urllib.parse.urlsplit(
                proxy if "://" in proxy else "//" + proxy).netloc.rpartition("@")
            if userinfo:
                auth["Proxy-Authorization"] = "Basic " + base64.b64encode(
                    urllib.parse.unquote(userinfo).encode()).decode()
            if parts.scheme == "https":  # through a CONNECT tunnel
                tunnel = parts.netloc
            else:  # the proxy takes the absolute URL
                self.path, self.headers = url, auth
        self.conn = (http.client.HTTPSConnection if parts.scheme == "https"
                     else http.client.HTTPConnection)(host, timeout=timeout)
        if tunnel:
            self.conn.set_tunnel(tunnel, headers=auth)
        weakref.finalize(self, self.conn.close)


_local = threading.local()  # .kept: this thread's _Kept, if any


def _drop_connection() -> None:
    """Close this thread's connection: nothing left on it, such as a late
    reply to a timed-out request, may be read as a later reply."""
    kept, _local.kept = getattr(_local, "kept", None), None
    if kept:
        kept.conn.close()


def _post(url: str, data: bytes, headers: dict, timeout: float):
    """POST over this thread's connection, reopened once if the server has
    closed it since its last use; the response, its body unread."""
    import http.client
    import socket
    kept = getattr(_local, "kept", None)
    if kept is None or kept.key != (url, timeout):
        _drop_connection()
        kept = _local.kept = _Kept(url, timeout)
    conn, reused = kept.conn, kept.conn.sock is not None
    while True:
        try:
            conn.request("POST", kept.path, data, {**headers, **kept.headers})
            # a server that writes headers and body apart with Nagle's
            # algorithm on sends the body only once the headers are acked:
            # ack them now, not after the delayed-ACK timer (40 ms on Linux)
            if hasattr(socket, "TCP_QUICKACK"):
                conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
            return conn.getresponse()
        except (http.client.RemoteDisconnected, ConnectionResetError,
                BrokenPipeError):
            if not reused:
                raise
            conn.close()
            reused = False


def llm_chat(config: LlmConfig, transcript: Transcript,
             log: list | None = None) -> str:
    """One chat-completion round trip with bounded retries, over this
    thread's kept-alive connection, which any failed attempt closes.

    Timeouts, connection errors, malformed bodies, any 3xx (not followed)
    and HTTP 408, 429 and 5xx are each retried up to config.retries times,
    after BACKOFF_S times the attempt number, or after a 429's or
    503's Retry-After seconds; any other HTTP error (401, 404, ...) and a
    malformed endpoint URL are not. A failure that is not retried surfaces
    as AgentUnavailable. Each attempt is logged, with the reply's `usage`.
    """
    # here, not at the top: only the llm agent needs them
    import http.client
    import json

    url = config.endpoint.rstrip("/") + "/chat/completions"
    headers = {"Content-Type": "application/json",
               "User-Agent": f"ifbench/{__version__}"}
    for var in API_KEY_VARS:
        if os.environ.get(var):
            headers["Authorization"] = f"Bearer {os.environ[var]}"
            break
    body = {
        "model": config.model,
        "messages": transcript_to_messages(transcript),
        "temperature": config.temperature,
        "max_tokens": config.max_tokens,
    }
    last_error = None
    for attempt in range(config.retries + 1):
        entry = {"attempt": attempt + 1, "model": config.model}
        delay = BACKOFF_S * (attempt + 1)
        try:
            data = json.dumps(body, allow_nan=False).encode("utf-8")
            with _post(url, data, headers, config.timeout) as response:
                entry["status"] = status = response.status
                if not 200 <= status < 300:
                    after = _retry_after(response.getheader("Retry-After"))
                    if status in (429, 503) and after is not None:
                        delay = after
                    raise MalformedResponse(f"HTTP {status}")
                reply = json.loads(response.read())
            if isinstance(reply, dict) and isinstance(reply.get("usage"), dict):
                entry["usage"] = reply["usage"]
            text = _reply_text(reply)
            entry["response"] = text
            if log is not None:
                log.append(entry)
            return text
        except (OSError, http.client.HTTPException, MalformedResponse,
                ValueError) as exc:
            _drop_connection()
            entry["error"] = str(exc)
            if log is not None:
                log.append(entry)
            last_error = exc
            if not _retryable(entry.get("status"), exc):
                break
            if attempt < config.retries:
                time.sleep(delay)
    raise AgentUnavailable(str(last_error)) from last_error
