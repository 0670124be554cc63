import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
import requests

from ifbench import (AgentUnavailable, Engine, GroundedAction, HeuristicAgent,
                     HumanAgent, LlmAgent, LlmConfig, MalformedResponse,
                     ScriptedAgent, llm_chat, run_episode, solve_optimal,
                     transcript_to_messages)
from oracles import micro_instance


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        self.server.requests.append({"path": self.path, "body": body})
        kind, payload = self.server.script[min(len(self.server.requests) - 1,
                                               len(self.server.script) - 1)]
        if kind == "ok":
            data = {"choices": [{"message": {"role": "assistant",
                                             "content": payload}}]}
            raw = json.dumps(data).encode()
            self.send_response(200)
        elif kind == "empty":
            raw = json.dumps({"choices": []}).encode()
            self.send_response(200)
        elif kind == "garbage":
            raw = b"not json at all"
            self.send_response(200)
        else:
            raw = b"{}"
            self.send_response(int(kind))
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    server.requests = []
    server.script = [("ok", "> look")]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()


def _config(server, **kwargs):
    port = server.server_address[1]
    return LlmConfig(endpoint=f"http://127.0.0.1:{port}/v1",
                     model="stub-model", retries=kwargs.pop("retries", 2),
                     backoff=0.01, **kwargs)


TRANSCRIPT = (("environment", "You are playing."),
              ("agent", "> look"),
              ("environment", "You are in a kitchen."))


def test_transcript_role_mapping():
    assert transcript_to_messages(TRANSCRIPT) == [
        {"role": "user", "content": "You are playing."},
        {"role": "assistant", "content": "> look"},
        {"role": "user", "content": "You are in a kitchen."}]


def test_llm_chat_request_shape(stub_server):
    stub_server.script = [("ok", "> take plate")]
    text = llm_chat(_config(stub_server), TRANSCRIPT)
    assert text == "> take plate"
    assert len(stub_server.requests) == 1
    request = stub_server.requests[0]
    assert request["path"].endswith("/chat/completions")
    assert request["body"]["model"] == "stub-model"
    assert request["body"]["temperature"] == 0.0
    assert request["body"]["messages"] == transcript_to_messages(TRANSCRIPT)


def test_llm_chat_empty_choices(stub_server):
    stub_server.script = [("empty", None)]
    with pytest.raises(AgentUnavailable) as err:
        llm_chat(_config(stub_server, retries=0), TRANSCRIPT)
    assert isinstance(err.value.__cause__, MalformedResponse)


def test_llm_chat_retries_then_succeeds(stub_server):
    stub_server.script = [("500", None), ("ok", "> go hallway")]
    log = []
    text = llm_chat(_config(stub_server), TRANSCRIPT, log=log)
    assert text == "> go hallway"
    assert len(log) == 2
    assert "error" in log[0] and log[1]["response"] == "> go hallway"


def test_llm_chat_timeout_then_success(monkeypatch):
    calls = []

    class FakeResponse:
        status_code = 200

        @staticmethod
        def json():
            return {"choices": [{"message": {"content": "> done"}}]}

    def fake_post(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise requests.Timeout("deadline")
        return FakeResponse()

    monkeypatch.setattr(requests, "post", fake_post)
    config = LlmConfig(endpoint="http://example.invalid/v1", model="m",
                       retries=1, backoff=0.0)
    log = []
    assert llm_chat(config, TRANSCRIPT, log=log) == "> done"
    assert len(log) == 2


def test_llm_chat_exhausted_retries(stub_server):
    stub_server.script = [("500", None)]
    with pytest.raises(AgentUnavailable):
        llm_chat(_config(stub_server, retries=1), TRANSCRIPT)
    assert len(stub_server.requests) == 2


def test_llm_chat_client_error_not_retried(stub_server):
    stub_server.script = [("404", None)]
    with pytest.raises(AgentUnavailable):
        llm_chat(_config(stub_server, retries=2), TRANSCRIPT)
    assert len(stub_server.requests) == 1


def test_llm_config_validation():
    with pytest.raises(ValueError):
        LlmConfig(endpoint="x", model="m", temperature=-1)
    with pytest.raises(ValueError):
        LlmConfig(endpoint="x", model="m", retries=-1)


def _delivery_instance(**kwargs):
    return micro_instance(
        rooms=["kitchen", "pantry"], connections=[("kitchen", "pantry")],
        entities=[("counter", "support", ["kitchen"]),
                  ("cupboard", "container", ["kitchen"]),
                  ("table", "support", ["pantry"]),
                  ("plate", "takeable", ["kitchen"]),
                  ("sandwich", "takeable", ["kitchen"])],
        facts=["at(player,kitchen)", "at(counter,kitchen)",
               "at(cupboard,kitchen)", "closed(cupboard)", "at(table,pantry)",
               "on(plate,counter)", "in(sandwich,cupboard)"],
        goals=["on(plate,table)", "on(sandwich,table)"], **kwargs)


def test_llm_agent_full_episode(stub_server):
    inst = _delivery_instance()
    plan = solve_optimal(inst)
    from ifbench import Engine
    engine = Engine(inst)
    lines = ["> " + engine.parser.render(a, engine.world)
             for a in plan.actions]
    stub_server.script = [("ok", line) for line in lines]
    agent = LlmAgent(_config(stub_server))
    record = run_episode(inst, agent)
    assert record.outcome == "success"
    assert record.agent_log  # requests were logged into the episode record
    first = stub_server.requests[0]["body"]["messages"]
    assert first[0]["role"] == "user"
    assert first[0]["content"] == inst.prompt


def test_llm_agent_unreachable_marks_aborted():
    config = LlmConfig(endpoint="http://127.0.0.1:9/v1", model="m",
                       retries=0, timeout=0.2, backoff=0.0)
    record = run_episode(_delivery_instance(), LlmAgent(config))
    assert record.outcome == "aborted-agent"


def _cupboard_instance():
    return micro_instance(
        rooms=["kitchen"], connections=[],
        entities=[("cupboard", "container", ["kitchen"]),
                  ("table", "support", ["kitchen"]),
                  ("sandwich", "takeable", ["kitchen"])],
        facts=["at(player,kitchen)", "at(cupboard,kitchen)",
               "closed(cupboard)", "at(table,kitchen)",
               "in(sandwich,cupboard)"],
        goals=["on(sandwich,table)"])


def test_heuristic_opens_closed_container():
    agent = HeuristicAgent(Engine(_cupboard_instance()))
    assert agent.next_action(()) == "> open cupboard"
    assert agent.next_action(()) == "> take sandwich"
    assert agent.next_action(()) == "> put sandwich on table"
    assert agent.next_action(()) == "> done"


def test_heuristic_solves_and_respects_format(bench144):
    for family in ("basic-easy", "limit-hard", "synthetic-hard",
                   "preexplore-hard"):
        for inst in bench144[family][:3]:
            record = run_episode(inst, HeuristicAgent(Engine(inst)))
            assert record.outcome == "success", (family, inst.id)
            assert all(t.raw_output.startswith("> ") for t in record.turns)


def test_heuristic_turns_are_executed_once(bench144, monkeypatch):
    # only the episode resolves turns: one execute per turn, none by the
    # agent and none for the pre-exploration replay
    calls = []
    execute = Engine.execute

    def counting_execute(self, *args, **kwargs):
        calls.append(args)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(Engine, "execute", counting_execute)
    for family, instances in bench144.items():
        inst = instances[0]
        calls.clear()
        record = run_episode(inst, HeuristicAgent(Engine(inst)))
        assert len(calls) == len(record.turns), (family, inst.id, len(calls))
    assert bench144["preexplore-hard"][0].preexploration


def test_heuristic_rejects_a_failing_decided_action(monkeypatch):
    inst = _cupboard_instance()
    agent = HeuristicAgent(Engine(inst))
    # the sandwich is inside the closed cupboard, so it cannot be taken
    monkeypatch.setattr(agent, "_decide", lambda: GroundedAction(
        "take", (("item", "sandwich"),)))
    with pytest.raises(RuntimeError, match="take sandwich"):
        agent.next_action(())
    assert agent.state == inst.start_state()


@pytest.mark.parametrize("text", ["look", "frobnicate cupboard", "open sofa"])
def test_heuristic_rejects_text_that_does_not_ground_back(monkeypatch, text):
    inst = _cupboard_instance()
    agent = HeuristicAgent(Engine(inst))  # decides to open the cupboard
    monkeypatch.setattr(inst.parser, "render", lambda grounded, world: text)
    with pytest.raises(RuntimeError, match=text):
        agent.next_action(())
    assert agent.state == inst.start_state()


def test_heuristic_basic_easy_regression(bench144):
    # pinned baseline: the bundled heuristic fully solves basic-easy
    outcomes = [run_episode(i, HeuristicAgent(Engine(i))).outcome
                for i in bench144["basic-easy"]]
    quality = outcomes.count("success") / len(outcomes) * 100
    assert quality >= 90.0
    assert quality == 100.0


def test_human_agent_prefix_and_eof():
    answers = iter(["look", "> done"])
    shown = []
    agent = HumanAgent(input_fn=lambda prompt="": next(answers),
                       print_fn=lambda *a: shown.append(a))
    inst = _delivery_instance()
    record = run_episode(inst, agent)
    assert record.outcome == "lost"  # done without goals
    assert record.turns[0].raw_output == "> look"
    assert shown  # environment text was printed

    agent = HumanAgent(input_fn=lambda prompt="": (_ for _ in ()).throw(EOFError()),
                       print_fn=lambda *a: None)
    record = run_episode(inst, agent)
    assert record.outcome == "aborted-agent"


def test_scripted_agent_exhausted_queue_says_done():
    agent = ScriptedAgent(["> look"])
    agent.next_action(())
    assert agent.next_action(()) == "> done"
