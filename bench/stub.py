"""Stub model endpoint for the llm-stub workload.

Speaks the OpenAI-compatible ``/chat/completions`` protocol on loopback and
answers every request at once from a script made at set-up:

    python3 bench/stub.py --script SCRIPT.json --port-file PORT

SCRIPT.json maps each instance prompt to ``{"id", "pre", "replies",
"kinds"}``: the number of pre-exploration pairs in the transcript, the
replies to send turn by turn, and for each reply ``"plan"`` or the failure
phase it should provoke. The reply is chosen from the request alone (the
prompt names the instance, the number of messages after pre-exploration
names the turn), so concurrent episodes get the same answers in any order.

``GET /stats`` returns and resets the counters: requests, accepted
connections, request bytes, the reply-to-next-request gaps of each episode,
and per episode the replies sent, the feedback received and any request that
did not extend the episode's previous request by exactly one reply and its
feedback.
"""

from __future__ import annotations

import argparse
import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path


class Recorder:
    """Counters shared by the handler threads; every update holds the lock."""

    def __init__(self, script: dict):
        self.script = script
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.requests = 0
        self.connections = 0
        self.request_bytes = 0
        self.gaps_ns: list[int] = []
        self.errors: list[str] = []
        self.episodes: dict[str, dict] = {}

    def snapshot_and_reset(self) -> dict:
        with self.lock:
            out = {"requests": self.requests,
                   "connections": self.connections,
                   "request_bytes": self.request_bytes,
                   "gaps_ns": self.gaps_ns,
                   "errors": self.errors,
                   "episodes": {k: {"replies": v["replies"],
                                    "kinds": v["kinds"],
                                    "feedback": v["feedback"],
                                    "requests": v["requests"],
                                    "violations": v["violations"]}
                                for k, v in self.episodes.items()}}
            self.reset()
        return out

    def answer(self, body: dict, arrival_ns: int) -> str | None:
        """The scripted reply for one request, or None when the request
        matches no scripted turn (recorded as an error)."""
        messages = body.get("messages") or []
        entry = self.script.get(messages[0].get("content")) if messages else None
        if entry is None:
            with self.lock:
                self.errors.append("request with an unknown prompt")
            return None
        turn, odd = divmod(len(messages) - 1 - 2 * entry["pre"], 2)
        with self.lock:
            ep = self.episodes.setdefault(entry["id"], {
                "replies": [], "kinds": [], "feedback": [], "requests": 0,
                "violations": [], "last": None, "last_reply_ns": None,
                "pending_arrival_ns": None})
            ep["requests"] += 1
            if odd or not 0 <= turn < len(entry["replies"]):
                ep["violations"].append(f"request with {len(messages)} messages")
                return None
            prev = ep["last"]
            if prev is None:
                if turn != 0:
                    ep["violations"].append(f"first request at turn {turn}")
            else:
                # the previous reply's time may not be recorded yet: the
                # client can answer before the replying thread gets the lock
                if ep["last_reply_ns"] is None:
                    ep["pending_arrival_ns"] = arrival_ns
                else:
                    self.gaps_ns.append(arrival_ns - ep["last_reply_ns"])
                    ep["last_reply_ns"] = None
                if (len(messages) != len(prev) + 2
                        or messages[:len(prev)] != prev
                        or messages[len(prev)] != {"role": "assistant",
                                                   "content": ep["replies"][-1]}
                        or messages[-1].get("role") != "user"):
                    ep["violations"].append(f"turn {turn} does not extend turn {turn - 1}")
                else:
                    ep["feedback"].append(messages[-1]["content"])
            ep["last"] = messages
            reply = entry["replies"][turn]
            ep["replies"].append(reply)
            ep["kinds"].append(entry["kinds"][turn])
            return reply

    def replied(self, body: dict, reply_ns: int) -> None:
        entry = self.script.get(body["messages"][0].get("content"))
        with self.lock:
            ep = self.episodes[entry["id"]]
            if ep["pending_arrival_ns"] is None:
                ep["last_reply_ns"] = reply_ns
            else:
                self.gaps_ns.append(ep["pending_arrival_ns"] - reply_ns)
                ep["pending_arrival_ns"] = None


def make_handler(recorder: Recorder):
    class Handler(BaseHTTPRequestHandler):
        # HTTP/1.1 lets a client that keeps its connection open reuse it, so
        # connections per request shows whether the harness does
        protocol_version = "HTTP/1.1"

        def setup(self):
            super().setup()
            self.counted = False

        def _send(self, status: int, payload: dict) -> None:
            data = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_POST(self):
            arrival_ns = time.perf_counter_ns()
            length = int(self.headers.get("Content-Length", 0))
            raw = self.rfile.read(length)
            if self.path.rstrip("/").endswith("/chat/completions"):
                with recorder.lock:
                    recorder.requests += 1
                    recorder.request_bytes += len(raw)
                    if not self.counted:
                        recorder.connections += 1
                        self.counted = True
                body = json.loads(raw)
                reply = recorder.answer(body, arrival_ns)
                if reply is not None:
                    self._send(200, {"object": "chat.completion",
                                     "choices": [{"index": 0,
                                                  "message": {"role": "assistant",
                                                              "content": reply},
                                                  "finish_reason": "stop"}]})
                    recorder.replied(body, time.perf_counter_ns())
                    return
            self._send(404, {"error": "not scripted"})

        def do_GET(self):
            if self.path == "/stats":
                self._send(200, recorder.snapshot_and_reset())
            else:
                self._send(404, {"error": "unknown path"})

        def log_message(self, *args):
            pass

    return Handler


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--script", required=True)
    parser.add_argument("--port-file", required=True)
    args = parser.parse_args()
    recorder = Recorder(json.loads(Path(args.script).read_text(encoding="utf-8")))
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(recorder))
    server.daemon_threads = True
    port_file = Path(args.port_file)
    tmp = port_file.with_suffix(".tmp")
    tmp.write_text(str(server.server_address[1]), encoding="utf-8")
    os.replace(tmp, port_file)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
