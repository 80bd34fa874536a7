#!/usr/bin/env python3
"""CI smoke test for `pdslin serve`.

Starts the release daemon in stdin/stdout jsonl mode, pushes a burst of
concurrent requests through it — clean solves, fault-injected panics,
retried transient failures, a memory blowup, and a past-deadline
request — then a metrics probe and a shutdown. Asserts:

  * every request is answered with exactly one typed response
    (status ok | overloaded | error, never silence, never a crash);
  * the past-deadline request fails with the budget error class;
  * the worker-panic request fails with the execution error class;
  * the metrics snapshot shows the faults were actually exercised;
  * shutdown is acknowledged and the daemon exits 0.

Also checks the CLI's input-validation contract: an unknown --flag must
exit with the input error code (2), not 1 and not success.

Then a decoder probe: a 1 MB line of `[` (which once overflowed the
parser's stack and aborted the daemon) must be answered with a typed
input error, and a valid solve sent after it on the same stream must be
answered too, before a clean shutdown.

Finally, a crash-consistency case: SIGKILL the daemon while a request is
in flight. The client must observe either a typed response (the solve
raced ahead of the kill) or a clean EOF on stdout — never a hang — within
a bounded wait.

Usage: python3 scripts/service_smoke.py [path/to/pdslin]
"""
import json
import signal
import subprocess
import sys
import threading
import time

BIN = sys.argv[1] if len(sys.argv) > 1 else "target/release/pdslin"

REQUESTS = [
    # Clean solves on two matrices: cache misses then hits.
    {"id": "clean1", "op": "solve", "generate": "g3_circuit", "k": 4, "deadline_ms": 30000},
    {"id": "clean2", "op": "solve", "generate": "g3_circuit", "k": 4, "rhs_seed": 3, "deadline_ms": 30000},
    {"id": "clean3", "op": "solve", "generate": "matrix211", "k": 4, "deadline_ms": 30000},
    # Transient service fault: fails once, retried, then succeeds.
    {"id": "retry1", "op": "solve", "generate": "g3_circuit", "k": 4, "fail_attempts": 1, "retry_limit": 2, "deadline_ms": 30000},
    # Worker panic inside LU(D): must fail typed, not crash.
    {"id": "panic1", "op": "solve", "generate": "matrix211", "k": 4, "worker_panic": 0, "retry_limit": 1, "deadline_ms": 30000},
    # Memory blowup under the daemon's setup budget: degraded, not dead.
    {"id": "mem1", "op": "solve", "generate": "matrix211", "k": 4, "memory_blowup": True, "deadline_ms": 30000},
    # A deadline no solve can meet: typed budget error, answered fast.
    {"id": "dead1", "op": "solve", "generate": "asic_680ks", "k": 4, "deadline_ms": 1},
    # Malformed line: typed input error with empty id.
    "this is not json",
    {"id": "m1", "op": "metrics"},
    {"id": "bye", "op": "shutdown"},
]


def fail(msg):
    sys.exit(f"service_smoke: FAIL: {msg}")


def deep_nesting_probe():
    """A megabyte of `[`, then a valid solve, then shutdown: three typed
    replies and exit 0."""
    lines = [
        "[" * (1 << 20),
        json.dumps({"id": "after", "op": "solve", "generate": "g3_circuit", "k": 4, "deadline_ms": 30000}),
        json.dumps({"id": "bye", "op": "shutdown"}),
    ]
    proc = subprocess.Popen(
        [BIN, "serve", "--workers", "1", "--drain-ms", "30000"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        out, _ = proc.communicate("\n".join(lines) + "\n", timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        fail("daemon hung on a deeply nested line")
    if proc.returncode != 0:
        fail(f"daemon exited {proc.returncode} after a deeply nested line")
    by_id = {}
    for line in out.splitlines():
        try:
            resp = json.loads(line)
        except json.JSONDecodeError:
            fail(f"daemon emitted a non-json line: {line!r}")
        by_id[resp.get("id")] = resp
    nested = by_id.get("", {})
    if nested.get("status") != "error" or nested.get("category") != "input":
        fail(f"deeply nested line not answered with an input error: {nested}")
    for rid in ["after", "bye"]:
        if by_id.get(rid, {}).get("status") != "ok":
            fail(f"{rid} not answered ok after the nested line: {by_id.get(rid)}")
    print("ok: 1 MB of '[' is an input error; the next solve is served")


def sigkill_mid_request():
    """SIGKILL the daemon mid-request; the client must never hang.

    The acceptable outcomes are a typed response (the solve finished
    before the signal landed) or a clean EOF from the dying process.
    What is *not* acceptable is a blocked read past the slack window —
    that is the hang this repo's robustness story exists to rule out.
    """
    proc = subprocess.Popen(
        [BIN, "serve", "--workers", "1", "--drain-ms", "1000"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    # Bench-scale g3_circuit takes seconds to set up cold, so the signal
    # lands mid-solve (the fast-solve race is also accepted).
    req = {
        "id": "doomed",
        "op": "solve",
        "generate": "g3_circuit",
        "scale": "bench",
        "k": 8,
        "deadline_ms": 60000,
    }
    try:
        proc.stdin.write(json.dumps(req) + "\n")
        proc.stdin.flush()
        time.sleep(0.3)  # let the request reach a worker mid-solve
        proc.send_signal(signal.SIGKILL)
        result = {}
        reader = threading.Thread(
            target=lambda: result.update(line=proc.stdout.readline()), daemon=True
        )
        reader.start()
        reader.join(timeout=10)
        if reader.is_alive():
            fail("client hung >10s waiting on a SIGKILL'd daemon")
        line = result.get("line", "")
        if line:
            try:
                resp = json.loads(line)
            except json.JSONDecodeError:
                fail(f"SIGKILL'd daemon emitted a torn line: {line!r}")
            if "id" not in resp or "status" not in resp:
                fail(f"pre-kill response lacks id/status: {line!r}")
            print("ok: solve raced ahead of SIGKILL with a typed response")
        else:
            print("ok: SIGKILL mid-request yields clean EOF, no hang")
        proc.wait(timeout=10)
    finally:
        proc.kill()


def main():
    # 1. Unknown flags are invalid input: exit code 2.
    r = subprocess.run(
        [BIN, "solve", "--generate", "g3_circuit", "--bogus-flag", "1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    if r.returncode != 2:
        fail(f"unknown --flag exited {r.returncode}, expected 2\nstderr: {r.stderr}")
    if "--bogus-flag" not in r.stderr:
        fail(f"usage error does not name the stray flag:\n{r.stderr}")
    print("ok: unknown --flag rejected with exit code 2")

    # 2. The daemon round trip. Interactive: push the solve burst (plus
    # one malformed line), collect every response, and only then probe
    # metrics and shut down — so the snapshot reflects finished work.
    solves = [r for r in REQUESTS if isinstance(r, str) or r["op"] == "solve"]
    proc = subprocess.Popen(
        [BIN, "serve", "--workers", "2", "--mem-budget-mb", "64", "--drain-ms", "30000"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    # Drain stderr continuously: injected-panic backtraces are chatty
    # enough to fill the pipe and deadlock the daemon otherwise.
    stderr_chunks = []
    drainer = threading.Thread(
        target=lambda: stderr_chunks.append(proc.stderr.read()), daemon=True
    )
    drainer.start()

    def read_response():
        line = proc.stdout.readline()
        if not line:
            proc.kill()
            drainer.join(timeout=5)
            fail(f"daemon closed stdout early\nstderr:\n{''.join(stderr_chunks)}")
        try:
            resp = json.loads(line)
        except json.JSONDecodeError:
            proc.kill()
            fail(f"daemon emitted a non-json line: {line!r}")
        if "id" not in resp or "status" not in resp:
            proc.kill()
            fail(f"response lacks id/status: {line!r}")
        return resp

    by_id = {}
    try:
        for req in solves:
            line = req if isinstance(req, str) else json.dumps(req)
            proc.stdin.write(line + "\n")
        proc.stdin.flush()
        for _ in solves:
            resp = read_response()
            by_id[resp["id"]] = resp
        proc.stdin.write(json.dumps({"id": "m1", "op": "metrics"}) + "\n")
        proc.stdin.flush()
        by_id["m1"] = read_response()
        proc.stdin.write(json.dumps({"id": "bye", "op": "shutdown"}) + "\n")
        proc.stdin.flush()
        by_id["bye"] = read_response()
        proc.stdin.close()
        rc = proc.wait(timeout=60)
    except Exception:
        proc.kill()
        raise
    drainer.join(timeout=5)
    if rc != 0:
        fail(f"daemon exited {rc}\nstderr:\n{''.join(stderr_chunks)}")

    expected_ids = {r["id"] for r in REQUESTS if isinstance(r, dict)} | {""}
    missing = expected_ids - set(by_id)
    if missing:
        fail(f"unanswered requests: {sorted(missing)}")

    def expect(rid, status, **fields):
        resp = by_id[rid]
        if resp["status"] != status:
            fail(f"{rid}: status {resp['status']!r}, expected {status!r}: {resp}")
        for k, v in fields.items():
            if resp.get(k) != v:
                fail(f"{rid}: {k} = {resp.get(k)!r}, expected {v!r}: {resp}")

    for rid in ["clean1", "clean2", "clean3", "retry1", "mem1"]:
        expect(rid, "ok")
    expect("panic1", "error", category="execution", code=5)
    expect("dead1", "error", category="budget", code=4)
    expect("", "error", category="input", code=2)
    expect("bye", "ok")
    # clean1/clean2 may race into separate workers before the cache is
    # warm, but later same-key traffic must be served from it.
    if not any(by_id[r].get("cache") == "hit" for r in ["clean2", "retry1"]):
        fail(
            "no g3_circuit request hit the warm cache: "
            f"{by_id['clean2']} / {by_id['retry1']}"
        )
    if by_id["retry1"].get("retries", 0) < 1:
        fail(f"retry1 should record a retry: {by_id['retry1']}")
    if not by_id["mem1"].get("degraded"):
        fail(f"mem1 should be served degraded under the memory budget: {by_id['mem1']}")

    m = by_id["m1"]
    # The malformed line is rejected before admission, so 7 received.
    for counter, floor in [
        ("received", 7),
        ("completed_ok", 5),
        ("failed", 2),
        ("retries", 1),
        ("injected_failures", 1),
        ("cache_hits", 1),
        ("degraded_setups", 1),
    ]:
        if m.get(counter, -1) < floor:
            fail(f"metrics.{counter} = {m.get(counter)!r}, expected >= {floor}: {m}")

    shutdown = by_id["bye"]
    if shutdown.get("cancelled", -1) != 0:
        fail(f"drained shutdown cancelled work: {shutdown}")
    print(f"ok: {len(by_id)} typed responses, faults exercised, clean shutdown")

    # 3. A deeply nested line is an input error, not a dead daemon.
    deep_nesting_probe()

    # 4. Crash consistency: a SIGKILL mid-request must never hang the
    # client.
    sigkill_mid_request()
    print("service_smoke: PASS")


if __name__ == "__main__":
    main()
