#!/usr/bin/env python3
"""verifyd daemon smoke test.

Usage: verifyd_smoke.py VERIFYD_BIN VERIFY_BIN QASM_DIR

Exercises the daemon end to end against the acceptance QASM pairs in
QASM_DIR (``{name}.left.qasm`` / ``{name}.right.qasm``):

1. one-shot baseline: ``verify --dir`` produces the reference verdicts;
2. daemon A (3 workers) serves 3 concurrent unix-socket clients, two
   rounds over all pairs — verdicts must match the baseline exactly,
   ``stats`` must balance, and ``drain`` must answer cleanly and exit 0;
3. daemon B (1 worker, zero queue) is flooded until admission control
   rejects with the SATURATED code, a client disconnect cancels its
   in-flight race, and ``shutdown`` exits 0.
"""

import json
import os
import socket
import subprocess
import sys
import tempfile
import threading
import time

SATURATED = -32020


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


class Client:
    """One line-delimited JSON-RPC connection."""

    def __init__(self, path, timeout=300):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self.file = self.sock.makefile("rwb")

    def send(self, request):
        self.file.write((json.dumps(request) + "\n").encode())
        self.file.flush()

    def recv(self):
        line = self.file.readline()
        if not line:
            fail("connection closed while waiting for a response")
        return json.loads(line)

    def call(self, request):
        self.send(request)
        return self.recv()

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


def start_daemon(binary, sock_path, *flags):
    daemon = subprocess.Popen([binary, "--socket", sock_path, *flags])
    deadline = time.time() + 60
    while time.time() < deadline:
        if daemon.poll() is not None:
            fail(f"daemon exited early with {daemon.returncode}")
        try:
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            probe.connect(sock_path)
            probe.close()
            return daemon
        except OSError:
            time.sleep(0.05)
    fail("daemon socket never came up")


def pair_request(rpc_id, qasm_dir, name):
    return {
        "id": rpc_id,
        "method": "verify-pair",
        "params": {
            "name": name,
            "left": os.path.join(qasm_dir, f"{name}.left.qasm"),
            "right": os.path.join(qasm_dir, f"{name}.right.qasm"),
        },
    }


def main():
    if len(sys.argv) != 4:
        fail(__doc__)
    verifyd_bin, verify_bin, qasm_dir = sys.argv[1:4]
    pairs = sorted(
        f[: -len(".left.qasm")]
        for f in os.listdir(qasm_dir)
        if f.endswith(".left.qasm")
    )
    if len(pairs) < 4:
        fail(f"expected >=4 QASM pairs in {qasm_dir}, found {pairs}")
    tmp = tempfile.mkdtemp(prefix="verifyd-smoke-")

    # --- 1. one-shot baseline -------------------------------------------
    report_path = os.path.join(tmp, "oneshot.json")
    subprocess.run(
        [verify_bin, "--dir", qasm_dir, "--out", report_path], check=True
    )
    with open(report_path) as f:
        oneshot = {p["name"]: p for p in json.load(f)["pairs"]}
    if set(oneshot) != set(pairs):
        fail(f"one-shot report names {sorted(oneshot)} != pairs {pairs}")

    # --- 2. daemon A: 3 concurrent clients, two rounds, parity + stats ---
    sock_a = os.path.join(tmp, "a.sock")
    daemon_a = start_daemon(verifyd_bin, sock_a, "--workers", "3", "--max-queue", "8")
    results = {}
    errors = []
    lock = threading.Lock()

    def client_worker(index):
        try:
            client = Client(sock_a)
            for round_number in (1, 2):
                for offset, name in enumerate(pairs):
                    if offset % 3 != index:
                        continue
                    rpc_id = round_number * 1000 + index * 100 + offset
                    response = client.call(pair_request(rpc_id, qasm_dir, name))
                    if response.get("id") != rpc_id:
                        raise AssertionError(f"id mismatch: {response}")
                    if "result" not in response:
                        raise AssertionError(f"unexpected error: {response}")
                    with lock:
                        results[(round_number, name)] = response["result"]
            client.close()
        except Exception as error:  # noqa: BLE001 — report into the main thread
            with lock:
                errors.append(f"client {index}: {error!r}")

    threads = [threading.Thread(target=client_worker, args=(i,)) for i in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        fail("; ".join(errors))

    for (round_number, name), result in sorted(results.items()):
        expected = oneshot[name]
        got_verdict = result["report"]["verdict"]
        if got_verdict != expected["verdict"]:
            fail(
                f"round {round_number} {name}: daemon verdict {got_verdict!r} "
                f"!= one-shot {expected['verdict']!r}"
            )
        if result["considered_equivalent"] != expected["considered_equivalent"]:
            fail(f"round {round_number} {name}: equivalence flag diverges")
        if result["cancelled"]:
            fail(f"round {round_number} {name}: spuriously cancelled")

    admin = Client(sock_a)
    stats = admin.call({"id": "stats", "method": "stats"})["result"]
    if stats["completed"] != 2 * len(pairs):
        fail(f"stats.completed {stats['completed']} != {2 * len(pairs)}")
    if stats["queue_depth"] != 0 or stats["inflight"] != 0:
        fail(f"daemon not idle before drain: {stats}")
    drain = admin.call({"id": "drain", "method": "drain"})
    if not drain.get("result", {}).get("stopped"):
        fail(f"drain did not acknowledge: {drain}")
    if daemon_a.wait(timeout=60) != 0:
        fail(f"daemon A exited {daemon_a.returncode} after drain")
    if os.path.exists(sock_a):
        fail("daemon A left its socket file behind")
    print(f"daemon A ok: {2 * len(pairs)} requests over 3 clients, "
          f"verdict parity with one-shot, clean drain")

    # --- 3. daemon B: saturation + disconnect-cancels + shutdown ---------
    sock_b = os.path.join(tmp, "b.sock")
    daemon_b = start_daemon(verifyd_bin, sock_b, "--workers", "1", "--max-queue", "0")
    flooder = Client(sock_b)
    heavy = pairs[-1]  # widest pair sorts last (qpe9 in the acceptance set)
    for i in range(8):
        flooder.send(pair_request(i, qasm_dir, heavy))
    rejects = 0
    # Admission errors are written synchronously as each line is read,
    # which takes microseconds while the one admitted race takes
    # milliseconds — so the first 7 responses are (all but pathologically)
    # the rejections. One slot is in flight, zero may queue: >=1 of 8 must
    # bounce with SATURATED.
    for _ in range(7):
        response = flooder.recv()
        if "error" in response:
            if response["error"]["code"] != SATURATED:
                fail(f"unexpected rejection code: {response}")
            rejects += 1
    if rejects < 1:
        fail("no admission rejection despite a saturating flood")
    # Disconnect with the admitted race still in flight: the daemon must
    # cancel it (the shutdown below would otherwise wait out a full race).
    flooder.close()

    closer = Client(sock_b)
    shutdown = closer.call({"id": "bye", "method": "shutdown"})
    if not shutdown.get("result", {}).get("stopped"):
        fail(f"shutdown did not acknowledge: {shutdown}")
    if daemon_b.wait(timeout=60) != 0:
        fail(f"daemon B exited {daemon_b.returncode} after shutdown")
    print(f"daemon B ok: {rejects}/8 flood requests rejected by admission "
          "control, disconnect cancelled the rest, clean shutdown")


if __name__ == "__main__":
    main()
