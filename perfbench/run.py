"""Seeded, layered benchmark of the menurank CLI.

    python3 perfbench/run.py --workload consensus-dp --seed 1 --seconds 20 --trace 0

Drives ``menurank.cli.main(argv)`` in-process from one closed-loop client
(one process, one thread) over a seeded pool of generated requests, checks
every output, and prints a short report followed by one JSON line with the
metrics that BENCHMARK.json declares: end-to-end ones with ``--trace 0``,
per-layer ones with ``--trace 1``.  Workloads, metrics and the trace layout
are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"  # scratch profiles (removed on exit) and trace files
SETUP_PROBES = 9
TRACE_REQUESTS = 32
CALIBRATION_LOOPS = 1200
CALIBRATION_EVERY_S = 0.02
REFERENCE_S = 0.001  # the calibration's time at the reference host speed


def _stamp() -> dict:
    """Where the numbers come from, so runs on different machines stay apart."""
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown"  # an export without .git; never a parent directory's repository
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
            if done.returncode == 0:
                commit = done.stdout.strip()
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "menurank").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


def _calibrate() -> float:
    """Seconds for a fixed piece of Python work that does not touch the
    program; the collector is off so the program's heap cannot slow it."""
    gc.disable()
    try:
        start = time.perf_counter()
        table, items = {}, []
        for i in range(CALIBRATION_LOOPS):
            key = (i % 97, i % 89)
            table[key] = table.get(key, 0) + (i * 2654435761 & 0xFFFF).bit_count()
            items.append((i * 7919 % CALIBRATION_LOOPS, str(i)))
        items.sort()
        return time.perf_counter() - start
    finally:
        gc.enable()


class Rescaler:
    """Rescales measured times to the reference host speed.

    Times wait for the next calibration, which comes at most
    CALIBRATION_EVERY_S (plus one request) after the previous one.  Each
    batch is scaled by the mean of the two calibrations around it, so a
    change of host speed reaches only the batch it falls into.
    """

    def __init__(self):
        self.before = _calibrate()
        self.taken = time.perf_counter()
        self.pending: list[tuple[float, ...]] = []
        self.scaled: list[tuple[float, ...]] = []

    def add(self, times: tuple[float, ...]) -> None:
        self.pending.append(times)
        if time.perf_counter() - self.taken >= CALIBRATION_EVERY_S:
            self.flush()

    def flush(self) -> None:
        after = _calibrate()
        self.taken = time.perf_counter()
        factor = 2 * REFERENCE_S / (self.before + after)
        self.scaled.extend(tuple(t * factor for t in times) for times in self.pending)
        self.pending.clear()
        self.before = after


class Client:
    """Serves requests in-process and checks each output.

    The first output of each pooled request gets the full independent check;
    as the CLI's output is deterministic, later repeats must match it byte
    for byte.
    """

    def __init__(self, cli):
        self.cli = cli
        self.verified: dict[int, bytes] = {}
        self.latencies: list[float] = []  # every checked request, in order
        self.attempted = 0
        self.failed = 0

    def call(self, request) -> str | None:
        """Run one request; what it printed, or None when it failed."""
        buffer = io.StringIO()
        try:
            with contextlib.redirect_stdout(buffer):
                code = self.cli.main(list(request.argv))
        except (Exception, SystemExit):
            traceback.print_exc()
            return None
        if code != 0:
            print(f"request {request.index}: exit code {code}", file=sys.stderr)
            return None
        return buffer.getvalue()

    def serve(self, request) -> tuple[float, float] | None:
        """Run and check one request; its (wall, cpu) seconds, or None when it failed."""
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        text = self.call(request)
        t1 = time.perf_counter()
        cpu1 = time.process_time()
        self.attempted += 1
        if text is not None and request.out_path is not None:
            text = request.out_path.read_text(encoding="utf-8")
        if text is None or not self.valid(request, text):
            self.failed += 1
            return None
        self.latencies.append(t1 - t0)
        return t1 - t0, cpu1 - cpu0

    def valid(self, request, text: str) -> bool:
        digest = hashlib.blake2b(text.encode()).digest()
        known = self.verified.get(request.index)
        if known is not None:
            return known == digest
        try:
            request.check(text)
        except Exception:  # a malformed output can break the parser anywhere
            print(f"request {request.index} ({' '.join(request.argv[:3])}) failed its check:",
                  file=sys.stderr)
            traceback.print_exc()
            return False
        self.verified[request.index] = digest
        return True


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _set_up(workload: str, seed: int, work: Path, lap=lambda: None) -> tuple[Client, list, float]:
    """Import, generate and write the inputs, and warm the program's caches
    with one request per distinct configuration.  Also returns the peak
    resident size before the first request, in MB.  ``lap`` is called
    after each phase and each warm-up request."""
    sys.path.insert(0, str(ROOT / "src"))
    import menurank.cli as cli
    import workloads

    lap()
    work.mkdir(parents=True, exist_ok=True)
    requests = workloads.build(workload, seed, work)
    lap()
    warm = {}
    for request in requests:
        warm.setdefault(request.config, request)
    client = Client(cli)
    before_mb = _max_rss_mb()
    for request in warm.values():
        if client.call(request) is None:
            raise RuntimeError(f"warm-up request {request.index} failed")
        lap()
    return client, requests, before_mb


def _timed_set_up(workload: str, seed: int, work: Path, spawned: float) -> float:
    """Set up as a fresh process, in the child of a probe; the set-up time
    since ``spawned``, rescaled.

    A probe lasts longer than the host keeps one speed, so each phase and
    each warm-up request is rescaled by the calibrations on either side of
    it, as the request times are.  The first phase, interpreter start up to
    here, runs before any calibration and shares the second one's factor.
    """
    started = time.perf_counter() - spawned  # perf_counter is system-wide on Linux
    rescale = Rescaler()
    rescale.add((started,))
    mark = time.perf_counter()

    def lap() -> None:
        nonlocal mark
        rescale.add((time.perf_counter() - mark,))
        rescale.flush()
        mark = time.perf_counter()

    _set_up(workload, seed, work, lap)
    return sum(t for t, in rescale.scaled)


def _probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time of a fresh interpreter: rescaled, and unscaled from outside."""
    start = time.perf_counter()
    argv = [sys.executable, str(Path(__file__)), "--workload", workload,
            "--seed", str(seed), "--setup-probe", repr(start)]
    with subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, text=True) as child:
        ready = child.stdout.readline().split()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=60)
    if len(ready) != 2 or ready[0] != "ready" or code != 0:
        raise RuntimeError(f"set-up probe exited with {code}")
    return float(ready[1]), elapsed


def _end_to_end(workload: str, seed: int, seconds: float, work: Path) -> tuple[Client, dict]:
    """Cycle through the pool for ``seconds``, in SETUP_PROBES segments.

    The host's speed swings by tens of percent within seconds, so every
    time is rescaled to the reference speed by calibrations taken alongside
    it (see Rescaler).  Each segment starts with one set-up probe, so the
    probes sample the whole run rather than its first seconds.
    """
    client, requests, _ = _set_up(workload, seed, work)
    gc.collect()
    rescale = Rescaler()
    setups, raw_setups, i = [], [], 0
    for _ in range(SETUP_PROBES):
        rescale.flush()
        scaled, raw = _probe_setup(workload, seed)
        setups.append(scaled)
        raw_setups.append(raw)
        rescale.flush()
        deadline = time.perf_counter() + seconds / SETUP_PROBES
        while time.perf_counter() < deadline:
            measured = client.serve(requests[i % len(requests)])
            i += 1
            if measured is not None:
                rescale.add(measured)
    rescale.flush()
    wall = [w for w, _ in rescale.scaled]
    cpu = [c for _, c in rescale.scaled]
    if len(wall) < 2:
        raise RuntimeError("too few successful requests to report latency")
    raw = client.latencies
    print(f"# {len(raw)} timed requests, {i / len(requests):.1f} passes over {len(requests)} pooled requests; "
          f"failed_frac {client.failed / client.attempted}")
    print(f"# unscaled: p50 {statistics.median(raw) * 1e3:.3f} ms, {len(raw) / sum(raw):.3f} requests/s, "
          f"set-up probes {', '.join(f'{s:.4f}' for s in raw_setups)} s")
    return client, {
        "requests_per_s": len(wall) / sum(wall),
        "latency_p50_ms": statistics.median(wall) * 1e3,
        "latency_p90_ms": statistics.quantiles(wall, n=10, method="inclusive")[8] * 1e3,
        "cpu_ms_per_request": statistics.mean(cpu) * 1e3,
        "peak_rss_mb": _max_rss_mb(),
        "setup_s": statistics.median(setups),
    }


def _per_layer(workload: str, seed: int, work: Path, stamp: dict) -> tuple[Client, dict]:
    """The first TRACE_REQUESTS requests: a checking pass, then each request
    untraced and straight after traced, so both see the same host speed.

    A fixed request list, not a time budget, makes the call counts repeat
    exactly for a given seed.  The checking pass runs before the tracer
    exists, so the growth of the peak resident size over warm-up and that
    pass is the program's share (plus its checks), free of span storage.
    """
    client, requests, before_mb = _set_up(workload, seed, work)
    import tracing

    batch = requests[:TRACE_REQUESTS]
    for request in batch:
        client.serve(request)
    program_mb = _max_rss_mb() - before_mb
    gc.collect()
    tracer = tracing.Tracer()
    untraced = traced = 0.0
    for request in batch:
        client.serve(request)
        untraced += client.latencies[-1]
        tracer.install()
        tracer.request = request.index
        try:
            client.serve(request)
        finally:
            tracer.request = -1
            tracer.uninstall()
        traced += client.latencies[-1]
    metrics = {}
    for name, (calls, own) in tracer.layer_totals().items():
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = own
    metrics.update(tracer.counters)
    metrics["memory.program_peak_mb"] = program_mb
    metrics["trace.requests"] = len(batch)
    metrics["trace.overhead_ms"] = (traced - untraced) / len(batch) * 1e3
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    tracer.write(path, {"workload": workload, "seed": seed, "stamp": stamp,
                        "requests": [r.index for r in batch]})
    print(f"# spans written to {path.relative_to(ROOT)}")
    return client, metrics


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, metavar="SPAWNED",
                        help="set up, print 'ready' and the set-up time since SPAWNED "
                             "(a time.perf_counter() reading), and exit")
    args = parser.parse_args()
    if not (ROOT / "src" / "menurank" / "cli.py").is_file():
        print("error: no menurank sources under src/menurank", file=sys.stderr)
        return 2

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.setup_probe is not None:
            print(f"ready {_timed_set_up(args.workload, args.seed, work, args.setup_probe)!r}",
                  flush=True)
            return 0
        stamp = _stamp()
        print(f"# stamp {json.dumps(stamp, sort_keys=True)}")
        print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
        if args.trace:
            client, values = _per_layer(args.workload, args.seed, work, stamp)
            declared = spec["per_layer"]
        else:
            client, values = _end_to_end(args.workload, args.seed, args.seconds, work)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    mismatch = {m["name"] for m in declared} ^ values.keys()
    if mismatch:
        raise RuntimeError(f"measured and declared metrics differ: {sorted(mismatch)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']} {metric['unit']}")
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": metrics,
    }))
    return 0 if client.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
