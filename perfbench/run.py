"""Benchmark of the cuntzfock engine, run from the root of a checkout:

    python3 perfbench/run.py --workload {verify,transfer,scalars} \\
        --seed N --seconds S --trace {0,1}

The engine is imported from ``src/`` of the checkout.  One client runs a
closed loop of ops in this process, with no worker threads, and checks
every result.  Set-up time and cold CLI calls are measured in
subprocesses.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give each metric by name with its unit, the sample counts, and
a stamp (Python version, rational backend, nproc, git SHA, seed).  Runs
stamped with different backends must not be compared.

Every time reported is scaled to a reference machine speed (see
``speed.py``): the host's speed drifts by up to a factor of two over
minutes, and the scaling removes most of that drift.  The calibration
readings' quartiles are printed, so raw times can be recovered.  Set-up
probes and cold CLI calls run in fresh interpreters, whose start the hot
calibration loop does not track, so each of those is scaled instead by
the start time of a bare interpreter run just before it.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end
metrics.  ``--trace 1`` reports the per-layer metrics instead: it runs a
fixed amount of work untraced, then the same amount traced (see
``tracer.py``), so call counts repeat exactly for a given seed.

Exit code 0 when every output was correct, 1 when one was not or the
tracer's own invariants failed, 2 when the engine sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
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
from array import array
from pathlib import Path

from speed import PERIOD_S, REF_S, Speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_PROBES = 9
CLI_REPEATS = 6
# A run measures at least this many rounds, whatever --seconds says.
MIN_ROUNDS = 2
# Peak RSS is read after this many rounds, so that an engine that gets
# through more rounds in the same seconds is not charged for it.
RSS_ROUNDS = {"verify": 1, "transfer": 16, "scalars": 16}
# Fixed work of a traced run.
TRACE_ROUNDS = {"verify": 1, "transfer": 8, "scalars": 8}
# The op of each workload is a call into this layer (None: the op itself
# calls several layers directly).
OP_LAYER = {"verify": "cli", "transfer": None, "scalars": None}
LAYERS = ("radical", "words", "rep", "ladder", "correspondence", "verify", "cli")
# Layer self times must sum to the traced wall time within this share.
COVERAGE_TOLERANCE = 0.1
# Latency percentiles are taken over windows of this many consecutive ops.
LATENCY_WINDOW = 1000
# A run stops early after this many ops; the op log is allocated up front,
# so its size does not depend on the engine's speed.
SAMPLE_CAP = 1 << 19
CLI_MAIN = "import sys; from cuntzfock.cli import main; sys.exit(main())"
BARE_PYTHON = [sys.executable, "-c", "pass"]
# Median start time of BARE_PYTHON, with the engine on its path, on a
# 2-core x86-64 VM with CPython 3.11.7.
REF_PYTHON_S = 0.046


def _engine_env() -> dict:
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + old if old else ""))


def _timed_subprocess(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=_engine_env(), capture_output=True,
                          text=True, timeout=120)
    return time.perf_counter() - t0, proc


def _subprocess_log(argv: list[str], times: int, speed: Speed) -> list[tuple[float, float, float]]:
    """(start, end, seconds) of `times` runs of a command that must succeed."""
    log = []
    for _ in range(times):
        t0 = time.perf_counter()
        with speed.paused():
            dt, proc = _timed_subprocess(argv)
        if proc.returncode != 0:
            raise RuntimeError(f"{argv} failed: {proc.stderr.strip()}")
        log.append((t0, time.perf_counter(), dt))
    return log


def _scaled_subprocess(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Seconds of one run of argv, scaled by a bare interpreter started just before it."""
    bare, proc = _timed_subprocess(BARE_PYTHON)
    if proc.returncode != 0:
        raise RuntimeError(f"bare interpreter failed: {proc.stderr.strip()}")
    dt, proc = _timed_subprocess(argv)
    return dt * REF_PYTHON_S / bare, proc


def probes(workload: str, tally: "Tally") -> list:
    """Set-up probes and cold CLI calls, interleaved, to be spread over a run.

    Each returns (kind, scaled seconds).  A set-up probe is a fresh
    interpreter that imports the engine and does the workload's warm-up.
    A cold CLI call must print, byte for byte, the JSON the command gives
    in-process.
    """
    from workloads import CLI_CALLS

    def setup():
        dt, proc = _scaled_subprocess([sys.executable, str(BENCH / "warmup.py"), workload])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        return "setup", dt

    def cold(argv, want):
        def call():
            dt, proc = _scaled_subprocess([sys.executable, "-c", CLI_MAIN, *argv])
            tally.attempted += 1
            if proc.returncode != 0 or proc.stdout != want:
                tally.fail(f"cuntzfock {' '.join(argv)}: exit {proc.returncode}, "
                           f"output {proc.stdout!r} {proc.stderr.strip()!r}")
            return "cli", dt
        return call

    setups = [setup] * SETUP_PROBES
    clis = [cold(argv, want() + "\n") for _ in range(CLI_REPEATS) for argv, want in CLI_CALLS]
    spread = [((i + 0.5) / len(group), fn) for group in (setups, clis)
              for i, fn in enumerate(group)]
    return [fn for _, fn in sorted(spread, key=lambda pair: pair[0])]


def stamp(args) -> dict:
    from cuntzfock import radical

    q = getattr(radical, "_Q", None)
    sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "backend": "gmpy2" if getattr(q, "__module__", "").startswith("gmpy2") else "Fraction",
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tally:
    """Ops attempted and failed; the first few errors go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self._reported = 0

    def run(self, op, call):
        """Run one op through `call`; return its seconds, or None if it failed."""
        self.attempted += op.weight
        try:
            out, dt = call(op.run)
            err = op.check(out)
        except Exception:  # an engine error fails the op, not the benchmark
            err = traceback.format_exc()
        if err is None:
            return dt
        self.fail(f"{op.kind}: {err}", op.weight)
        return None

    def fail(self, message: str, weight: int = 1) -> None:
        self.failed += weight
        if self._reported < 5:
            self._reported += 1
            print(f"error: {message}", file=sys.stderr, flush=True)


def _timed_call(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _flatten(rounds):
    for ops in rounds:
        for i, op in enumerate(ops):
            yield op, i == len(ops) - 1


def weighted_quantile(pairs, q: float) -> float:
    """Smallest value whose cumulative weight reaches q of the total."""
    pairs = sorted(pairs)
    total = sum(w for _, w in pairs)
    acc = 0
    for value, weight in pairs:
        acc += weight
        if acc >= q * total:
            return value
    return pairs[-1][0]


def measure(workload: str, seed: int, seconds: float, tally: Tally, pending: list,
            speed: Speed) -> dict:
    """Closed loop for `seconds`; throughput, latency, peak RSS, probe times.

    The probes in `pending` run spread over the loop, on a clock that stops
    while they run, so that they sample the machine at many moments.
    Throughput is the median over rounds, and each latency percentile the
    median over windows of LATENCY_WINDOW ops: the calibration scales some
    stretches of a run better than others, and the medians keep a few
    mis-scaled stretches from moving the result.  Ops that each carry many
    checks (the suites of verify) are few, so each kind is scored by its
    median time instead: throughput is checks over the sum of those
    medians, and every check is charged its suite's median time per check.
    The median check then falls in a single suite, timed only a few
    times a run, so p50 there is the mean time per check instead.
    """
    from workloads import ROUNDS

    starts = array("d", bytes(8 * SAMPLE_CAP))
    ends = array("d", bytes(8 * SAMPLE_CAP))
    secs = array("d", bytes(8 * SAMPLE_CAP))
    kinds = array("B", bytes(SAMPLE_CAP))
    round_of = array("I", bytes(4 * SAMPLE_CAP))
    kind_ids: dict[str, int] = {}
    weights: dict[str, int] = {}
    probe_times: dict[str, list[float]] = {"setup": [], "cli": []}
    n = 0
    rounds = 0
    rss = None
    run_op = speed.timed(_timed_call)

    def probe(fn):
        with speed.paused():
            kind, dt = fn()
        probe_times[kind].append(dt)

    paused = 0.0
    step = seconds / max(len(pending), 1)
    ran = 0
    speed.start()
    start = time.perf_counter()
    for op, ends_round in _flatten(ROUNDS[workload](seed)):
        t0 = time.perf_counter()
        dt = tally.run(op, run_op)
        if dt is not None:
            starts[n], ends[n], secs[n] = t0, time.perf_counter(), dt
            kinds[n] = kind_ids.setdefault(op.kind, len(kind_ids))
            round_of[n] = rounds
            weights[op.kind] = op.weight
            n += 1
        if ends_round:
            rounds += 1
            if rounds == RSS_ROUNDS[workload]:
                rss = peak_rss_mb()
        elapsed = time.perf_counter() - start - paused
        while pending and elapsed >= step * (ran + 0.5):
            t0 = time.perf_counter()
            probe(pending.pop(0))
            ran += 1
            paused += time.perf_counter() - t0
        if rounds >= MIN_ROUNDS and (elapsed >= seconds or n == SAMPLE_CAP):
            break
    for fn in pending:
        probe(fn)
    speed.stop()
    if rss is None:
        rss = peak_rss_mb()

    for i in range(n):
        secs[i] = speed.scale(starts[i], ends[i], secs[i])

    names = {i: kind for kind, i in kind_ids.items()}
    if max(weights.values()) > 1:
        times: dict[str, list[float]] = {}
        for i in range(n):
            times.setdefault(names[kinds[i]], []).append(secs[i])
        median = {kind: statistics.median(ts) for kind, ts in times.items()}
        per_check = [(median[kind] / weights[kind], weights[kind]) for kind in median]
        ops_per_s = sum(weights.values()) / sum(median.values())
        p50, p99 = 1 / ops_per_s, weighted_quantile(per_check, 0.99)
        samples = sum(weights[names[kinds[i]]] for i in range(n))
    else:
        busy = [0.0] * rounds
        done = [0] * rounds
        for i in range(n):
            if round_of[i] < rounds:
                busy[round_of[i]] += secs[i]
                done[round_of[i]] += 1
        cuts = [statistics.quantiles(secs[i:i + LATENCY_WINDOW], n=100)
                for i in range(0, max(n - LATENCY_WINDOW, 0) + 1, LATENCY_WINDOW)]
        ops_per_s = statistics.median(d / b for d, b in zip(done, busy) if b)
        p50, p99 = (statistics.median(c[q] for c in cuts) for q in (49, 98))
        samples = n
    return {
        "ops_per_s": ops_per_s,
        "op_p50_us": p50 * 1e6,
        "op_p99_us": p99 * 1e6,
        "peak_rss_mb": rss,
        "setup_s": statistics.median(probe_times["setup"]),
        "cli_p50_ms": statistics.median(probe_times["cli"]) * 1e3,
        "_samples": samples,
        "_rounds": rounds,
        "_probes": {kind: len(ts) for kind, ts in probe_times.items()},
    }


def _fixed_pass(workload: str, seed: int, call, tally: Tally, speed: Speed) -> list:
    """Run TRACE_ROUNDS rounds through `call`; (start, end, seconds) of each op.

    The calibration timer is off during the pass.  Readings are taken
    between ops instead, so that none lands in an op's time or in a
    layer's self time.
    """
    from workloads import ROUNDS

    rounds = ROUNDS[workload](seed)
    log = []
    with speed.paused():
        last = time.perf_counter()
        for _ in range(TRACE_ROUNDS[workload]):
            for op in next(rounds):
                t0 = time.perf_counter()
                dt = tally.run(op, call)
                t1 = time.perf_counter()
                log.append((t0, t1, dt or 0.0))
                if t1 - last >= PERIOD_S:
                    speed.read()
                    last = time.perf_counter()
    return log


def traced(workload: str, seed: int, tally: Tally, speed: Speed) -> dict:
    """Per-layer counts and self times over a fixed amount of traced work."""
    import importlib

    from tracer import Tracer

    # The untraced reference draws other inputs, so the engine's caches are
    # as cold for the traced pass as for the reference.
    speed.start()
    ref_log = _fixed_pass(workload, seed + 1_000_003, _timed_call, tally, speed)

    modules = {layer: importlib.import_module(f"cuntzfock.{layer}") for layer in LAYERS}
    tracer = Tracer()
    tracer.install(modules)
    for alias in tracer.unwrapped_aliases():
        tally.fail(f"tracer: {alias} escaped wrapping")
    layer = OP_LAYER[workload]
    checks_before = tally.attempted
    traced_log = _fixed_pass(workload, seed, lambda fn: tracer.call(fn, layer), tally, speed)
    checks = tally.attempted - checks_before

    python_log = _subprocess_log(BARE_PYTHON, SETUP_PROBES, speed)
    import_log = _subprocess_log([sys.executable, "-c", "import cuntzfock.cli"], SETUP_PROBES,
                                 speed)
    speed.stop()

    def scaled(log):
        return [speed.scale(*entry) for entry in log]

    python_s = statistics.median(scaled(python_log))
    import_s = statistics.median(scaled(import_log))
    ref_s = sum(scaled(ref_log))
    traced_s = sum(scaled(traced_log))
    self_s = {name: tracer.layers.get(name, [0.0])[0] for name in LAYERS}
    # Every span adds its whole time to its parent, so the self times sum to
    # the op time less the glue outside any span.  Where the op is a call
    # into one layer (verify) that glue is the layer's too, and the sum
    # equals the op time by construction.
    covered = sum(self_s.values()) / sum(dt for _, _, dt in traced_log)
    if abs(1 - covered) > COVERAGE_TOLERANCE:
        tally.fail(f"tracer: layer self times cover {covered:.3f} of the traced time")

    c = tracer.calls
    behead = c("words.TailWord.behead")
    mul = c("radical.RadicalScalar.__mul__", "radical.RadicalScalar.__rmul__")
    ladder_calls = c("ladder.apply_boson") + c("ladder.apply_fermion")

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "words.built": (tracer.built[0], "count"),
        "words.prepend_calls": (c("words.TailWord.prepend"), "count"),
        "words.behead_calls": (behead, "count"),
        "words.behead_miss_frac": (ratio(tracer.behead_miss[0], behead), "ratio"),
        "words.leading_block_calls": (c("words.leading_block"), "count"),
        "words.codec_calls": (c("words.word_to_index", "words.index_to_word"), "count"),
        "words.self_s": (self_s["words"], "s"),
        "radical.mul_calls": (mul, "count"),
        "radical.add_calls": (c("radical.RadicalScalar.__add__",
                                "radical.RadicalScalar.__radd__"), "count"),
        "radical.unit_mul_frac": (ratio(tracer.unit_muls[0], mul), "ratio"),
        "radical.sqrt_calls": (c("radical.sqrt_of_nat"), "count"),
        "radical.self_s": (self_s["radical"], "s"),
        "rep.map_basis_calls": (c("rep.map_basis"), "count"),
        "rep.terms_in": (tracer.map_terms_in[0], "count"),
        "rep.annihilated_frac": (ratio(tracer.map_annihilated[0], tracer.map_terms_in[0]),
                                 "ratio"),
        "rep.self_s": (self_s["rep"], "s"),
        "ladder.boson_calls": (c("ladder.apply_boson"), "count"),
        "ladder.fermion_calls": (c("ladder.apply_fermion"), "count"),
        "ladder.mean_mode": (ratio(tracer.ladder_mode_sum[0], ladder_calls), "mode"),
        "ladder.self_s": (self_s["ladder"], "s"),
        "correspondence.forward_calls": (c("correspondence.forward"), "count"),
        "correspondence.inverse_calls": (c("correspondence.inverse"), "count"),
        "correspondence.operational_calls": (c("correspondence.forward_operational"), "count"),
        "correspondence.grade_calls": (c("correspondence.enumerate_grade"), "count"),
        "correspondence.self_s": (self_s["correspondence"], "s"),
        "verify.checks": (checks if workload == "verify" else 0, "count"),
        "verify.self_s": (self_s["verify"], "s"),
        "verify.float_oracle_s": (tracer.inclusive_s("verify.float_oracle"), "s"),
        "cli.self_s": (self_s["cli"], "s"),
        "cli.import_ms": ((import_s - python_s) * 1e3, "ms"),
        "cli.python_ms": (python_s * 1e3, "ms"),
        "trace.overhead_frac": ((traced_s - ref_s) / ref_s, "ratio"),
        "trace.covered_frac": (covered, "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify", "transfer", "scalars"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if hasattr(os, "sched_setaffinity"):
        # one CPU for the engine, its subprocesses and the calibration readings
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # no worker threads from the float oracle's numerical libraries, here
    # or in the subprocesses
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "cuntzfock" / "__init__.py").is_file():
        print(f"error: no engine sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cuntzfock

    if Path(cuntzfock.__file__).resolve().parent != SRC / "cuntzfock":
        print(f"error: imported cuntzfock from {cuntzfock.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from warmup import WARMUPS

    WARMUPS[args.workload]()
    print("# stamp " + json.dumps(stamp(args)), flush=True)

    tally = Tally()
    speed = Speed()
    if args.trace:
        metrics = traced(args.workload, args.seed, tally, speed)
    else:
        found = measure(args.workload, args.seed, args.seconds, tally,
                        probes(args.workload, tally), speed)
        print(f"# samples {found['_samples']} in {found['_rounds']} rounds; "
              f"probes {found['_probes']}")
        metrics = {
            "setup_s": (found["setup_s"], "s"),
            "ops_per_s": (found["ops_per_s"], "1/s"),
            "op_p50_us": (found["op_p50_us"], "us"),
            "op_p99_us": (found["op_p99_us"], "us"),
            "cli_p50_ms": (found["cli_p50_ms"], "ms"),
            "peak_rss_mb": (found["peak_rss_mb"], "MB"),
        }
    print(f"# speed: {len(speed.readings)} calibration readings, quartiles "
          f"{statistics.quantiles(speed.readings, n=4)} s; times scaled to {REF_S} s")

    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value} {unit}")
    print(f"# failed_frac = {tally.failed / max(tally.attempted, 1)} ratio")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
