"""spgame benchmark: one workload, one seed, one process.

    python3 benchmark/run.py --workload cli-desk --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout and imports `spgame` from its
`src/`.  A run sets the workload up several times (instance generation,
file writing, one warm-up op), then runs the workload's ops as a closed
loop with one client: whole rounds, each op once per round, until
`--seconds` have passed and at least ten ops lie beyond the workload's
tail percentile.  Every op's stdout is then checked against a certificate
(see `checks.py`).

With `--trace 0` the ops run untraced and the end-to-end metrics are
printed; with `--trace 1` each op runs untraced and traced (see
`tracing.py`) and the per-layer metrics, including the tracing overhead,
are printed.  The last stdout line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the exit code is 1 if any
op failed.  A fuller record with the environment is written under
`.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 3


def import_program():
    """Import `spgame` from this checkout's `src/` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "spgame", "__init__.py")):
        raise SystemExit(f"no spgame sources under {SRC}")
    sys.path.insert(0, SRC)
    import spgame
    import spgame.cli  # noqa: F401  (the ops call spgame.cli.main)

    if not os.path.realpath(spgame.__file__).startswith(os.path.realpath(SRC)):
        raise SystemExit(f"spgame imported from {spgame.__file__}, not {SRC}")
    return spgame


def git_commit() -> str:
    """HEAD of the checkout, read from `.git` without running git; the
    checkout need not be a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Runs one op of a workload and returns (latency_s, exit_ok, stdout,
    error text)."""

    def __init__(self, spgame, workload, directory: str):
        self.spgame = spgame
        self.workload = workload
        self.directory = directory

    def __call__(self, op):
        _, argv, fname = op
        argv = [os.path.join(self.directory, a) if a == fname else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if self.workload.name == "plain-large":
                    self.solve_pipeline(argv[1])
                    code = 0
                else:
                    code = self.spgame.cli.main(argv)
        except Exception:  # an op that raises is a failed op, not a crash
            latency = perf_counter() - t0
            return latency, False, out.getvalue(), traceback.format_exc(limit=3)
        latency = perf_counter() - t0
        return latency, code == 0, out.getvalue(), err.getvalue()

    def solve_pipeline(self, path: str) -> None:
        """`spgame solve` through public functions, without the CLI's
        positivity check (a full `validate`, which does not finish at this
        size).  Module attributes are looked up per call so the traced run
        sees its wrappers."""
        sg = self.spgame
        game = sg.jsonio.load_path(path)
        game = sg.game.normalize(game)
        res = sg.ne.solve(game)
        sys.stdout.write(sg.jsonio.dumps(sg.jsonio.ne_result_to_json(game, res)))


class Outputs:
    """Per-op output bookkeeping for the correctness gate: each distinct
    stdout of an op is kept once, keyed by its digest."""

    def __init__(self, ops):
        self.ops = ops
        self.digest: dict[int, str] = {}  # op index -> digest of its first stdout
        self.distinct: dict[tuple, str] = {}
        self.records: list[tuple] = []  # (op index, digest, exit_ok, error)

    def add(self, index: int, exit_ok: bool, stdout: str, error: str) -> None:
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        self.digest.setdefault(index, digest)
        if exit_ok:
            self.distinct.setdefault((index, digest), stdout)
        self.records.append((index, digest, exit_ok, error))

    def round_digest(self) -> str:
        h = hashlib.sha256()
        for index in range(len(self.ops)):
            h.update(self.digest[index].encode())
        return h.hexdigest()

    @property
    def deterministic(self) -> bool:
        return all(d == self.digest[i] for i, d, _, _ in self.records)


@dataclass
class Verdicts:
    failed: int
    branches: dict  # solver branch -> count per round
    first_failure: str | None
    check_s: float  # mean check time per distinct output
    brute_forced: int


def check_outputs(checks, outputs: Outputs, directory: str) -> Verdicts:
    """Check every distinct output once; an op fails on a non-zero exit, an
    exception, or a failed check of its output."""
    checker = checks.Checker(directory)
    passed: dict[tuple, bool] = {}
    branches: Counter = Counter()
    first_failure = None
    check_s = []
    for (index, digest), stdout in outputs.distinct.items():
        _, argv, fname = outputs.ops[index]
        t0 = perf_counter()
        try:
            branch = checker.check(argv, fname, stdout)
            passed[(index, digest)] = True
            if digest == outputs.digest[index] and argv[0].startswith("solve"):
                branches[branch] += 1
        except Exception:  # any verifier error fails the op
            passed[(index, digest)] = False
            first_failure = first_failure or f"{argv}: {traceback.format_exc(limit=3)}"
        check_s.append(perf_counter() - t0)
    failed = 0
    for index, digest, exit_ok, error in outputs.records:
        if not (exit_ok and passed.get((index, digest), False)):
            failed += 1
            if not exit_ok:
                first_failure = first_failure or f"{outputs.ops[index][1]}: {error}"
    mean_check = statistics.fmean(check_s) if check_s else 0.0
    return Verdicts(failed, dict(branches), first_failure, mean_check, checker.brute_forced)


def percentile(ordered: list, p: float) -> float:
    """Linear interpolation between closest ranks; p=50 is the median."""
    pos = (len(ordered) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def setup(spgame, instances, name: str, seed: int, directory: str):
    """Generate and write the workload's files, then run one warm-up op."""
    workload = instances.WORKLOADS[name](seed)
    nbytes = instances.write_files(workload, directory)
    _, ok, _, error = Runner(spgame, workload, directory)(workload.ops[0])
    if not ok:
        raise RuntimeError(f"warm-up op failed: {error}")
    return workload, nbytes


def run_traced(tracer, run, op):
    tracer.install()
    root = tracer.start_op()
    try:
        return run(op)
    finally:
        tracer.finish_op(root)
        tracer.uninstall()


def timed_phase(workload, run, outputs: Outputs, seconds: float, tracer):
    """Closed loop over whole rounds.  Untraced, it runs until `seconds`
    have passed and the workload's minimum op count is reached.  Traced,
    each op is paired with a traced copy (taking turns at which goes
    first) and one round past `seconds` is enough.  Returns (untraced
    latencies, traced-minus-untraced latencies, rounds, elapsed)."""
    latencies, overheads = [], []
    rounds = 0
    t_start = perf_counter()
    while True:
        for index, op in enumerate(workload.ops):
            traced_first = (rounds + index) % 2 == 1
            if tracer is not None and traced_first:
                traced = run_traced(tracer, run, op)
                outputs.add(index, *traced[1:])
            result = run(op)
            outputs.add(index, *result[1:])
            latencies.append(result[0])
            if tracer is not None:
                if not traced_first:
                    traced = run_traced(tracer, run, op)
                    outputs.add(index, *traced[1:])
                overheads.append(traced[0] - result[0])
        rounds += 1
        elapsed = perf_counter() - t_start
        if elapsed >= seconds and (tracer is not None or len(latencies) >= workload.min_ops):
            return latencies, overheads, rounds, elapsed


def main(argv=None) -> int:
    t_process = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spgame = import_program()
    import checks
    import instances

    if args.workload not in instances.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(instances.WORKLOADS)}")
    import_s = perf_counter() - t_process

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    try:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            workload, nbytes = setup(spgame, instances, args.workload, args.seed, work)
            setup_s.append(perf_counter() - t0)
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        outputs = Outputs(workload.ops)
        latencies, overheads, rounds, elapsed = timed_phase(
            workload, Runner(spgame, workload, work), outputs, args.seconds, tracer
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        t_check = perf_counter()
        verdicts = check_outputs(checks, outputs, work)
        check_phase_s = perf_counter() - t_check
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(outputs.records)
    ops = len(latencies)
    ordered = sorted(latencies)
    end_to_end = {
        "latency_p50_ms": (percentile(ordered, 50) * 1000, "ms"),
        "latency_tail_ms": (percentile(ordered, workload.tail) * 1000, "ms"),
        "ops_per_s": (ops / elapsed, "1/s"),
        "setup_s": (import_s + statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "failure_rate": (verdicts.failed / attempted, "ratio"),
    }
    record = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "python": platform.python_version(),
            "have_native": spgame.HAVE_NATIVE,
            "nproc": len(os.sched_getaffinity(0)),
            "git_commit": git_commit(),
        },
        "rounds": rounds,
        "ops_per_subcommand": dict(Counter(workload.ops[r[0]][0] for r in outputs.records)),
        "branches_per_round": verdicts.branches,
        "brute_force_verified": verdicts.brute_forced,
        "input_bytes": nbytes,
        "setup_repeats_s": setup_s,
        "import_s": import_s,
        "timed_phase_s": elapsed,
        "check_phase_s": check_phase_s,
        "process_s": perf_counter() - t_process,
        "tail_percentile": workload.tail,
        "tail_samples": ops,
        "stdout_sha256": outputs.round_digest(),
        "deterministic": outputs.deterministic,
        "first_failure": verdicts.first_failure,
        "op_median_ms": [
            [" ".join(op[1]), statistics.median(latencies[i :: len(workload.ops)]) * 1000]
            for i, op in enumerate(workload.ops)
        ],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
    }
    if tracer is None:
        metrics = {
            k: {"value": v, "unit": u}
            for k, (v, u) in end_to_end.items()
            if k != "failure_rate"
        }
    else:
        from tracing import PER_LAYER_UNITS

        layers = tracer.layers.per_op(ops)
        layers["bruteforce.certificate_ms"] = verdicts.check_s * 1000
        layers["trace.overhead_ms"] = statistics.fmean(overheads) * 1000
        layers["trace.overhead_share"] = sum(overheads) / sum(latencies)
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
        record["per_layer"] = metrics
        tracer.write(os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.jsonl"))
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  rounds {rounds}  ops {ops}")
    for name, (value, unit) in end_to_end.items():
        note = f"  (p{workload.tail:g} of {ops} ops)" if name == "latency_tail_ms" else ""
        print(f"  {name:<16} {value:12.4f} {unit}{note}")
    if tracer is not None:
        for name, m in metrics.items():
            print(f"  {name:<40} {m['value']:14.4f} {m['unit']}")
    if verdicts.first_failure:
        print(f"first failure: {verdicts.first_failure}", file=sys.stderr)
    print(json.dumps({
        "correct": verdicts.failed == 0,
        "attempted": attempted,
        "failed": verdicts.failed,
        "metrics": metrics,
    }))
    return 0 if verdicts.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
