"""End-to-end and per-layer benchmark of the triuncert command line.

Run from the repository root:

    python3 benchmarks/run.py --workload scatter --seed 1 --seconds 25 --trace 0

Every workload drives `triuncert.cli.main(argv)` from this one process and
thread, as a closed loop with one caller: the next call starts after the
previous one returned and its output was checked. Calls are timed one by one;
checking and the machine-speed reference (speed.py) run between calls and are
not timed. `--seconds` is the timed call time a run collects (at least
MIN_CALLS calls).

With `--trace 0` the run reports the end-to-end metrics. With `--trace 1` it
runs half of `--seconds` untraced and half with the span tracer installed, and
reports the per-layer metrics and the tracing overhead. The last line of
standard output is one JSON object {correct, attempted, failed, metrics}; the
lines before it print every metric by name with its unit, the error rate and
the run's provenance. See README.md beside this file.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # must precede the first numpy import, which loads BLAS

import argparse  # noqa: E402
import array  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import oracle  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

WORKLOADS = ("scatter", "keyrate", "eval-files")
# rows per `run` call: the sizes of the scenarios in tests/test_acceptance.py
SCATTER_SAMPLES = 150
KEYRATE_SAMPLES = 60
EVAL_CHUNK = 256  # eval-files inputs written (and checked by the oracle) at a time
MIN_CALLS = 21
TAIL_BEYOND = 10  # the tail percentile has this many calls beyond it ...
TAIL_BLOCKS = 5  # ... in each of up to this many consecutive blocks of calls
TAIL_BLOCK_MIN = 100  # ... of at least this many calls each, when there are enough
SETUP_REPEATS = 11

END_TO_END_UNITS = {
    "rows_per_s": "rows/s",
    "call_ms_p50": "ms",
    "call_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
TRACE_UNITS = {
    "trace.rows_per_s_untraced": "rows/s",
    "trace.rows_per_s_traced": "rows/s",
    "trace.overhead_pct": "%",
}


def load_cli():
    """Import the program from this checkout's src/, and only from there."""
    package = SRC / "triuncert"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"benchmark: program source {package} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import triuncert.cli

    if Path(triuncert.cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"benchmark: imported triuncert from {triuncert.cli.__file__}, not {package}")
    return triuncert.cli


class RunWorkload:
    """Repeated `triuncert run --scenario S --samples K` calls; call j covers
    the K seeds from base + j*K, so every row is a fresh state."""

    def __init__(self, scenario: str, fmt: str, samples: int, columns, fields, seed: int, work: Path):
        self.scenario, self.fmt, self.samples = scenario, fmt, samples
        self.columns, self.fields = list(columns), fields
        self.rows_per_call = samples
        self.base = int(np.random.default_rng(seed).integers(0, 2**31))
        self.output = work / f"out.{fmt}"
        self.info = {"scenario": scenario, "format": fmt, "samples_per_call": samples, "base_seed": self.base}

    def call_seed(self, j: int) -> int:
        return self.base + j * self.samples

    def argv(self, j: int) -> list[str]:
        return ["run", "--scenario", self.scenario, "--samples", str(self.samples),
                "--seed", str(self.call_seed(j)), "--format", self.fmt, "--output", str(self.output)]

    def setup_argv(self) -> list[str]:
        """One state in a fresh interpreter: imports, bases and the first report."""
        argv = self.argv(0)
        argv[argv.index("--samples") + 1] = "1"
        return argv

    def _read_rows(self):
        text = self.output.read_text(encoding="utf-8")
        if self.fmt == "json":
            payload = json.loads(text)
            meta = payload["meta"]
            return meta["scenario"], int(meta["seed"]), meta["columns"], payload["rows"]
        meta, table = {}, []
        for line in text.splitlines():
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key] = value
            elif line:
                table.append(line.split(","))
        rows = [[float(cell) for cell in row] for row in table[1:]]
        return meta["scenario"], int(meta["seed"]), table[0], rows

    def failed_rows(self, j: int, rc: int) -> int:
        if rc != 0:
            return self.samples
        try:
            scenario, seed, columns, rows = self._read_rows()
        except (OSError, ValueError, KeyError, IndexError):
            return self.samples
        if (scenario, seed, columns) != (self.scenario, self.call_seed(j), self.columns) \
                or len(rows) != self.samples or any(len(row) != len(columns) for row in rows):
            return self.samples
        seeds = range(self.call_seed(j), self.call_seed(j) + self.samples)
        expected = oracle.pauli_fields(oracle.program_random_states(seeds))
        got = dict(zip(columns, np.array(rows, dtype=np.float64).T))
        bad = oracle.row_mismatches(expected, got, self.fields)
        bad |= got["index"] != np.arange(self.samples)
        return int(bad.sum())


class EvalWorkload:
    """Successive `triuncert eval --state F [--basis-x B] --output O` calls,
    each on its own seeded state file: a user runs each `eval` in a fresh
    process, so no input is seen twice within a run. Files are written in
    chunks of EVAL_CHUNK, ahead of the call that needs them and outside the
    timed region; the oracle checks a whole chunk at once. Only the first
    chunk (which the set-up spawns use) and the current one are kept, so the
    benchmark's own memory does not grow with the number of calls."""

    rows_per_call = 1

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.chunks: dict[int, tuple[list[inputs.EvalInput], dict]] = {}
        self.output = work / "out.json"
        self.calls_by_kind = dict.fromkeys(inputs.KINDS, 0)
        self.calls_custom_basis = 0
        self.digests = array.array("Q")  # of each checked call's input
        self.info = {"eval_chunk": EVAL_CHUNK}

    def _chunk(self, c: int) -> tuple[list[inputs.EvalInput], dict]:
        if c not in self.chunks:
            for old in [k for k in self.chunks if k != 0]:
                for item in self.chunks.pop(old)[0]:
                    item.state_path.unlink()
                    if item.basis_path is not None:
                        item.basis_path.unlink()
            items = inputs.write_eval_inputs(self.seed, c * EVAL_CHUNK, EVAL_CHUNK, self.work)
            expected = oracle.bound_and_key_fields(
                np.stack([item.rho for item in items]),
                np.stack([item.basis_x for item in items]),
                np.broadcast_to(oracle.PAULI["Z"], (len(items), 2, 2)),
            )
            self.chunks[c] = (items, expected)
        return self.chunks[c]

    def item(self, j: int) -> inputs.EvalInput:
        return self._chunk(j // EVAL_CHUNK)[0][j % EVAL_CHUNK]

    def argv(self, j: int) -> list[str]:
        item = self.item(j)
        argv = ["eval", "--state", str(item.state_path), "--output", str(self.output)]
        if item.basis_path is not None:
            argv += ["--basis-x", str(item.basis_path)]
        return argv

    def setup_argv(self) -> list[str]:
        return self.argv(0)

    def failed_rows(self, j: int, rc: int) -> int:
        item = self.item(j)
        self.calls_by_kind[item.kind] += 1
        self.calls_custom_basis += item.basis_path is not None
        digest = hashlib.sha256(item.rho.tobytes() + item.basis_x.tobytes()).digest()
        self.digests.append(int.from_bytes(digest[:8], "little"))
        if rc != 0:
            return 1
        try:
            payload = json.loads(self.output.read_text(encoding="utf-8"))
            meta, bounds, keys = payload["meta"], payload["bounds"], payload["keyrate"]
            got = {name: [bounds[name]] for name in oracle.BOUND_FIELDS}
            got.update({name: [float(keys[name])] for name in oracle.KEY_FIELDS})
        except (OSError, ValueError, KeyError, TypeError):
            return 1
        if (meta.get("state"), meta.get("basis_x"), meta.get("basis_z")) != (str(item.state_path), item.label_x, "Z"):
            return 1
        k = j % EVAL_CHUNK
        expected = {name: values[k:k + 1] for name, values in self._chunk(j // EVAL_CHUNK)[1].items()}
        return int(oracle.row_mismatches(expected, got, oracle.BOUND_FIELDS + oracle.KEY_FIELDS).sum())

    def input_mix(self) -> dict:
        """Shares of the checked calls by state kind, with a custom basis, and
        on an input already seen in this run."""
        calls = max(sum(self.calls_by_kind.values()), 1)
        shares = {f"share_{kind}": n / calls for kind, n in self.calls_by_kind.items()}
        shares["share_custom_basis"] = self.calls_custom_basis / calls
        shares["share_repeated_input"] = 1.0 - len(np.unique(np.asarray(self.digests))) / calls
        return shares


def make_workload(name: str, seed: int, work: Path):
    if name == "scatter":
        return RunWorkload("random-scatter", "csv", SCATTER_SAMPLES,
                           ("index", "purity", "u_left", "u_right", "renes"),
                           ("purity", "u_left", "u_right", "renes"), seed, work)
    if name == "keyrate":
        return RunWorkload("keyrate", "json", KEYRATE_SAMPLES, ("index",) + oracle.KEY_FIELDS,
                           oracle.KEY_FIELDS, seed, work)
    return EvalWorkload(seed, work)


class Phase:
    """Calls of one stage of a run: per-call seconds and the rows they attempted or failed."""

    def __init__(self, name: str):
        self.name = name
        self.durations: list[float] = []
        self.references: list[float] = []  # the speed.py reference time next to each duration
        self.attempted = 0
        self.failed = 0


def call_main(main, argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed call, as for a user of the CLI
        traceback.print_exc(file=sys.stderr)
        return 1


def run_calls(main, workload, seconds: float, first: int, phase: Phase) -> int:
    """Call until the phase holds `seconds` of call time and MIN_CALLS calls;
    check each output after its call. Returns the next call index. A call's
    reference time is the mean of the references taken just before and just
    after it, which tracks the machine's speed during a long call better than
    either alone."""
    j, spent = first, sum(phase.durations)
    before = speed.reference_seconds(phase.durations[-1] if phase.durations else 0.0)
    while spent < seconds or len(phase.durations) < MIN_CALLS:
        argv = workload.argv(j)
        t0 = perf_counter()
        rc = call_main(main, argv)
        dt = perf_counter() - t0
        after = speed.reference_seconds(dt)
        phase.durations.append(dt)
        phase.references.append(0.5 * (before + after))
        before = after
        spent += dt
        phase.attempted += workload.rows_per_call
        phase.failed += workload.failed_rows(j, rc)
        j += 1
    return j


def rows_per_s(call_seconds, rows_per_call: int) -> float:
    """Rows written (or states evaluated) per second of call time."""
    return rows_per_call * len(call_seconds) / float(np.sum(call_seconds))


def spawn_seconds(argv: list[str]) -> tuple[int, float]:
    """Exit code and wall time of `python argv` in a fresh interpreter. No
    timeout: with one, subprocess polls the child every 50 ms and the times
    come out in 50 ms steps."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False)
    return proc.returncode, perf_counter() - t0


def spawn_first_call(argv: list[str], phase: Phase, timed: bool = True) -> None:
    """Time `python -m triuncert argv` (imports, bases and the first report),
    right after the reference spawn of speed.py."""
    ref_rc, reference = spawn_seconds(speed.REFERENCE_SPAWN)
    rc, dt = spawn_seconds(["-m", "triuncert", *argv])
    phase.attempted += 1
    phase.failed += rc != 0 or ref_rc != 0
    if timed:
        phase.durations.append(dt)
        phase.references.append(reference)


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "triuncert").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, workload, samples: dict) -> dict:
    record = {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "thread_pinning": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
        **workload.info,
    }
    if isinstance(workload, EvalWorkload):
        record["input_mix"] = workload.input_mix()
    return record


def tail(call_seconds) -> tuple[float, float]:
    """Median over consecutive blocks of calls of each block's highest
    percentile with TAIL_BEYOND calls beyond it, and that percentile. A single
    extreme percentile of a whole run is far less steady."""
    calls = np.asarray(call_seconds)
    blocks = np.array_split(calls, max(1, min(TAIL_BLOCKS, len(calls) // TAIL_BLOCK_MIN)))
    value = float(np.median([np.sort(b)[len(b) - 1 - TAIL_BEYOND] for b in blocks]))
    size = min(len(b) for b in blocks)
    return value, 100.0 * (size - TAIL_BEYOND) / size


def end_to_end(timed: Phase, rows_per_call: int, setup: Phase) -> tuple[dict, dict]:
    """The end-to-end metrics, and their sample counts. Call times are scaled
    to the nominal machine speed by the reference mix, set-up spawns by the
    reference spawn (see speed.py); the raw wall-time values go beside the
    counts."""
    n = len(timed.durations)
    values, raw = {}, {}
    for out, calls in ((values, speed.scaled(timed.durations, timed.references, speed.NOMINAL_S)),
                       (raw, timed.durations)):
        out["rows_per_s"] = rows_per_s(calls, rows_per_call)
        out["call_ms_p50"] = 1000.0 * float(np.median(calls))
        out["call_ms_tail"] = 1000.0 * tail(calls)[0]
    setup_scaled = speed.scaled(setup.durations, setup.references, speed.NOMINAL_SPAWN_S)
    values["setup_s"] = float(np.median(setup_scaled))
    raw["setup_s"] = float(np.median(setup.durations))
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = {
        "rows_per_s": n,
        "call_ms_p50": n,
        "call_ms_tail": n,
        "call_ms_tail_percentile": tail(timed.durations)[1],
        "setup_s": len(setup.durations),
        "peak_rss_mb": 1,
        "raw_wall_time": raw,
        "reference_ms_median": 1000.0 * float(np.median(timed.references)),
        "reference_spawn_s_median": float(np.median(setup.references)),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}, samples


def measure_end_to_end(cli, workload, seconds: float, phases: list) -> tuple[dict, dict]:
    """The timed calls, with SETUP_REPEATS set-up spawns spread over the run so
    that they sample the same machine phases as the calls. A first, untimed
    spawn warms the file cache and the bytecode."""
    setup, timed = Phase("setup"), Phase("timed")
    phases += [setup, timed]
    spawn_first_call(workload.setup_argv(), setup, timed=False)
    j = 1
    for k in range(1, SETUP_REPEATS + 1):
        spawn_first_call(workload.setup_argv(), setup)
        j = run_calls(cli.main, workload, seconds * k / SETUP_REPEATS, j, timed)
    return end_to_end(timed, workload.rows_per_call, setup)


def measure_layers(cli, workload, seconds: float, phases: list, tracer: tracing.Tracer):
    """Half the time untraced, half traced: the per-layer metrics and the
    tracing overhead as traced against untraced rows_per_s."""
    untraced, traced = Phase("untraced"), Phase("traced")
    j = run_calls(cli.main, workload, seconds / 2.0, 1, untraced)
    tracer.install()
    try:
        run_calls(tracer.root(cli.main), workload, seconds / 2.0, j, traced)
    finally:
        tracer.uninstall()
    phases += [untraced, traced]
    metrics = tracing.layer_metrics(tracer, traced.attempted)
    plain = rows_per_s(speed.scaled(untraced.durations, untraced.references, speed.NOMINAL_S), workload.rows_per_call)
    slow = rows_per_s(speed.scaled(traced.durations, traced.references, speed.NOMINAL_S), workload.rows_per_call)
    for name, value in (("trace.rows_per_s_untraced", plain), ("trace.rows_per_s_traced", slow),
                        ("trace.overhead_pct", 100.0 * (plain / slow - 1.0))):
        metrics[name] = (value, TRACE_UNITS[name])
    samples = {"untraced_calls": len(untraced.durations), "traced_calls": len(traced.durations),
               "traced_rows": traced.attempted, "spans": len(tracer.name)}
    return metrics, samples


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Benchmark the triuncert CLI.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = load_cli()
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = tracing.Tracer()
    try:
        workload = make_workload(args.workload, args.seed, work)
        # one warm-up call, checked but not timed, so lazy set-up settles first
        warm = Phase("warm-up")
        warm.attempted = workload.rows_per_call
        warm.failed = workload.failed_rows(0, call_main(cli.main, workload.argv(0)))
        phases = [warm]
        if args.trace:
            metrics, samples = measure_layers(cli, workload, args.seconds, phases, tracer)
        else:
            metrics, samples = measure_end_to_end(cli, workload, args.seconds, phases)
        record = provenance(args, workload, samples)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    if args.trace:
        record["absent"] = tracer.absent
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    with open(OUT / f"BENCH_{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"provenance": record, "call_seconds": {p.name: p.durations for p in phases[1:]},
                   "reference_seconds": {p.name: p.references for p in phases[1:]}, **result}, fh, indent=2)
    if args.trace:
        np.savez_compressed(OUT / f"spans_{stem}.npz", **tracer.spans())

    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {unit}")
    print(f"{'error_rate':<{width}}  {failed / attempted:.6g} ({failed}/{attempted} rows failed)")
    print("provenance " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
