"""dpcopt benchmark: run one workload for one seed and print its metrics.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): paper_logistic, sweep_sincos,
scale_ppdc_bbit; BENCHMARK.json lists the ones the gate runs. Every
config is generated from --seed and written to bench/out/ next to the
outputs, so any run can be replayed.

--trace 0 times the workload's CLI command (`dpcopt run` or `dpcopt
sweep`), `dpcopt privacy` and a set-up probe, each in a fresh
interpreter, interleaved until --seconds is spent, and reports trimmed
means over the samples, the times rescaled to a reference host speed
with a calibration loop timed before every command. Every run of the
command after the first replays the first one's metadata.json; its
output bytes must match.

--trace 1 runs the command once untraced and once under tracer.py, then
reports the per-layer metrics of the traced run and the tracing
overhead, and prints the cost-per-call table.

Output correctness is checked after timing ends. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import (  # noqa: E402
    DEFAULT_SEED,
    TARGET_EPSILON,
    WORKLOADS,
    make_workload,
)

CLI = "import sys; from dpcopt.runner import main; sys.exit(main())"
# Children still running at this point of the run are killed, so the
# benchmark ends within the 180 s it is allowed.
DEADLINE_S = 170.0


@dataclass
class Child:
    log: str  # stem of the child's .stdout/.stderr files
    output_root: Path  # DPCOPT_OUTPUT_ROOT of the child
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    problems: list[str] = field(default_factory=list)


class Bench:
    """Runs the child processes of one workload and tallies failures."""

    def __init__(self, out: Path, started: float) -> None:
        self.out = out
        self.deadline = started + DEADLINE_S
        self.children: list[Child] = []

    def child(self, argv: list, output_root: Path, log: str) -> Child:
        """Run argv to completion in a fresh interpreter. Wall time runs
        from spawn to exit; CPU time and peak RSS come from wait4."""
        output_root.mkdir(parents=True, exist_ok=True)
        env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            DPCOPT_OUTPUT_ROOT=str(output_root),
        )
        argv = [sys.executable, *map(str, argv)]
        with open(self.out / f"{log}.stdout", "w+") as out, open(
            self.out / f"{log}.stderr", "w"
        ) as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
            pidfd = os.pidfd_open(proc.pid)
            try:
                timeout = max(0.0, self.deadline - time.monotonic())
                exited = select.select([pidfd], [], [], timeout)[0]
            finally:
                os.close(pidfd)
            if not exited:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            stdout = out.read()
        child = Child(
            log=log,
            output_root=output_root,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB
            stdout=stdout,
        )
        if not exited:
            child.problems.append("killed at the benchmark deadline")
        elif proc.returncode != 0:
            child.problems.append(f"exit code {proc.returncode}")
        self.children.append(child)
        return child

    def cli(self, args: list, output_root: Path, log: str) -> Child:
        return self.child(["-c", CLI, *args], output_root, log)

    def traced_cli(self, spans: Path, args: list, output_root: Path, log: str) -> Child:
        return self.child([BENCH_DIR / "tracer.py", spans, *args], output_root, log)

    def probe(self, config: Path, log: str) -> dict:
        """The set-up probe's report; empty if the probe failed."""
        child = self.child([BENCH_DIR / "setup_probe.py", config], self.out, log)
        try:
            report = json.loads(child.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            child.problems.append("set-up probe printed no report")
            return {}
        if not Path(report["dpcopt_file"]).resolve().is_relative_to(ROOT):
            child.problems.append(f"imported dpcopt from {report['dpcopt_file']}")
        return report

    @property
    def failed(self) -> int:
        return sum(1 for c in self.children if c.problems)


def privacy_args(config: Path) -> list:
    return ["privacy", config, "--target-epsilon", TARGET_EPSILON]


# ---------------------------------------------------------------- checks


def check_outputs(child: Child, wl, reference: bytes | None) -> bytes:
    """Check the outputs of one run or sweep command (its exit code is
    checked already) and return the primary output's bytes."""
    out_dir = child.output_root / wl.config["outputs"]
    try:
        primary = (out_dir / wl.primary_output).read_bytes()
        metadata = json.loads((out_dir / "metadata.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        child.problems.append(f"missing output: {exc}")
        return b""
    lines = primary.decode("utf-8").splitlines()
    if wl.command == "run":
        rows = wl.config["iterations"] + 1
        invariants = metadata.get("invariants", {})
        if invariants.get("tracking_or_dual_residual_ok") is not True:
            child.problems.append("tracking/dual residual above tolerance")
        if invariants.get("rows") != rows or len(lines) != rows + 1:
            child.problems.append(f"expected {rows} trace rows")
    else:
        sweep = wl.config["sweep"]
        cells = len(sweep["values"]) * sweep["repeats"]
        if metadata.get("failures") or len(metadata.get("cells", [])) != cells:
            child.problems.append("sweep cells failed or missing")
        if len(lines) != len(sweep["values"]) + 1 or any(
            line.endswith(",,,") for line in lines
        ):
            child.problems.append("sweep summary incomplete")
    if reference is not None and primary != reference:
        child.problems.append(f"replay {wl.primary_output} differs from the first run")
    return primary


def check_privacy(child: Child, wl) -> None:
    path = child.output_root / wl.config["outputs"] / "privacy_report.json"
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        child.problems.append(f"privacy report unreadable: {exc}")
        return
    if "target_epsilon" not in report:
        child.problems.append("privacy report lacks the target-epsilon inversion")


def final_grad_norm(wl, output_root: Path, primary: bytes) -> float:
    """grad_norm_mean at row K (median over the cells of a sweep)."""
    if wl.command == "run":
        return float(primary.decode("utf-8").splitlines()[-1].split(",")[2])
    metadata = output_root / wl.config["outputs"] / "metadata.json"
    cells = json.loads(metadata.read_text(encoding="utf-8"))["cells"]
    return statistics.median(cell["final_accuracy"] for cell in cells)


def digest_note(wl, primary: bytes) -> str:
    """Compare the primary output with its golden digest. A difference
    is declared drift, not a failure: final_grad_norm bounds how far the
    numbers moved."""
    digest = hashlib.sha256(primary).hexdigest()
    note = f"digest {wl.primary_output} sha256 {digest}"
    if wl.config["seed"] != DEFAULT_SEED:
        return f"{note} (golden digests are for seed {DEFAULT_SEED})"
    digests = json.loads((BENCH_DIR / "digests.json").read_text(encoding="utf-8"))
    if digest == digests[wl.name]:
        return f"{note}: matches the golden digest"
    return f"{note}: DRIFT from golden {digests[wl.name]} (declared, not a failure)"


# ----------------------------------------------------------- environment


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(probe: dict, load_before: tuple) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = git.stdout.strip() or None
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dpcopt").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas": probe.get("blas"),
        "blas_thread_env": {k: os.environ[k] for k in thread_vars if k in os.environ},
        # Main thread plus the BLAS worker threads started at import.
        "threads_after_setup": probe.get("threads"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "git_commit": commit,
        "src_sha256": sources.hexdigest(),
    }


# ------------------------------------------------------------- workloads


# Share of the timed part of a run each timed command gets.
SHARES = {"command": 0.45, "privacy": 0.45, "setup": 0.10}


# The calibration loop: small numpy operations and number formatting,
# the mix of the program's rounds. Its time follows the host's speed,
# which on a shared host changes by a third from one minute to the next.
CALIBRATION_ROUNDS = 12000
# Its time at the reference speed: one vCPU of a 2-vCPU VM on a 2 GHz
# Xeon host, at the slower of the two speeds that host alternates between.
CALIBRATION_REF_S = 0.200


def calibration_loop() -> float:
    """Seconds the calibration loop takes now."""
    import numpy as np

    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((100, 100))
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(CALIBRATION_ROUNDS):
        x = rng.uniform(-1.0, 1.0, size=100)
        worst = max(worst, float(np.linalg.norm(matrix @ x)))
        ",".join(f"{v:.6g}" for v in (worst, i, x[0]))
    return time.perf_counter() - t0


def trimmed_mean(values: list[float]) -> float:
    """Mean of the samples left after dropping the lowest and the highest
    fifth (rounded down). The host alternates between a fast and a slow
    speed for seconds at a time; a median jumps from one to the other
    when their mix passes one half, a mean moves with the mix, and the
    trimming drops single stalls."""
    cut = len(values) // 5
    return statistics.fmean(sorted(values)[cut:len(values) - cut])


def measure(bench: Bench, wl, config: Path, seconds: float):
    """Time the workload's command, `dpcopt privacy` and the set-up
    probe, interleaved, until `seconds` is spent.

    An untimed `dpcopt privacy` first puts the host under load: on a
    shared host the first command after an idle spell often ran fast,
    which skews a run with few samples. Then each next command is the
    one furthest below its share of the time spent (SHARES) among those
    whose longest duration yet, calibration included, still fits before
    `seconds`; while the command has run only once, others must also
    leave room for it, because a second run checks the replay. So the
    run ends within `seconds` and every metric's samples spread over
    all of it.

    The calibration loop runs before every command. The times are
    rescaled by CALIBRATION_REF_S over the loop's trimmed mean time,
    which takes out most of the host's changes of speed between runs."""
    warm = bench.cli(privacy_args(config), bench.out / "warmup", "warmup.privacy")
    check_privacy(warm, wl)
    reps: list[Child] = []
    privacy: list[Child] = []
    probes: list[dict] = []
    calibration: list[float] = []
    spent = dict.fromkeys(SHARES, 0.0)
    longest = dict.fromkeys(SHARES, 0.0)
    start = time.perf_counter()
    end = start + seconds

    def run_one(kind: str) -> None:
        t0 = time.perf_counter()
        calibration.append(calibration_loop())
        if kind == "command":
            i = len(reps)
            source = config
            if reps:  # replay the first repetition's metadata.json
                source = reps[0].output_root / wl.config["outputs"] / "metadata.json"
            reps.append(bench.cli([wl.command, source], bench.out / f"rep{i}",
                                  f"rep{i}.{wl.command}"))
        elif kind == "privacy":
            i = len(privacy)
            privacy.append(bench.cli(privacy_args(config), bench.out / f"privacy{i}",
                                     f"privacy{i}"))
        else:
            probes.append(bench.probe(config, f"setup{len(probes)}"))
        took = time.perf_counter() - t0
        spent[kind] += took
        longest[kind] = max(longest[kind], took)

    for kind in SHARES:  # one of each, to learn their durations
        run_one(kind)
    while time.monotonic() + 2 * longest["command"] < bench.deadline:
        left = end - time.perf_counter()
        need = longest["command"] if len(reps) < 2 else 0.0
        fits = [
            kind for kind in SHARES
            if longest[kind] + (0.0 if kind == "command" else need) <= left
        ]
        if not fits:
            break
        run_one(min(fits, key=lambda kind: spent[kind] / SHARES[kind]))

    first = check_outputs(reps[0], wl, None)
    for child in reps[1:]:
        check_outputs(child, wl, first)
    for child in privacy:
        check_privacy(child, wl)
    samples = {
        "wall_s": [c.wall_s for c in reps],
        "cpu_s": [c.cpu_s for c in reps],
        "setup_s": [p["setup_s"] for p in probes if p],
        "privacy_s": [c.wall_s for c in privacy],
        "peak_rss_mb": [c.rss_mb for c in reps],
        "calibration_s": calibration,
    }
    raw = {k: trimmed_mean(v) if v else 0.0 for k, v in samples.items()}
    speed = CALIBRATION_REF_S / raw["calibration_s"]
    metrics = {k: raw[k] * speed for k in ("wall_s", "cpu_s", "setup_s", "privacy_s")}
    metrics["peak_rss_mb"] = raw["peak_rss_mb"]
    probe = next((p for p in probes if p), {})
    metrics["tx_bits"] = probe.get("tx_bits", 0)
    if wl.command == "run" and first:
        cum_bits = int(first.decode("utf-8").splitlines()[-1].split(",")[4])
        if cum_bits != metrics["tx_bits"]:
            reps[0].problems.append(f"final cum_bits {cum_bits} != {metrics['tx_bits']}")
        metrics["tx_bits"] = cum_bits
    metrics["final_grad_norm"] = (
        final_grad_norm(wl, reps[0].output_root, first) if first else 0.0
    )
    notes = [
        f"{len(reps)} {wl.command}, {len(privacy)} privacy and {len(probes)} set-up "
        f"samples in {time.perf_counter() - start:.1f} s",
        f"calibration loop {raw['calibration_s']:.4f} s (reference "
        f"{CALIBRATION_REF_S} s); before rescaling: wall_s {raw['wall_s']:.4f} s, "
        f"cpu_s {raw['cpu_s']:.4f} s, setup_s {raw['setup_s']:.4f} s, "
        f"privacy_s {raw['privacy_s']:.4f} s",
    ]
    if first:
        notes.append(digest_note(wl, first))
    details = {"samples": samples, "unscaled": raw, "probe": probe}
    return metrics, details, notes


def trace(bench: Bench, wl, config: Path):
    """The command once untraced and once traced, then privacy traced;
    the per-layer metrics come from the traced processes' spans."""
    from layers import Spans, layer_metrics, per_call_table

    plain_root, traced_root = bench.out / "untraced", bench.out / "traced"
    spans_main = bench.out / "spans.main.npz"
    spans_privacy = bench.out / "spans.privacy.npz"
    plain = bench.cli([wl.command, config], plain_root, f"untraced.{wl.command}")
    traced = bench.traced_cli(
        spans_main, [wl.command, config], traced_root, f"traced.{wl.command}"
    )
    privacy = bench.traced_cli(
        spans_privacy, privacy_args(config), traced_root / "privacy", "traced.privacy"
    )
    first = check_outputs(plain, wl, None)
    check_outputs(traced, wl, first)  # tracing must not change the outputs
    check_privacy(privacy, wl)
    probe = bench.probe(config, "setup")

    spans = []
    for child, path in ((traced, spans_main), (privacy, spans_privacy)):
        try:
            spans.append(Spans.load(path))
        except OSError as exc:
            child.problems.append(f"no spans written: {exc}")
            continue
        busy = float(spans[-1].self_time.sum())
        if busy > child.wall_s:
            child.problems.append(
                f"self times {busy:.3f} s exceed the traced wall {child.wall_s:.3f} s"
            )
    metrics = layer_metrics(spans)
    if wl.command == "sweep":
        metadata = traced_root / wl.config["outputs"] / "metadata.json"
        failures = []
        if metadata.is_file():
            failures = json.loads(metadata.read_text(encoding="utf-8"))["failures"]
        metrics["runner.failed_cells"] = len(failures)
    else:
        metrics["runner.failed_cells"] = int(bool(traced.problems))
    metrics["trace.wall_s"] = traced.wall_s + privacy.wall_s
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    table = per_call_table(spans)
    notes = [
        f"untraced {wl.command} {plain.wall_s:.3f} s, traced {traced.wall_s:.3f} s, "
        f"traced privacy {privacy.wall_s:.3f} s",
        f"layer self times sum to {metrics['trace.self_sum_s']:.3f} s "
        f"of {metrics['trace.wall_s']:.3f} s traced wall",
        "cost per call (busy = self time):",
        f"  {'function':36} {'calls':>9} {'busy s':>9} "
        f"{'busy us/call':>13} {'incl us/call':>13}",
    ]
    for row in table:
        notes.append(
            f"  {row['function']:36} {row['calls']:9d} {row['self_s']:9.4f} "
            f"{row['self_us_per_call']:13.2f} {row['incl_us_per_call']:13.2f}"
        )
    return metrics, {"per_call": table, "probe": probe}, notes


# ------------------------------------------------------------------ main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    if not (ROOT / "src" / "dpcopt" / "__init__.py").is_file() or not (
        ROOT / "configs"
    ).is_dir():
        print(f"no dpcopt sources under {ROOT}: run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    load_before = os.getloadavg()
    out = BENCH_DIR / "out" / f"{args.workload}.seed{args.seed}.trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    wl = make_workload(args.workload, args.seed, ROOT)
    config = out / "config.json"
    config.write_text(json.dumps(wl.config, indent=1) + "\n", encoding="utf-8")

    bench = Bench(out, started)
    # Compile the package's bytecode before anything is timed.
    bench.child(["-c", "import dpcopt"], out, "warmup")
    if args.trace:
        metrics, details, notes = trace(bench, wl, config)
    else:
        metrics, details, notes = measure(bench, wl, config, args.seconds)
    env = environment(details["probe"], load_before)
    if set(metrics) != set(units):
        mismatch = sorted(set(metrics) ^ set(units))
        raise RuntimeError(f"metrics {mismatch} disagree with BENCHMARK.json")

    attempted, failed = len(bench.children), bench.failed
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = dict(
        result, workload=wl.name, seed=args.seed, trace=args.trace, env=env, **details
    )
    (out / "result.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8"
    )

    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}: {notes[0]}")
    for line in notes[1:]:
        print(line)
    for name, unit in units.items():
        print(f"{name:32} {metrics[name]:>16.6g} {unit}")
    print(f"{'failed_ops':32} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} commands)")
    for child in bench.children:
        for problem in child.problems:
            print(f"FAILED {child.log}: {problem}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
