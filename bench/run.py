#!/usr/bin/env python3
"""dpem benchmark: batch-experiment workloads driven through the real CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root.  One closed-loop client issues the workload's
CLI commands one after another, each in its own ``python -m dpem.cli``
process with ``src`` on ``PYTHONPATH``, as a user runs them, and repeats the
sequence until ``--seconds`` have passed (at least twice, so that repeated
outputs can be compared byte for byte).  The seed goes to the commands'
``--seed``; dpem sees only the inputs it generates from it.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json (medians
over repetitions).  ``--trace 1`` alternates untraced repetitions with traced
ones, in which every command runs under ``bench/traced_cli.py``, and reports
the per-layer metrics: self times and exact counts per ``src/dpem`` module.

Every command must exit 0 and every output check must pass; each command and
each check counts once in ``attempted``, and each failure once in ``failed``.
The last line of standard output is the result JSON; the line before it
holds the environment.  A details file with every repetition, command and
check goes to ``.bench/results/``.  ``--smoke`` runs tiny sizes through the
same code path for the benchmark's own tests and reports no metrics.

The program must be present: without ``src/dpem`` the script exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter

from tracer import self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench"

# The invocation must end within 180 s; no repetition starts that could
# not finish before this, and every command is killed at it.
DEADLINE_S = 170.0
# Set-up runs this many times and reports its median.
SETUPS = 3


@dataclass
class Plan:
    """One workload at one seed: commands, outputs and the expected grid."""

    setup: list[list[str]]  # dpem arguments run in each set-up
    steps: list[tuple[str, list[str]]]  # (role, dpem arguments) per repetition
    results: Path
    summary: Path
    hashed: list[Path]  # outputs that must repeat byte for byte
    model: str
    algorithm: str
    cells: list[tuple]  # (n, d, eps, C) with "" where the column is empty
    seeds: list[int]
    iters: dict[int, int]  # n -> T

    @property
    def fits(self) -> int:
        return len(self.cells) * len(self.seeds)


def _auto_iters(n: int) -> int:
    # documented meaning of --iters auto: ceil(ln n)
    return max(1, math.ceil(math.log(n)))


def _join(values) -> str:
    return ",".join(str(v) for v in values)


def sweep_mrm(work: Path, seed: int, smoke: bool) -> Plan:
    n_list, d_list, eps_list, n_seeds = (
        ((300,), (3,), (0.5, 1.0), 2) if smoke
        else ((2000, 8000), (5, 10, 20), (0.2, 0.5, 1.0), 10)
    )
    results, summary = work / "sweep.csv", work / "sweep_summary.csv"
    return Plan(
        setup=[],
        steps=[
            ("fit", ["sweep", "--model", "mrm", "--algorithm", "dpgem",
                     "--n-list", _join(n_list), "--d-list", _join(d_list),
                     "--eps-list", _join(eps_list), "--n-seeds", str(n_seeds),
                     "--threads", "2", "--seed", str(seed), "--out", str(results)]),
            ("report", ["report", "--data", str(results), "--out", str(summary)]),
        ],
        results=results, summary=summary, hashed=[results, summary],
        model="mrm", algorithm="dpgem",
        cells=[(n, d, eps, "") for n in n_list for d in d_list for eps in eps_list],
        seeds=[seed + k for k in range(n_seeds)],
        iters={n: _auto_iters(n) for n in n_list},
    )


def dpem_gmm(work: Path, seed: int, smoke: bool) -> Plan:
    n, d, iters, n_seeds = (500, 5, 3, 2) if smoke else (5000, 50, 10, 8)
    data = work / "gmm.csv"
    results, summary = work / "gmm_results.csv", work / "gmm_summary.csv"
    return Plan(
        setup=[["gen", "--model", "gmm", "--n", str(n), "--d", str(d),
                "--seed", str(seed), "--out", str(data)]],
        steps=[
            # tau=auto scales with max|beta*|; a fixed tau keeps the noise
            # scale, and so the error, from following the draw of beta*
            ("fit", ["run", "--algorithm", "dpem", "--data", str(data), "--tau", "9",
                     "--iters", str(iters), "--n-seeds", str(n_seeds), "--threads", "2",
                     "--seed", str(seed), "--out", str(results)]),
            ("report", ["report", "--data", str(results), "--out", str(summary)]),
        ],
        results=results, summary=summary, hashed=[results, summary],
        model="gmm", algorithm="dpem",
        cells=[(n, d, 1.0, "")],  # run defaults: --eps 1.0; dpem has no clip
        seeds=[seed + k for k in range(n_seeds)],
        iters={n: iters},
    )


def pipeline_rmc(work: Path, seed: int, smoke: bool) -> Plan:
    n, d, n_seeds = (500, 4, 2) if smoke else (25000, 20, 8)
    data = work / "rmc.csv"
    results, summary = work / "rmc_results.csv", work / "rmc_summary.csv"
    return Plan(
        setup=[],
        steps=[
            ("gen", ["gen", "--model", "rmc", "--n", str(n), "--d", str(d),
                     "--p-m", "0.2", "--seed", str(seed), "--out", str(data)]),
            ("fit", ["run", "--algorithm", "clipped", "--data", str(data),
                     "--n-seeds", str(n_seeds), "--seed", str(seed),
                     "--out", str(results)]),
            ("report", ["report", "--data", str(results), "--out", str(summary)]),
        ],
        results=results, summary=summary, hashed=[data, results, summary],
        model="rmc", algorithm="clipped",
        cells=[(n, d, 1.0, 1.0)],  # run defaults: --eps 1.0 --clip 1.0
        seeds=[seed + k for k in range(n_seeds)],
        iters={n: _auto_iters(n)},
    )


WORKLOADS = {"sweep-mrm": sweep_mrm, "dpem-gmm": dpem_gmm, "pipeline-rmc": pipeline_rmc}


# ------------------------------------------------------------------ running


@dataclass
class Command:
    role: str
    args: list[str]
    wall_s: float
    rss_mb: float
    exit_code: int
    log: str
    spans: Path | None = None


@dataclass
class Rep:
    traced: bool
    commands: list[Command] = field(default_factory=list)
    wall_s: float = 0.0
    ok: bool = False
    rows: list[dict] | None = None


class Runner:
    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
        self.count = 0

    def command(self, role: str, args: list[str], spans: Path | None = None) -> Command:
        """Run one dpem command in its own process; wall time from spawn to
        reap, peak RSS of that child from wait4."""
        self.count += 1
        log = self.work / f"cmd{self.count:03d}.log"
        if spans is None:
            argv = [sys.executable, "-m", "dpem.cli", *args]
        else:
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(spans), log.stem, *args]
        timeout = max(1.0, self.deadline - perf_counter())
        with log.open("w") as fh:
            started = perf_counter()
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Command(role, args, wall, usage.ru_maxrss / 1024.0, proc.returncode,
                       log.read_text()[-2000:], spans)


class Tally:
    """Attempted and failed operations: commands and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: " + "; ".join(problems[:5]))
        return not problems

    @property
    def failed(self) -> int:
        return len(self.failures)


def _sha256(path: Path) -> str | None:
    """Content hash, or None for a missing file (which then never matches)."""
    if not path.is_file():
        return None
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _empty_or_float(value):
    return "" if value == "" else float(value)


def check_results(plan: Plan, rows: list[dict]) -> list[str]:
    """Exactly cells x seeds x (T+1) rows on the expected grid, finite errors."""
    expected = {
        (n, d, eps, c, s, it)
        for (n, d, eps, c) in plan.cells for s in plan.seeds
        for it in range(plan.iters[n] + 1)
    }
    got = [(r["n"], r["d"], r["eps"], r["C"], r["seed"], r["iter"]) for r in rows]
    problems = []
    if len(got) != len(expected):
        problems.append(f"{len(got)} rows, expected {len(expected)}")
    if set(got) != expected:
        problems.append(f"{len(expected - set(got))} expected rows missing, "
                        f"{len(set(got) - expected)} unexpected")
    for r in rows:
        if not math.isfinite(r["error"]):
            problems.append(f"non-finite error in row {r}")
            break
        if (r["model"], r["algorithm"]) != (plan.model, plan.algorithm) \
                or r["T"] != plan.iters.get(r["n"]):
            problems.append(f"unexpected model, algorithm or T in row {r}")
            break
    return problems


def check_summary(plan: Plan, rows: list[dict]) -> list[str]:
    """One summary row per cell and iteration whose median is the median
    of the result rows it summarises."""
    groups: dict[tuple, list[float]] = {}
    for r in rows:
        groups.setdefault((r["n"], r["d"], r["eps"], r["C"], r["iter"]), []).append(r["error"])
    with plan.summary.open(newline="") as fh:
        summary = list(csv.DictReader(fh))
    problems = []
    if len(summary) != len(groups):
        problems.append(f"{len(summary)} summary rows, expected {len(groups)}")
    for s in summary:
        key = (int(s["n"]), int(s["d"]), _empty_or_float(s["eps"]),
               _empty_or_float(s["C"]), int(s["iter"]))
        errors = groups.get(key)
        if errors is None:
            problems.append(f"summary row for unknown cell {key}")
            continue
        if int(s["n_seeds"]) != len(errors) or not math.isclose(
                float(s["median_error"]), statistics.median(errors),
                rel_tol=1e-12, abs_tol=1e-300):
            problems.append(f"summary row {key} does not match its result rows")
    return problems


def run_rep(plan: Plan, runner: Runner, tally: Tally, traced: bool,
            reference: dict, dpem_io) -> Rep:
    rep = Rep(traced)
    started = perf_counter()
    for role, args in plan.steps:
        spans = runner.work / f"spans{runner.count + 1:03d}.json" if traced else None
        cmd = runner.command(role, args, spans)
        rep.commands.append(cmd)
        if not tally.record(f"{role} exited {cmd.exit_code}",
                            [cmd.log] if cmd.exit_code else []):
            return rep
    rep.wall_s = perf_counter() - started

    # a broken program can fail these reads in any way; each failure is
    # recorded as a failed check and the benchmark goes on to report it
    try:
        rep.rows = dpem_io.read_results(plan.results)
        problems = check_results(plan, rep.rows)
    except Exception as exc:
        problems = [f"read_results: {exc!r}"]
    ok = tally.record("result rows", problems)
    if ok:
        try:
            problems = check_summary(plan, rep.rows)
        except Exception as exc:
            problems = [f"summary: {exc!r}"]
        ok = tally.record("summary rows", problems) and ok
    hashes = {p.name: _sha256(p) for p in plan.hashed}
    if reference:
        ok = tally.record("byte-identical outputs", [
            f"{name} differs from the first repetition"
            for name, h in hashes.items() if h is None or reference[name] != h]) and ok
    else:
        reference.update(hashes)
    rep.ok = ok
    return rep


def run_setup(plan: Plan, runner: Runner, tally: Tally, reference: dict) -> float | None:
    """Warm-up import plus the inputs that are not on the measured path."""
    started = perf_counter()
    for args in [["--help"], *plan.setup]:
        cmd = runner.command("setup", args)
        if not tally.record(f"setup {args[0]} exited {cmd.exit_code}",
                            [cmd.log] if cmd.exit_code else []):
            return None
    elapsed = perf_counter() - started
    for args in plan.setup:
        out = Path(args[args.index("--out") + 1])
        digest = _sha256(out)
        if out.name in reference:
            tally.record("byte-identical set-up",
                         [] if digest is not None and reference[out.name] == digest
                         else [f"{out.name} differs between set-ups"])
        reference[out.name] = digest
    return elapsed


# ------------------------------------------------------------------ metrics


def end_to_end(plan: Plan, reps: list[Rep], setups: list[float]) -> dict[str, float]:
    def role(rep, name):
        return next(c for c in rep.commands if c.role == name)

    good = [r for r in reps if r.ok]
    if not good or not setups:
        return {}
    finals = [r["error"] for r in good[0].rows if r["iter"] == plan.iters[r["n"]]]
    med = statistics.median
    return {
        "wall_s": med(r.wall_s for r in good),
        "fit_cmd_s": med(role(r, "fit").wall_s for r in good),
        "report_s": med(role(r, "report").wall_s for r in good),
        "fits_per_s": med(plan.fits / role(r, "fit").wall_s for r in good),
        "peak_rss_mb": med(max(c.rss_mb for c in r.commands) for r in good),
        "setup_s": med(setups),
        "final_error_median": med(finals),
    }


def _nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def per_layer(rep: Rep) -> tuple[dict[str, float], list[dict]]:
    """Per-layer metrics of one traced repetition, and per-command accounting
    of its wall time: import + span self times - sibling overlap + remainder."""
    calls: dict[str, int] = {}
    selfs: dict[str, float] = {}
    counts = {"entries": 0, "near": 0, "far": 0, "rng_splits": 0}
    io_bytes: dict[str, int] = {}
    fit_ms: list[float] = []
    iterations = 0
    imports = []
    pool_busy_frac = 0.0
    accounting = []
    for cmd in rep.commands:
        payload = json.loads(cmd.spans.read_text())
        spans = payload["spans"]
        self_s, overlap = self_times(spans)
        busy = threads = 0
        root = next(s for s in spans if s["parent"] == 0 and s["name"].startswith("cli."))
        by_layer: dict[str, float] = {}
        for s in spans:
            name, attrs, duration = s["name"], s["attrs"] or {}, s["end"] - s["start"]
            calls[name] = calls.get(name, 0) + 1
            selfs[name] = selfs.get(name, 0.0) + self_s[s["id"]]
            by_layer[name] = by_layer.get(name, 0.0) + self_s[s["id"]]
            if name == "robust.robust_mean_columns":
                for key in ("entries", "near", "far"):
                    counts[key] += attrs[key]
            if name.startswith("io."):
                io_bytes[name] = io_bytes.get(name, 0) + attrs.get("bytes", 0)
            if name.startswith("estimators."):
                fit_ms.append(duration * 1e3)
                iterations += attrs["iterations"]
            if name == "cli.worker":
                busy += duration
            if name == "cli.pool":
                threads = attrs["threads"]
        counts["rng_splits"] += payload["counters"].get("numeric.rng_splits", 0)
        imports.append(payload["import_s"])
        root_s = root["end"] - root["start"]
        if cmd.role == "fit" and threads:
            pool_busy_frac = busy / (threads * root_s)
        spans_s = sum(self_s.values()) - overlap  # == root span duration
        accounting.append({
            "role": cmd.role, "wall_s": cmd.wall_s, "import_s": payload["import_s"],
            "self_s": by_layer, "overlap_s": overlap, "spans_s": spans_s,
            "remainder_s": cmd.wall_s - payload["import_s"] - spans_s,
            "patched": len(payload["patched"]), "missing": payload["missing"],
        })

    def rate(name):
        return io_bytes.get(name, 0) / 1e6 / selfs[name] if selfs.get(name) else 0.0

    kernel_s = selfs.get("robust.robust_mean_columns", 0.0)
    metrics = {
        "robust.robust_mean_columns_calls": calls.get("robust.robust_mean_columns", 0),
        "robust.robust_mean_columns_s": kernel_s,
        "robust.entries": counts["entries"],
        "robust.entries_per_s": counts["entries"] / kernel_s if kernel_s else 0.0,
        "robust.near_entries": counts["near"],
        "robust.far_entries": counts["far"],
        "robust.far_frac": counts["far"] / counts["entries"] if counts["entries"] else 0.0,
        "numeric.sample_gaussian_calls": calls.get("numeric.sample_gaussian", 0),
        "numeric.sample_gaussian_s": selfs.get("numeric.sample_gaussian", 0.0),
        "numeric.rng_splits": counts["rng_splits"],
        "models.grad_q_batch_calls": calls.get("models.grad_q_batch", 0),
        "models.grad_q_batch_s": selfs.get("models.grad_q_batch", 0.0),
        "models.f_gmm_batch_s": selfs.get("models.f_gmm_batch", 0.0),
        "models.take_s": selfs.get("models.take", 0.0),
        "models.sample_observations_s": selfs.get("models.sample_observations", 0.0),
        "io.write_dataset_s": selfs.get("io.write_dataset", 0.0),
        "io.write_dataset_mb_per_s": rate("io.write_dataset"),
        "io.read_dataset_s": selfs.get("io.read_dataset", 0.0),
        "io.read_dataset_mb_per_s": rate("io.read_dataset"),
        "io.write_results_s": selfs.get("io.write_results", 0.0),
        "io.read_results_s": selfs.get("io.read_results", 0.0),
        "io.write_summary_s": selfs.get("io.write_summary", 0.0),
        "cli.import_s": statistics.median(imports),
        "cli.self_s": sum(v for k, v in selfs.items() if k.startswith("cli.")),
        "cli.pool_busy_frac": pool_busy_frac,
        "estimators.fits": len(fit_ms),
        "estimators.iterations": iterations,
        "estimators.fit_ms_p50": statistics.median(fit_ms) if fit_ms else 0.0,
        "estimators.fit_ms_p90": _nearest_rank(fit_ms, 0.9) if fit_ms else 0.0,
        "estimators.fit_samples": len(fit_ms),
        "estimators.self_s": sum(v for k, v in selfs.items() if k.startswith("estimators.")),
        "accounting.calls": sum(v for k, v in calls.items() if k.startswith("accounting.")),
        "trace.counters_s": selfs.get("trace.counters", 0.0),
        "trace.remainder_s": sum(a["remainder_s"] for a in accounting),
    }
    return metrics, accounting


# --------------------------------------------------------------------- main


def environment(seed: int) -> dict:
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "not installed"

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = out.stdout.strip() if out.returncode == 0 else "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "platform": platform.platform(),
        "git_commit": commit,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for the benchmark's own tests; no metrics")
    args = parser.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "dpem" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no dpem program under {SRC} (or no BENCHMARK.json); "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    from dpem import io as dpem_io

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        plan = WORKLOADS[args.workload](work, args.seed, args.smoke)
        runner, tally = Runner(work, deadline), Tally()

        setups, setup_reference, reference = [], {}, {}
        for _ in range(SETUPS):
            elapsed = run_setup(plan, runner, tally, setup_reference)
            if elapsed is None:
                break
            setups.append(elapsed)

        # closed loop: the next repetition starts when the previous one has
        # been checked, and only if it can end within --seconds (or the
        # minimum of two, one traced, is not reached yet)
        reps: list[Rep] = []
        spent: list[float] = []
        started = perf_counter()
        while setups:
            traced = [r for r in reps if r.traced]
            enough = len(reps) >= 2 and (not args.trace or traced)
            now = perf_counter()
            typical = statistics.median(spent) if spent else 0.0
            if enough and now - started + typical > args.seconds:
                break
            if now + 1.5 * max(spent, default=0.0) > deadline:
                break
            want_traced = bool(args.trace) and len(traced) < len(reps) - len(traced)
            rep = run_rep(plan, runner, tally, want_traced, reference, dpem_io)
            reps.append(rep)
            spent.append(perf_counter() - now)
            if not rep.ok:
                break

        plain = [r for r in reps if not r.traced]
        traced = [r for r in reps if r.traced and r.ok]
        e2e = end_to_end(plan, plain, setups)
        layers, accounting = {}, []
        if traced:
            per_rep = [per_layer(r) for r in traced]
            # median_low: a value one traced repetition measured; counts stay whole
            layers = {k: statistics.median_low(m[k] for m, _ in per_rep) for k in per_rep[0][0]}
            accounting = per_rep[0][1]
            if e2e:
                layers["trace.overhead_s"] = (
                    statistics.median(r.wall_s for r in traced) - e2e["wall_s"])

        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        values = layers if args.trace else e2e
        missing = [m["name"] for m in wanted if m["name"] not in values]
        tally.record("metrics measured", [f"missing {', '.join(missing)}"] if missing else [])
        metrics = {} if args.smoke else {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted if m["name"] in values
        }
        env = environment(args.seed)
        why = next((w["why"] for w in spec["workloads"] if w["name"] == args.workload), "")
        details = {
            "workload": args.workload, "why": why, "env": env, "smoke": args.smoke,
            "trace": args.trace, "seconds": args.seconds, "fits": plan.fits,
            "setup_s": setups, "failures": tally.failures,
            "reps": [{"traced": r.traced, "ok": r.ok, "wall_s": r.wall_s,
                      "commands": [{"role": c.role, "args": c.args, "wall_s": c.wall_s,
                                    "rss_mb": c.rss_mb, "exit_code": c.exit_code}
                                   for c in r.commands]} for r in reps],
            "end_to_end": e2e, "per_layer": layers, "trace_accounting": accounting,
        }
        results_dir = OUT / "results"
        results_dir.mkdir(parents=True, exist_ok=True)
        details_path = results_dir / f"{tag}.json"
        details_path.write_text(json.dumps(details, indent=1) + "\n")
        print(json.dumps({"env": env, "workload": args.workload, "why": why,
                          "smoke": args.smoke, "details": str(details_path.relative_to(ROOT))}))
        print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                          "failed": tally.failed, "metrics": metrics}))
        for failure in tally.failures:
            print(f"failed: {failure}", file=sys.stderr)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
