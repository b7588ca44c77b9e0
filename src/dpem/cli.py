"""Benchmark harness: generate datasets, execute runs and sweeps, preprocess
labeled data, and summarize result rows.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
non-convergence.  Any option can also be supplied from a ``--config`` file
of ``key = value`` lines (dotted ``command.key`` entries bind to a single
subcommand); explicit flags win over the file, and both pass the same parser.

Each command imports the library modules it runs, and with them numpy, at the
top of its body, so ``report`` and ``--help`` load neither; a command forks
only after that, so its children inherit them.  ``gen`` and ``preprocess``
load the models and ``dpem.numeric`` but no fitting module; ``run`` and
``sweep`` add ``dpem.estimators`` and ``dpem.accounting``, and only their
dpgem and dpem fits load the kernel, ``dpem.robust`` (and numpy.polynomial
on its first far-regime entry), which the command imports before it reads
data or forks, so that no worker compiles it again.  ``run`` fits its
seeds on ``--threads`` worker processes, at most one per seed and per CPU:
its own and children it forks, each with a fixed share of the seeds
(``_run_parallel``).  ``sweep`` hands its tasks out from a pool of forked
processes (``_run_forked``).
``gen``, ``run`` and ``preprocess`` also fork one child to write or parse
half of a dataset file of more than one block (see ``dpem.io``).

Before any command runs, the group marks OpenSSL's ``_hashlib`` absent,
unless the process already loaded it, and takes its mark back when the
command's context closes.  numpy.random imports ``secrets`` and so hashlib,
which would otherwise map libcrypto into every process that draws, though
no command hashes.  hashlib, imported during the command, then works on
CPython's builtin hashes; a later ``import _hashlib`` in the process loads
OpenSSL.

Processes are dpem's parallelism, so no idle BLAS threads should run beside
them: importing this module sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1, whatever the caller exported, before any command loads
numpy.  No result path calls BLAS, so the pin moves no result bit, and a
process that loaded numpy before this module keeps its BLAS threads and
writes the same bytes.
"""

from __future__ import annotations

import math
import os
import sys
import time

import click

from . import io
from .base import ALGORITHMS, MODEL_KINDS
from .errors import ConfigError, ConvergenceError, DataError, DomainError

os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                                "1"))


# ---------------------------------------------------------------- option glue


def _as_int(name: str, value) -> int:
    if (number := io._number(str(value), int)) is None:
        raise ConfigError(f"{name}: expected an integer, got {value!r}")
    return number


def _as_count(name: str, value) -> int:
    count = _as_int(name, value)
    if count < 1:
        raise ConfigError(f"{name}: expected an integer >= 1, got {count}")
    return count


def _as_float(name: str, value) -> float:
    if (number := io._number(str(value))) is None:
        raise ConfigError(f"{name}: expected a number, got {value!r}")
    return number


def _as_bool(name: str, value) -> bool:
    if isinstance(value, bool):
        return value
    text = str(value).lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{name}: expected a boolean, got {value!r}")


def _as_list(name: str, value, parse) -> tuple:
    parts = [p.strip() for p in str(value).split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{name}: expected a nonempty comma-separated list")
    values = tuple(parse(name, p) for p in parts)
    if len(set(values)) < len(values):  # after parsing, so 1,1.0 is a repeat
        raise ConfigError(f"{name}: expected distinct values, got {value!r}")
    return values


def _or_auto(parse):
    """parse, except that the text auto stays "auto"."""
    return lambda name, value: "auto" if str(value) == "auto" else parse(name, value)


def _flag(param) -> str:
    """An option's flag name without its dashes: n-seeds for --n-seeds."""
    return param.opts[0][2:]


class _Parsed(click.ParamType):
    """A click type that parses with one of the ``_as_*`` parsers above.  A
    value from a flag, a config file or the declared default passes through
    it, and a bad one raises ConfigError naming the flag."""

    def __init__(self, name: str, parse):
        self.name, self.parse = name, parse

    def convert(self, value, param, ctx):
        return self.parse(_flag(param), value)


INT = _Parsed("integer", _as_int)
COUNT = _Parsed("count", _as_count)
FLOAT = _Parsed("number", _as_float)
BOOL = _Parsed("boolean", _as_bool)
AUTO_FLOAT = _Parsed("auto|number", _or_auto(_as_float))
AUTO_INT = _Parsed("auto|integer", _or_auto(_as_int))
INT_LIST = _Parsed("integers", lambda name, value: _as_list(name, value, _as_int))
FLOAT_LIST = _Parsed("numbers", lambda name, value: _as_list(name, value, _as_float))


def _config_defaults(ctx, param, path) -> None:
    """Make the --config file click's default map.  Click ranks a flag on
    the command line above the map and the map above the declared default;
    a dotted ``command.key`` wins over the bare ``key``."""
    if not path:
        return
    cfg = io.parse_config_file(path)
    defaults = {}
    for option in ctx.command.params:
        for key in (_flag(option), f"{ctx.command.name}.{_flag(option)}"):
            if option.expose_value and key in cfg:
                defaults[option.name] = cfg[key]
    ctx.default_map = defaults


config_option = click.option(
    "--config", type=click.Path(exists=True, dir_okay=False), is_eager=True,
    expose_value=False, callback=_config_defaults,
)


def _check_model(value: str) -> str:
    if value not in MODEL_KINDS:
        raise ConfigError(f"model: expected one of {MODEL_KINDS}, got {value!r}")
    return value


def _check_algorithm(value: str, model_kind: str) -> str:
    if value not in ALGORITHMS:
        raise ConfigError(f"algorithm: expected one of {ALGORITHMS}, got {value!r}")
    if value == "dpem" and model_kind != "gmm":
        raise ConfigError("algorithm: dpem applies to the gmm model only")
    return value


def _fit_flags(n_seeds: str):
    """The click options shared by run and sweep."""
    options = [
        click.option("--algorithm", default="dpgem", help=f"one of {'|'.join(ALGORITHMS)}"),
        click.option("--delta", default="auto", type=AUTO_FLOAT, help="'auto' means n^-1.1"),
        click.option("--eta", default="1.0", type=FLOAT),
        click.option("--iters", default="auto", type=AUTO_INT,
                     help="'auto' means ceil(ln n)"),
        click.option("--tau", default="auto", type=AUTO_FLOAT),
        click.option("--zeta", default="0.05", type=FLOAT),
        click.option("--shuffle", default="true", type=BOOL),
        click.option("--seed", default="0", type=INT),
        click.option("--n-seeds", default=n_seeds, type=COUNT),
        click.option("--threads", default="1", type=COUNT,
                     help="worker processes, at most one per task and CPU, and no "
                          "BLAS threads beside them: run forks all but one and fits a "
                          "share itself; sweep forks a pool"),
        click.option("--out", required=True, type=click.Path(dir_okay=False)),
        click.option("--unsafe-no-noise", is_flag=True, default=False, type=BOOL,
                     help="disable privacy noise; output is NOT private"),
        click.option("--timing", is_flag=True, default=False, type=BOOL,
                     help="record real wall_ms (non-reproducible)"),
        config_option,
    ]

    def decorate(func):
        for option in reversed(options):
            func = option(func)
        return func

    return decorate


def _load_kernel(algorithm: str) -> None:
    """Import dpem.robust for the robust fits, before the command forks."""
    if algorithm in ("dpgem", "dpem"):
        from . import robust  # noqa: F401


def _warn_if_no_noise(fit: dict) -> None:
    if fit["unsafe_no_noise"]:
        click.echo("NON-PRIVATE: noise injection disabled", err=True)


def _meta_field(meta: dict, key: str, convert):
    """convert(meta[key]), or a data error naming a missing or bad key."""
    try:
        return convert(meta[key])
    except KeyError:
        raise DataError(f"metadata: missing key {key!r}") from None
    except (TypeError, ValueError, OverflowError):
        raise DataError(f"metadata: bad {key} value {meta[key]!r}") from None


def _number(value) -> float:
    """A JSON number such as 1 or 1.5 as a float; not true, "1.0" or null."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(value)
    return float(value)


def _vector(value) -> list[float]:
    """A flat JSON list of numbers as floats."""
    if not isinstance(value, list):
        raise TypeError(value)
    return [_number(v) for v in value]


def _whole(value) -> int:
    """A JSON integer such as 50 or 50.0; not 50.7, "50", true or Infinity."""
    if isinstance(value, bool) or int(value) != value:
        raise ValueError(value)
    return int(value)


# ------------------------------------------------------------------- running


def _fit_rows(fit: dict, algorithm, data, model, beta0, rng, truth, *, eps, clip,
              seed, public_truth=True) -> list[dict]:
    """Fit one cell: one result row per iterate, with eps, delta, T and C from
    the trace (empty if unset).  fit holds the options run and sweep share."""
    from .estimators import run_algorithm

    started = time.perf_counter()
    trace = run_algorithm(
        algorithm, data, model, beta0, rng, truth, iters=fit["iters"], eta=fit["eta"],
        eps=eps, delta=fit["delta"], clip=clip, tau=fit["tau"], zeta=fit["zeta"],
        shuffle=fit["shuffle"], disable_noise=fit["unsafe_no_noise"],
        public_truth=public_truth,
    )
    wall_ms = (time.perf_counter() - started) * 1e3 if fit["timing"] else 0.0
    return [{
        "model": model.kind,
        "algorithm": algorithm,
        "eps": trace.config.get("eps", ""),
        "delta": trace.config.get("delta", ""),
        "d": data.d,
        "n": data.n,
        "T": trace.config["T"],
        "C": trace.config.get("clip_C", ""),
        "seed": seed,
        "iter": it,
        "error": float(error),
        "wall_ms": wall_ms,
    } for it, error in enumerate(trace.errors)]


def _run_parallel(tasks, worker, threads: int) -> dict:
    """Execute worker over keyed tasks; return {key: result}.  With w =
    min(threads, len(tasks), CPUs) > 1 (io._cpus), w - 1 children forked
    by io._forked run tasks j, j + w, ... (j = 1 .. w - 1) and this process
    runs tasks 0, w, 2w, ..., so a tracer in it sees its share.  worker
    reaches the children by fork inheritance; each sends its results, or its
    error, pickled as one message when it ends, so a full pipe never stalls
    it while this process fits.  Each worker stops at its first failure, and
    the first in task order is raised: every task before it ran, so it is
    the serial path's error.  This process runs the tasks of a child that
    died, or whose message came short or does not unpickle, itself: that
    costs time, never bytes.  Otherwise the tasks run in order in this
    process."""
    workers = min(threads, len(tasks), io._cpus())
    if workers <= 1:
        return {key: worker(spec) for key, spec in tasks}
    import pickle  # before the fork, so that no child imports it
    from contextlib import ExitStack

    shares = [tasks[j::workers] for j in range(workers)]

    def run(share) -> tuple:
        """(results, None) for share run in order, or at its first failure
        (the results before it, the error)."""
        results = []
        for _, spec in share:
            try:
                results.append(worker(spec))
            except Exception as exc:
                return results, exc
        return results, None

    def child(share):
        return lambda out: io._send(out, pickle.dumps(run(share)))

    def received(pipe, share) -> tuple:
        if (message := io._receive(pipe)) is not None:
            try:
                return pickle.loads(message)
            except Exception:  # an error whose class does not unpickle
                pass
        return run(share)

    with ExitStack() as stack:
        pipes = [stack.enter_context(io._forked(child(share))) for share in shares[1:]]
        outcomes = [run(shares[0])]
        outcomes += [received(pipe, share) for pipe, share in zip(pipes, shares[1:])]
    failures = [(j + len(results) * workers, exc)
                for j, (results, exc) in enumerate(outcomes) if exc is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return {key: result for share, (results, _) in zip(shares, outcomes)
            for (key, _), result in zip(share, results)}


# the worker of a forked pool; set in each worker process by the pool's
# initializer, and None in the process that forked them
_forked_worker = None


def _install_worker(worker) -> None:
    global _forked_worker
    _forked_worker = worker


def _call_worker(spec):
    return _forked_worker(spec)


def _run_forked(tasks, worker, processes: int) -> dict:
    """_run_parallel on a pool of min(processes, len(tasks), CPUs) forked
    worker processes, which hands the tasks out as workers come free.
    worker, a closure, reaches the children by fork inheritance as the
    pool's initializer argument and is never pickled; only the specs, the
    results and a raised error cross the pipe.  The results are read in task
    order, and at the first failure in that order the tasks not yet started
    are cancelled and the error is raised, the one the serial path raises.
    One process runs the tasks on _run_parallel's serial path."""
    processes = min(processes, len(tasks), io._cpus())
    if processes <= 1:
        return _run_parallel(tasks, worker, 1)
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor

    # fork is safe here: the pool forks every worker before it starts its
    # own threads, and BLAS, pinned to one thread so as not to run idle
    # threads beside the workers, starts none (see above)
    pool = ProcessPoolExecutor(processes, mp_context=multiprocessing.get_context("fork"),
                               initializer=_install_worker, initargs=(worker,))
    try:
        futures = {key: pool.submit(_call_worker, spec) for key, spec in tasks}
        return {key: future.result() for key, future in futures.items()}
    finally:
        pool.shutdown(cancel_futures=True)


# ------------------------------------------------------------------ commands


# ParseError is a DataError
_EXIT_CODES = {ConfigError: 2, DomainError: 2, DataError: 3, OSError: 3, ConvergenceError: 4}


class _ExitCodes(click.Group):
    """Print dpem's errors and exit with their codes.  Click parses a
    subcommand's options inside Group.invoke, so a bad option value and a
    fault met in a command body exit the same way."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except tuple(_EXIT_CODES) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls)))


def _unmark_hashlib() -> None:
    """Take back the group's absent mark, unless _hashlib is loaded now."""
    if sys.modules.get("_hashlib", False) is None:
        del sys.modules["_hashlib"]


@click.group(cls=_ExitCodes)
def cli():
    """Differentially private EM benchmark harness."""
    # before any command loads numpy, whose numpy.random imports secrets and
    # so hashlib (see the module docstring); SeedSequence hashes by itself
    if "_hashlib" not in sys.modules:
        sys.modules["_hashlib"] = None
        click.get_current_context().call_on_close(_unmark_hashlib)


@cli.command("gen")
@click.option("--model", default="gmm", help=f"one of {'|'.join(MODEL_KINDS)}")
@click.option("--n", default="2000", type=INT)
@click.option("--d", default="10", type=INT)
@click.option("--snr", default="3.0", type=FLOAT, help="||beta*||_2 / sigma")
@click.option("--sigma", default="1.0", type=FLOAT)
@click.option("--p-m", default="0.0", type=FLOAT, help="rmc missingness probability")
@click.option("--seed", default="0", type=INT)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@config_option
def cmd_gen(model, n, d, snr, sigma, p_m, seed, out):
    """Generate a synthetic dataset plus its metadata sidecar."""
    from .models import ModelSpec, sample_observations
    from .numeric import RngStream, initial_beta

    model_kind = _check_model(model)
    model = ModelSpec(model_kind, d, sigma, p_m)
    root = RngStream(seed)
    beta_star = snr * sigma * initial_beta(d, root.split(0))
    data = sample_observations(model, n, beta_star, root.split(1))
    io.write_dataset(out, data)
    io.write_metadata(f"{out}.meta.json", {
        "model": model_kind,
        "n": n,
        "d": d,
        "sigma": sigma,
        "p_m": model.p_m,
        "snr": snr,
        "seed": seed,
        "beta_star": [float(v) for v in beta_star],
    })
    click.echo(f"wrote {out} and {out}.meta.json")


@cli.command("run")
@click.option("--data", "data_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--meta", "meta_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--eps", default="1.0", type=FLOAT)
@click.option("--clip", default="1.0", type=FLOAT)
@_fit_flags(n_seeds="1")
def cmd_run(data_path, meta_path, eps, clip, algorithm, seed, n_seeds, threads, out,
            **fit):
    """Run one algorithm on an existing dataset, once per seed."""
    # _fit_rows' module, imported before the data is read, so that compiling
    # it adds nothing to the peak
    from . import estimators  # noqa: F401
    from .models import ModelSpec
    from .numeric import RngStream, initial_beta
    from .validation import check_vector

    _warn_if_no_noise(fit)
    meta = io.read_metadata(meta_path or f"{data_path}.meta.json")
    model_kind = _meta_field(meta, "model", _check_model)
    algorithm = _check_algorithm(algorithm, model_kind)
    _load_kernel(algorithm)
    data = io.read_dataset(data_path, model_kind)
    for key, value in (("n", data.n), ("d", data.d)):
        if _meta_field(meta, key, _whole) != value:
            raise ConfigError(f"{key}: metadata says {meta[key]}, dataset has {value}")
    try:
        # the sidecar is data: a value out of its domain exits 3, not 2
        model = ModelSpec(model_kind, data.d, _meta_field(meta, "sigma", _number),
                          _meta_field(meta, "p_m", _number) if "p_m" in meta else 0.0)
        beta_star = _meta_field(meta, "beta_star", _vector)
        if len(beta_star) != data.d:
            raise ConfigError("beta_star: metadata dimension mismatch")
        beta_star = check_vector("beta_star", beta_star)
    except DomainError as exc:
        raise DataError(f"metadata: {exc}") from None

    def worker(k: int) -> list[dict]:
        root = RngStream(seed + k)
        return _fit_rows(
            fit, algorithm, data, model, initial_beta(data.d, root.split(0)), root.split(1),
            beta_star, eps=eps, clip=clip, seed=seed + k,
            # preprocess computes beta_star from the rows and names its
            # source; only gen's beta_star is a public simulation parameter
            public_truth="source" not in meta,
        )

    results = _run_parallel([(k, k) for k in range(n_seeds)], worker, threads)
    rows = [row for k in sorted(results) for row in results[k]]
    io.write_results(out, rows)
    click.echo(f"wrote {len(rows)} rows to {out}")


@cli.command("sweep")
@click.option("--model", default="gmm")
@click.option("--n-list", default="2000", type=INT_LIST)
@click.option("--d-list", default="10", type=INT_LIST)
@click.option("--eps-list", default="0.2,0.5,1", type=FLOAT_LIST)
@click.option("--clip-list", default="1.0", type=FLOAT_LIST)
@click.option("--snr", default="3.0", type=FLOAT)
@click.option("--sigma", default="1.0", type=FLOAT)
@click.option("--p-m", default="0.0", type=FLOAT)
@_fit_flags(n_seeds="20")
def cmd_sweep(model, algorithm, n_list, d_list, eps_list, clip_list, snr, sigma, p_m,
              seed, n_seeds, threads, out, **fit):
    """Run a Cartesian sweep over n, d, eps (and clip for the clipped
    algorithm).  Synthetic data is drawn once per (n, d, seed) and shared
    by that seed's eps x clip cells; rows come out in canonical order no
    matter how many worker processes execute the tasks."""
    # _fit_rows' module, compiled before the pool forks, which then inherits it
    from . import estimators  # noqa: F401
    from .models import ModelSpec, sample_observations
    from .numeric import RngStream, initial_beta

    model_kind = _check_model(model)
    algorithm = _check_algorithm(algorithm, model_kind)
    _load_kernel(algorithm)
    eps_values = eps_list if algorithm != "em" else (None,)
    clip_values = clip_list if algorithm == "clipped" else (None,)
    _warn_if_no_noise(fit)
    master = seed
    models = {d: ModelSpec(model_kind, d, sigma, p_m) for d in d_list}

    tasks = [
        ((i_n, i_d, k), (n, d, k))
        for i_n, n in enumerate(n_list)
        for i_d, d in enumerate(d_list)
        for k in range(n_seeds)
    ]

    def worker(spec) -> dict:
        """Every eps x clip cell of one (n, d, seed), keyed by (i_eps, i_clip)."""
        n, d, k = spec
        model = models[d]
        # data and init are shared across the eps and clip axes so cells
        # differ only in privacy noise
        beta_star = snr * sigma * initial_beta(
            d, RngStream(master).split(0).split(d).split(k))
        data = sample_observations(
            model, n, beta_star, RngStream(master).split(1).split(n).split(d).split(k))
        beta0 = initial_beta(d, RngStream(master).split(2).split(d).split(k))
        cells = {}
        for i_eps, eps in enumerate(eps_values):
            for i_clip, clip in enumerate(clip_values):
                noise_rng = (RngStream(master).split(3).split(n).split(d)
                             .split(i_eps).split(i_clip).split(k))
                cells[i_eps, i_clip] = _fit_rows(
                    fit, algorithm, data, model, beta0, noise_rng, beta_star,
                    eps=eps, clip=clip, seed=master + k,
                )
        return cells

    results = _run_forked(tasks, worker, threads)
    # canonical order: n, d, eps, clip, seed
    by_cell = {
        (i_n, i_d, *cell, k): cell_rows
        for (i_n, i_d, k), cells in results.items()
        for cell, cell_rows in cells.items()
    }
    rows = [row for key in sorted(by_cell) for row in by_cell[key]]
    io.write_results(out, rows)
    click.echo(f"wrote {len(rows)} rows to {out}")


@cli.command("preprocess")
@click.option("--data", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@config_option
def cmd_preprocess(data, out):
    """Turn labeled rows (f1..fd,label) into a centered two-cluster dataset."""
    import numpy as np

    from .models import SIGMA_FLOOR, preprocess_real_gmm

    try:
        features, labels = io.read_labeled(data)
    except io.ParseError as exc:
        if exc.line == 1:
            # wrong file shape for this command, not corrupt data
            raise ConfigError(str(exc)) from None
        raise
    try:
        obs, beta_star, sigma = preprocess_real_gmm(features, labels)
    except DomainError as exc:
        # the rows themselves are at fault: a data error, exit 3
        raise DataError(str(exc)) from None
    io.write_dataset(out, obs)
    io.write_metadata(f"{out}.meta.json", {
        "model": "gmm",
        "n": obs.n,
        "d": obs.d,
        "sigma": sigma,
        "sigma_rule": "sqrt of max per-cluster covariance eigenvalue",
        "sigma_floor_applied": sigma <= SIGMA_FLOOR,
        "p_m": 0.0,
        "snr": math.sqrt(np.einsum("i,i->", beta_star, beta_star)) / sigma,
        "source": str(data),
        "beta_star": [float(v) for v in beta_star],
    })
    click.echo(f"wrote {out} and {out}.meta.json")


def _quartiles(values: list[float]) -> list[float]:
    """The 25th, 50th and 75th percentiles of values, computed operation for
    operation as np.percentile's default linear rule does, so the summary
    bytes match it without loading numpy.  Where both 0.0 and -0.0 occur, the
    sign of a zero result may differ from numpy's: they tie in the sort, and
    numpy's partition may order them otherwise.  Errors are norms, never
    -0.0."""
    ordered = sorted(values)
    last = len(ordered) - 1
    out = []
    for q in (0.25, 0.5, 0.75):
        index = last * q
        lo = math.floor(index)
        if lo == last:  # one value; numpy computes b - 0 * 0, which is b
            out.append(ordered[last])
            continue
        a, b, t = ordered[lo], ordered[lo + 1], index - lo
        d = b - a
        out.append(b - d * (1 - t) if t >= 0.5 else a + d * t)
    return out


@cli.command("report")
@click.option("--data", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def cmd_report(data, out):
    """Summarize result rows: median and quartiles per cell per iteration."""
    rows = io.read_results(data)
    cell_columns = io.SUMMARY_COLUMNS[:9]  # model .. iter
    groups: dict[tuple, list[float]] = {}
    for row in rows:
        key = tuple(row[c] for c in cell_columns)
        groups.setdefault(key, []).append(row["error"])

    def sort_key(key):
        return tuple(-math.inf if v == "" else v for v in key[2:])

    summary = []
    for key in sorted(groups, key=lambda k: (k[0], k[1], sort_key(k))):
        q25, q50, q75 = _quartiles(groups[key])
        summary.append(dict(
            zip(cell_columns, key),
            n_seeds=len(groups[key]),
            median_error=q50,
            q25_error=q25,
            q75_error=q75,
        ))
    io.write_summary(out, summary)
    click.echo(f"wrote {len(summary)} summary rows to {out}")


def main():
    cli(prog_name="dpem")


if __name__ == "__main__":
    main()
