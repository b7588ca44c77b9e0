"""Benchmark harness: generate datasets, execute runs and sweeps, preprocess
labeled data, and summarize result rows.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
non-convergence.  Any option can also be supplied from a ``--config`` file
of ``key = value`` lines (dotted ``command.key`` entries bind to a single
subcommand); explicit flags win over the file.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import click
import numpy as np

from . import io
from .errors import ConfigError, ConvergenceError, DataError, DomainError
from .estimators import (
    ALGORITHMS,
    SIGN_SYMMETRIC_KINDS,
    align_sign,
    initial_beta,
    resolve_settings,
    run_algorithm,
)
from .models import (
    MODEL_KINDS,
    GroundTruth,
    ModelSpec,
    preprocess_real_gmm,
    sample_observations,
)
from .numeric import RngStream


def _fail(message: str, code: int):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guarded(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except (ConfigError, DomainError) as exc:
            _fail(str(exc), 2)
        except (DataError, OSError) as exc:  # ParseError included
            _fail(str(exc), 3)
        except ConvergenceError as exc:
            _fail(str(exc), 4)

    return wrapper


# ---------------------------------------------------------------- option glue


def _load_config(config_path) -> dict:
    return io.parse_config_file(config_path) if config_path else {}


def _resolve(ctx, cfg: dict, command: str, name: str):
    """Flag if given on the command line, else config file, else flag default."""
    param = name.replace("-", "_")
    source = ctx.get_parameter_source(param)
    if source is not None and source.name == "COMMANDLINE":
        return ctx.params[param]
    for key in (f"{command}.{name}", name):
        if key in cfg:
            return cfg[key]
    return ctx.params[param]


def _as_int(name: str, value) -> int:
    try:
        return int(str(value))
    except ValueError:
        raise ConfigError(f"{name}: expected an integer, got {value!r}") from None


def _as_count(name: str, value) -> int:
    count = _as_int(name, value)
    if count < 1:
        raise ConfigError(f"{name}: expected an integer >= 1, got {count}")
    return count


def _as_float(name: str, value) -> float:
    try:
        return float(str(value))
    except ValueError:
        raise ConfigError(f"{name}: expected a number, got {value!r}") from None


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
    return tuple(parse(name, p) for p in parts)


def _auto_or_float(name: str, value):
    return "auto" if str(value) == "auto" else _as_float(name, value)


def _auto_or_int(name: str, value):
    return "auto" if str(value) == "auto" else _as_int(name, value)


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
        click.option("--delta", default="auto", help="'auto' means n^-1.1"),
        click.option("--eta", default="1.0"),
        click.option("--iters", default="auto", help="'auto' means ceil(ln n)"),
        click.option("--tau", default="auto"),
        click.option("--zeta", default="0.05"),
        click.option("--shuffle", default="true"),
        click.option("--seed", default="0"),
        click.option("--n-seeds", default=n_seeds),
        click.option("--threads", default="1"),
        click.option("--out", required=True, type=click.Path(dir_okay=False)),
        click.option("--unsafe-no-noise", is_flag=True,
                     help="disable privacy noise; output is NOT private"),
        click.option("--timing", is_flag=True, help="record real wall_ms (non-reproducible)"),
        click.option("--config", type=click.Path(exists=True, dir_okay=False)),
    ]

    def decorate(func):
        for option in reversed(options):
            func = option(func)
        return func

    return decorate


def _fit_options(get) -> dict:
    """Parse and check the fit options that run and sweep share; warn on
    stderr when the privacy noise is disabled."""
    opts = dict(
        delta=_auto_or_float("delta", get("delta")),
        eta=_as_float("eta", get("eta")),
        iters=_auto_or_int("iters", get("iters")),
        tau=_auto_or_float("tau", get("tau")),
        zeta=_as_float("zeta", get("zeta")),
        shuffle=_as_bool("shuffle", get("shuffle")),
        seed=_as_int("seed", get("seed")),
        n_seeds=_as_count("n-seeds", get("n-seeds")),
        threads=_as_count("threads", get("threads")),
        disable_noise=_as_bool("unsafe-no-noise", get("unsafe-no-noise")),
        timing=_as_bool("timing", get("timing")),
    )
    if opts["disable_noise"]:
        click.echo("NON-PRIVATE: noise injection disabled", err=True)
    return opts


def _meta_field(meta: dict, key: str, convert):
    """convert(meta[key]), or a data error naming a missing or bad key."""
    try:
        return convert(meta[key])
    except KeyError:
        raise DataError(f"metadata: missing key {key!r}") from None
    except (TypeError, ValueError, OverflowError):
        raise DataError(f"metadata: bad {key} value {meta[key]!r}") from None


def _whole(value) -> int:
    """A JSON integer such as 50 or 50.0; not 50.7, "50", true or Infinity."""
    if isinstance(value, bool) or int(value) != value:
        raise ValueError(value)
    return int(value)


# ------------------------------------------------------------------- running


def _fit_rows(opts: dict, algorithm, data, model, beta0, rng, truth, *, eps, clip,
              seed) -> list[dict]:
    """Fit one cell and return one result row per iterate.  eps is None for
    em and clip is None unless the algorithm is clipped; their columns are
    then left empty."""
    delta, T, tau = resolve_settings(algorithm, data.n, model, truth, delta=opts["delta"],
                                     iters=opts["iters"], tau=opts["tau"])
    started = time.perf_counter()
    trace = run_algorithm(
        algorithm, data, model, beta0, rng, truth, T=T, eta=opts["eta"], eps=eps,
        delta=delta, clip=clip, tau=tau, zeta=opts["zeta"], shuffle=opts["shuffle"],
        disable_noise=opts["disable_noise"],
    )
    wall_ms = (time.perf_counter() - started) * 1e3 if opts["timing"] else 0.0
    return [{
        "model": model.kind,
        "algorithm": algorithm,
        "eps": "" if eps is None else float(eps),
        "delta": "" if eps is None else float(delta),
        "d": data.d,
        "n": data.n,
        "T": T,
        "C": "" if clip is None else float(clip),
        "seed": seed,
        "iter": it,
        "error": float(error),
        "wall_ms": wall_ms,
    } for it, error in enumerate(trace.errors)]


def _run_parallel(tasks, worker, threads: int) -> dict:
    """Execute worker over keyed tasks, any order; return {key: result}."""
    results = {}
    if threads <= 1:
        for key, spec in tasks:
            results[key] = worker(spec)
        return results
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = {key: pool.submit(worker, spec) for key, spec in tasks}
        for key, future in futures.items():
            results[key] = future.result()
    return results


# ------------------------------------------------------------------ commands


@click.group()
def cli():
    """Differentially private EM benchmark harness."""


@cli.command("gen")
@click.option("--model", default="gmm", help=f"one of {'|'.join(MODEL_KINDS)}")
@click.option("--n", default="2000")
@click.option("--d", default="10")
@click.option("--snr", default="3.0", help="||beta*||_2 / sigma")
@click.option("--sigma", default="1.0")
@click.option("--p-m", default="0.0", help="rmc missingness probability")
@click.option("--seed", default="0")
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--config", type=click.Path(exists=True, dir_okay=False))
@click.pass_context
@_guarded
def cmd_gen(ctx, **_):
    """Generate a synthetic dataset plus its metadata sidecar."""
    cfg = _load_config(ctx.params["config"])
    get = lambda name: _resolve(ctx, cfg, "gen", name)
    model_kind = _check_model(get("model"))
    n = _as_int("n", get("n"))
    d = _as_int("d", get("d"))
    snr = _as_float("snr", get("snr"))
    sigma = _as_float("sigma", get("sigma"))
    p_m = _as_float("p-m", get("p-m"))
    seed = _as_int("seed", get("seed"))
    out = get("out")

    model = ModelSpec(model_kind, d, sigma, p_m if model_kind == "rmc" else 0.0)
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
@click.option("--data", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--meta", type=click.Path(exists=True, dir_okay=False))
@click.option("--eps", default="1.0")
@click.option("--clip", default="1.0")
@_fit_flags(n_seeds="1")
@click.pass_context
@_guarded
def cmd_run(ctx, **_):
    """Run one algorithm on an existing dataset, once per seed."""
    cfg = _load_config(ctx.params["config"])
    get = lambda name: _resolve(ctx, cfg, "run", name)
    data_path = get("data")
    meta_path = get("meta") or f"{data_path}.meta.json"
    eps = _as_float("eps", get("eps"))
    clip = _as_float("clip", get("clip"))
    opts = _fit_options(get)
    out = get("out")

    meta = io.read_metadata(meta_path)
    model_kind = _check_model(meta.get("model"))
    algorithm = _check_algorithm(get("algorithm"), model_kind)
    data = io.read_dataset(data_path, model_kind)
    for key, value in (("n", data.n), ("d", data.d)):
        if _meta_field(meta, key, _whole) != value:
            raise ConfigError(f"{key}: metadata says {meta[key]}, dataset has {value}")
    model = ModelSpec(model_kind, data.d, _meta_field(meta, "sigma", float),
                      _meta_field(meta, "p_m", float) if "p_m" in meta else 0.0)
    beta_star = _meta_field(meta, "beta_star", lambda v: np.asarray(v, dtype=float))
    if beta_star.shape != (data.d,):
        raise ConfigError("beta_star: metadata dimension mismatch")
    truth = GroundTruth(beta_star)
    seed = opts["seed"]

    def worker(k: int) -> list[dict]:
        root = RngStream(seed + k)
        beta0 = initial_beta(data.d, root.split(0))
        if model_kind in SIGN_SYMMETRIC_KINDS:
            # beta -> -beta is a symmetry of these models; fix the gauge so
            # error curves measure convergence, not the arbitrary sign
            beta0 = align_sign(beta0, beta_star)
        return _fit_rows(
            opts, algorithm, data, model, beta0, root.split(1), truth,
            eps=None if algorithm == "em" else eps,
            clip=clip if algorithm == "clipped" else None, seed=seed + k,
        )

    results = _run_parallel([(k, k) for k in range(opts["n_seeds"])], worker,
                            opts["threads"])
    rows = [row for k in sorted(results) for row in results[k]]
    io.write_results(out, rows)
    click.echo(f"wrote {len(rows)} rows to {out}")


@cli.command("sweep")
@click.option("--model", default="gmm")
@click.option("--n-list", default="2000")
@click.option("--d-list", default="10")
@click.option("--eps-list", default="0.2,0.5,1")
@click.option("--clip-list", default="1.0")
@click.option("--snr", default="3.0")
@click.option("--sigma", default="1.0")
@click.option("--p-m", default="0.0")
@_fit_flags(n_seeds="20")
@click.pass_context
@_guarded
def cmd_sweep(ctx, **_):
    """Run a Cartesian sweep over n, d, eps (and clip for the clipped
    algorithm).  Synthetic data is drawn once per (n, d, seed) and shared
    by that seed's eps x clip cells; rows come out in canonical order no
    matter how many threads execute the tasks."""
    cfg = _load_config(ctx.params["config"])
    get = lambda name: _resolve(ctx, cfg, "sweep", name)
    model_kind = _check_model(get("model"))
    algorithm = _check_algorithm(get("algorithm"), model_kind)
    n_values = _as_list("n-list", get("n-list"), _as_int)
    d_values = _as_list("d-list", get("d-list"), _as_int)
    eps_values = (_as_list("eps-list", get("eps-list"), _as_float)
                  if algorithm != "em" else (None,))
    clip_values = (_as_list("clip-list", get("clip-list"), _as_float)
                   if algorithm == "clipped" else (None,))
    snr = _as_float("snr", get("snr"))
    sigma = _as_float("sigma", get("sigma"))
    p_m = _as_float("p-m", get("p-m"))
    opts = _fit_options(get)
    out = get("out")
    master = opts["seed"]

    tasks = [
        ((i_n, i_d, k), (n, d, k))
        for i_n, n in enumerate(n_values)
        for i_d, d in enumerate(d_values)
        for k in range(opts["n_seeds"])
    ]

    def worker(spec) -> dict:
        """Every eps x clip cell of one (n, d, seed), keyed by (i_eps, i_clip)."""
        n, d, k = spec
        model = ModelSpec(model_kind, d, sigma, p_m if model_kind == "rmc" else 0.0)
        # data and init are shared across the eps and clip axes so cells
        # differ only in privacy noise
        beta_star = snr * sigma * initial_beta(
            d, RngStream(master).split(0).split(d).split(k))
        data = sample_observations(
            model, n, beta_star, RngStream(master).split(1).split(n).split(d).split(k))
        beta0 = initial_beta(d, RngStream(master).split(2).split(d).split(k))
        if model_kind in SIGN_SYMMETRIC_KINDS:
            beta0 = align_sign(beta0, beta_star)
        truth = GroundTruth(beta_star)
        cells = {}
        for i_eps, eps in enumerate(eps_values):
            for i_clip, clip in enumerate(clip_values):
                noise_rng = (RngStream(master).split(3).split(n).split(d)
                             .split(i_eps).split(i_clip).split(k))
                cells[i_eps, i_clip] = _fit_rows(
                    opts, algorithm, data, model, beta0, noise_rng, truth,
                    eps=eps, clip=clip, seed=master + k,
                )
        return cells

    results = _run_parallel(tasks, worker, opts["threads"])
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
@click.option("--config", type=click.Path(exists=True, dir_okay=False))
@click.pass_context
@_guarded
def cmd_preprocess(ctx, **_):
    """Turn labeled rows (f1..fd,label) into a centered two-cluster dataset."""
    cfg = _load_config(ctx.params["config"])
    get = lambda name: _resolve(ctx, cfg, "preprocess", name)
    data_path = get("data")
    out = get("out")
    try:
        features, labels = io.read_labeled(data_path)
    except io.ParseError as exc:
        if exc.line == 1:
            # wrong file shape for this command, not corrupt data
            raise ConfigError(str(exc)) from None
        raise
    obs, truth, sigma = preprocess_real_gmm(features, labels)
    io.write_dataset(out, obs)
    io.write_metadata(f"{out}.meta.json", {
        "model": "gmm",
        "n": obs.n,
        "d": obs.d,
        "sigma": sigma,
        "sigma_rule": "sqrt of max per-cluster covariance eigenvalue",
        "sigma_floor_applied": sigma <= 1e-6,
        "p_m": 0.0,
        "snr": float(np.linalg.norm(truth.beta_star) / sigma),
        "source": str(data_path),
        "beta_star": [float(v) for v in truth.beta_star],
    })
    click.echo(f"wrote {out} and {out}.meta.json")


@cli.command("report")
@click.option("--data", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.pass_context
@_guarded
def cmd_report(ctx, **_):
    """Summarize result rows: median and quartiles per cell per iteration."""
    rows = io.read_results(ctx.params["data"])
    cell_columns = io.SUMMARY_COLUMNS[:9]  # model .. iter
    groups: dict[tuple, list[float]] = {}
    for row in rows:
        key = tuple(row[c] for c in cell_columns)
        groups.setdefault(key, []).append(row["error"])

    def sort_key(key):
        return tuple(-math.inf if v == "" else v for v in key[2:])

    summary = []
    for key in sorted(groups, key=lambda k: (k[0], k[1], sort_key(k))):
        errors = np.array(groups[key])
        q25, q50, q75 = np.percentile(errors, [25, 50, 75])
        summary.append(dict(
            zip(cell_columns, key),
            n_seeds=errors.size,
            median_error=float(q50),
            q25_error=float(q25),
            q75_error=float(q75),
        ))
    io.write_summary(ctx.params["out"], summary)
    click.echo(f"wrote {len(summary)} summary rows to {ctx.params['out']}")


def main():
    cli(prog_name="dpem")


if __name__ == "__main__":
    main()
