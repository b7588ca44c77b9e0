import json
import math
import os
import warnings
from concurrent.futures import process

import numpy as np
import pytest
from click.testing import CliRunner

import dpem.cli
import dpem.estimators
import dpem.io
import dpem.models
from dpem.cli import cli
from dpem.errors import ConvergenceError
from dpem.estimators import (
    ClippedDPGradientEM,
    DPEMGaussianMixture,
    DPGradientEM,
    GradientEM,
)
from dpem.io import read_dataset, read_metadata, read_results, write_results


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(cli, [str(a) for a in args], catch_exceptions=False)


def invoke_quiet(runner, args):
    """runner.invoke, also returning the warnings raised during the run."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(cli, args)
    return result, [w for w in caught if issubclass(w.category, RuntimeWarning)]


def gen_dataset(runner, tmp_path, name="data.csv", **opts):
    path = tmp_path / name
    args = ["gen", "--out", path]
    for key, value in opts.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    result = invoke(runner, *args)
    assert result.exit_code == 0, result.output
    return path


class TestGen:
    def test_writes_dataset_and_sidecar(self, runner, tmp_path):
        path = gen_dataset(runner, tmp_path, n=50, d=4, seed=7)
        data = read_dataset(path, "gmm")
        assert data.n == 50 and data.d == 4
        meta = read_metadata(f"{path}.meta.json")
        assert meta["model"] == "gmm" and meta["seed"] == 7
        norm = math.sqrt(sum(v * v for v in meta["beta_star"]))
        assert norm == pytest.approx(3.0 * meta["sigma"], rel=1e-12)

    def test_regeneration_byte_identical(self, runner, tmp_path):
        a = gen_dataset(runner, tmp_path, "a.csv", n=40, d=3, seed=5)
        b = gen_dataset(runner, tmp_path, "b.csv", n=40, d=3, seed=5)
        assert a.read_bytes() == b.read_bytes()
        meta_a = (tmp_path / "a.csv.meta.json").read_text()
        meta_b = (tmp_path / "b.csv.meta.json").read_text()
        assert json.loads(meta_a) == json.loads(meta_b)

    def test_rmc_missing_fraction(self, runner, tmp_path):
        p = 0.2
        path = gen_dataset(runner, tmp_path, model="rmc", n=2000, d=5, p_m=p)
        data = read_dataset(path, "rmc")
        frac = 1.0 - float(data.mask.mean())
        se = math.sqrt(p * (1 - p) / data.mask.size)
        assert abs(frac - p) < 5 * se

    def test_bad_model_exits_2(self, runner, tmp_path):
        result = runner.invoke(
            cli, ["gen", "--model", "tree", "--out", str(tmp_path / "x.csv")]
        )
        assert result.exit_code == 2
        assert "model" in result.stderr

    @pytest.mark.parametrize("model", ["gmm", "mrm"])
    def test_p_m_on_other_model_exits_2(self, runner, tmp_path, model):
        out = tmp_path / "x.csv"
        result = runner.invoke(
            cli, ["gen", "--model", model, "--p-m", "0.5", "--out", str(out)]
        )
        assert result.exit_code == 2, result.output
        assert "p_m applies to the rmc model only" in result.stderr
        assert not out.exists()


class TestRun:
    def test_em_zero_iterations_one_row_per_seed(self, runner, tmp_path):
        data = gen_dataset(runner, tmp_path, n=60, d=3)
        out = tmp_path / "rows.csv"
        result = invoke(
            runner, "run", "--algorithm", "em", "--iters", 0,
            "--n-seeds", 3, "--data", data, "--out", out,
        )
        assert result.exit_code == 0
        rows = read_results(out)
        assert len(rows) == 3
        assert all(r["iter"] == 0 for r in rows)
        assert [r["seed"] for r in rows] == [0, 1, 2]
        assert all(r["eps"] == "" and r["C"] == "" for r in rows)

    def test_repeat_runs_identical(self, runner, tmp_path):
        data = gen_dataset(runner, tmp_path, n=80, d=3)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            result = invoke(
                runner, "run", "--algorithm", "dpgem", "--eps", 0.5,
                "--n-seeds", 2, "--data", data, "--out", out,
            )
            assert result.exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def run_at_worker_counts(self, runner, tmp_path, data, algorithm):
        """The bytes of one run per worker count 1, 2 and 8, on 8 seeds."""
        outputs = set()
        for threads in (1, 2, 8):
            out = tmp_path / f"workers{threads}.csv"
            result = invoke(
                runner, "run", "--algorithm", algorithm, "--n-seeds", 8,
                "--threads", threads, "--data", data, "--out", out,
            )
            assert result.exit_code == 0
            outputs.add(out.read_bytes())
        return outputs

    def test_thread_count_does_not_change_output(self, runner, tmp_path):
        data = gen_dataset(runner, tmp_path, n=80, d=3)
        for algorithm in ("clipped", "dpem"):
            assert len(self.run_at_worker_counts(runner, tmp_path, data, algorithm)) == 1

    def test_clipped_rmc_thread_count_does_not_change_output(self, runner, tmp_path):
        # each fit spans several row blocks of the gradients
        data = gen_dataset(runner, tmp_path, model="rmc", n=3000, d=5, p_m=0.2)
        assert len(self.run_at_worker_counts(runner, tmp_path, data, "clipped")) == 1

    @pytest.mark.parametrize("gen, args, code, message", [
        (dict(model="mrm", n=200, d=5), ["--algorithm", "em", "--eta", "1e6", "--iters", "200"],
         4, "diverged at iteration"),
        (dict(n=5, d=2), ["--algorithm", "dpgem", "--iters", "10"],
         2, "need n >= T, got n=5, T=10"),
    ], ids=["diverged", "domain"])
    def test_worker_error_keeps_exit_code(self, runner, tmp_path, gen, args, code, message):
        data = gen_dataset(runner, tmp_path, **gen)
        out = tmp_path / "e.csv"
        stderr = set()
        for threads in ("1", "2"):
            result, _ = invoke_quiet(runner, ["run", "--data", str(data), *args,
                                              "--n-seeds", "2", "--threads", threads,
                                              "--out", str(out)])
            assert result.exit_code == code, result.output
            assert message in result.stderr
            stderr.add(result.stderr)
        assert len(stderr) == 1
        assert not out.exists()

    @pytest.mark.parametrize("cpus, threads, n_seeds", [
        (2, 2, 4), (2, 3, 4), (2, 8, 3), (2, 4, 1), (1, 4, 4), (2, 8, 8), (4, 3, 4)])
    def test_workers_are_forked_children(self, runner, tmp_path, processes, cpus, threads,
                                         n_seeds):
        """min(--threads, --n-seeds, CPUs) - 1 children, this process being
        the other worker: none with one CPU or one seed."""
        data = gen_dataset(runner, tmp_path, n=80, d=3)
        outputs = []
        for workers in (1, threads):
            out = tmp_path / f"workers{workers}.csv"
            with processes(cpus) as forks:
                result = invoke(runner, "run", "--algorithm", "dpem", "--n-seeds", n_seeds,
                                "--threads", workers, "--data", data, "--out", out)
            assert result.exit_code == 0
            assert len(forks) == min(workers, n_seeds, cpus) - 1
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("death", ["exits", "sends-short"])
    def test_a_child_that_dies_costs_no_bytes(self, runner, tmp_path, monkeypatch, processes,
                                              death):
        """No child's message arrives whole: this process runs their seeds."""
        def send(out, data):
            if death == "sends-short":
                out.write(len(data).to_bytes(8, "little") + data[:100])
                out.flush()
            os._exit(1)

        data = gen_dataset(runner, tmp_path, n=80, d=3)
        outputs = []
        for threads in (1, 3):
            out = tmp_path / f"workers{threads}.csv"
            with processes(3) as forks:
                monkeypatch.setattr(dpem.io, "_send", send)
                result = invoke(runner, "run", "--algorithm", "clipped", "--n-seeds", 5,
                                "--threads", threads, "--data", data, "--out", out)
            assert result.exit_code == 0
            assert len(forks) == threads - 1
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("where", [0.25, 0.75], ids=["first-half", "second-half"])
    @pytest.mark.parametrize("cell", ["1_0", '"1.0"', "\u30002.0"],
                             ids=["underscore", "quoted", "ideographic-space"])
    def test_a_cell_outside_the_grammar_exits_3_at_its_line(self, runner, tmp_path, processes,
                                                            cell, where):
        data = gen_dataset(runner, tmp_path, n=4000, d=3)
        lines = data.read_text().splitlines(keepends=True)
        line = int(where * 4000) + 1
        lines[line - 1] = f"{cell},2.0,3.0\n"
        data.write_text("".join(lines), encoding="utf-8")
        for cpus in (1, 2):
            out = tmp_path / f"cpus{cpus}.csv"
            with processes(cpus) as forks:
                result = runner.invoke(cli, ["run", "--algorithm", "em", "--data", str(data),
                                             "--out", str(out)])
            assert result.exit_code == 3, result.output
            assert result.stderr.startswith(f"error: line {line}: ")
            assert len(forks) == cpus - 1  # the C reader's second half
            assert not out.exists()

    class Unloadable(Exception):
        """Pickles by its message alone, which its __init__ cannot take back."""

        def __init__(self, message, code):
            super().__init__(f"{message} ({code})")

    def test_first_failure_in_task_order_is_raised(self, processes):
        """This process runs tasks 0 and 2 and fails at 2; the child fails
        at 1, the serial path's error, which crosses the pipe pickled.  An
        error that does not pickle or unpickle never arrives, and this
        process meets it by running the child's tasks itself."""
        class Unpicklable(Exception):  # a local class: pickle cannot name it
            pass

        for make in (ConvergenceError, Unpicklable, lambda text: self.Unloadable(text, 7)):
            def worker(k):
                if k in (1, 2):
                    raise make(f"task {k}")
                return k

            for threads in (1, 2):
                with processes(2) as forks:
                    with pytest.raises(Exception, match="task 1") as raised:
                        dpem.cli._run_parallel([(k, k) for k in range(4)], worker, threads)
                assert type(raised.value) is type(make("")), raised.value
                assert len(forks) == threads - 1

    def test_dpgem_improves_on_start(self, runner, tmp_path):
        data = gen_dataset(runner, tmp_path, n=2000, d=10)
        out = tmp_path / "rows.csv"
        result = invoke(
            runner, "run", "--algorithm", "dpgem", "--eps", 0.5,
            "--n-seeds", 20, "--data", data, "--out", out,
        )
        assert result.exit_code == 0
        rows = read_results(out)
        T = max(r["iter"] for r in rows)
        first = [r["error"] for r in rows if r["iter"] == 0]
        last = [r["error"] for r in rows if r["iter"] == T]
        assert np.isfinite(last).all()
        assert np.median(last) < np.median(first)

    def test_delta_rule_exact(self, runner, tmp_path):
        data = gen_dataset(runner, tmp_path, n=90, d=3)
        out = tmp_path / "rows.csv"
        invoke(runner, "run", "--algorithm", "dpgem", "--data", data, "--out", out)
        for row in read_results(out):
            assert row["delta"] == 90.0 ** -1.1

    def test_auto_delta_on_one_sample_exits_2(self, runner, tmp_path):
        data = gen_dataset(runner, tmp_path, n=1, d=3)
        for algorithm in ("clipped", "dpgem", "dpem"):
            result = runner.invoke(cli, ["run", "--algorithm", algorithm, "--data", str(data),
                                         "--out", str(tmp_path / "o.csv")])
            assert result.exit_code == 2, result.output
            assert "delta='auto'" in result.stderr and "n=1" in result.stderr
        assert not (tmp_path / "o.csv").exists()
        # em releases nothing, so it takes no delta and still runs
        invoke(runner, "run", "--algorithm", "em", "--data", data, "--out", tmp_path / "o.csv")

    def test_metadata_mismatch_names_field(self, runner, tmp_path):
        data = gen_dataset(runner, tmp_path, n=50, d=3)
        meta_path = tmp_path / "data.csv.meta.json"
        meta = json.loads(meta_path.read_text())
        meta["n"] = 51
        meta_path.write_text(json.dumps(meta))
        result = runner.invoke(
            cli, ["run", "--data", str(data), "--out", str(tmp_path / "o.csv")]
        )
        assert result.exit_code == 2
        assert "n:" in result.stderr

    def test_dpem_requires_gmm(self, runner, tmp_path):
        data = gen_dataset(runner, tmp_path, model="mrm", n=50, d=3)
        result = runner.invoke(cli, [
            "run", "--algorithm", "dpem", "--data", str(data),
            "--out", str(tmp_path / "o.csv"),
        ])
        assert result.exit_code == 2
        assert "gmm" in result.stderr

    def test_bad_flag_value_exits_2(self, runner, tmp_path):
        data = gen_dataset(runner, tmp_path, n=50, d=3)
        result = runner.invoke(cli, [
            "run", "--eps", "lots", "--data", str(data),
            "--out", str(tmp_path / "o.csv"),
        ])
        assert result.exit_code == 2
        assert "eps" in result.stderr

    def test_malformed_dataset_exits_3(self, runner, tmp_path):
        data = gen_dataset(runner, tmp_path, n=50, d=3)
        text = data.read_text().splitlines()
        text[5] = text[5].replace(".", "!", 1)
        data.write_text("\n".join(text) + "\n")
        result = runner.invoke(cli, [
            "run", "--data", str(data), "--out", str(tmp_path / "o.csv"),
        ])
        assert result.exit_code == 3
        assert "line" in result.stderr

    @pytest.mark.parametrize("cell", ["nan", "1e400"])
    @pytest.mark.parametrize("model", ["gmm", "rmc"])
    def test_non_finite_cell_exits_3_with_line(self, runner, tmp_path, model, cell):
        data = gen_dataset(runner, tmp_path, model=model, n=50, d=3)
        lines = data.read_text().splitlines()
        lines[5] = f"{cell}," + lines[5].split(",", 1)[1]
        data.write_text("\n".join(lines) + "\n")
        result = runner.invoke(cli, [
            "run", "--data", str(data), "--out", str(tmp_path / "o.csv"),
        ])
        assert result.exit_code == 3
        assert "line 6" in result.stderr

    @pytest.mark.parametrize("key", ["sigma", "n", "d", "beta_star"])
    def test_metadata_missing_key_exits_3(self, runner, tmp_path, key):
        data = gen_dataset(runner, tmp_path, n=50, d=3)
        meta_path = tmp_path / "data.csv.meta.json"
        meta = json.loads(meta_path.read_text())
        del meta[key]
        meta_path.write_text(json.dumps(meta))
        result = runner.invoke(cli, [
            "run", "--data", str(data), "--meta", str(meta_path),
            "--out", str(tmp_path / "o.csv"),
        ])
        assert result.exit_code == 3
        assert f"error: metadata: missing key '{key}'" in result.stderr

    @pytest.mark.parametrize("key, value, shown", [
        ("n", "abc", "'abc'"), ("n", math.inf, "inf"), ("n", 1e400, "inf"),
        ("n", math.nan, "nan"), ("n", 50.7, "50.7"), ("n", "50", "'50'"),
        ("d", True, "True"), ("sigma", [1], "[1]"), ("sigma", True, "True"),
        ("sigma", "1.0", "'1.0'"), ("p_m", "0", "'0'"), ("beta_star", 5, "5"),
        ("beta_star", None, "None"), ("beta_star", [[1, 2, 3]], "[[1, 2, 3]]"),
        ("beta_star", ["1", "2", "3"], "['1', '2', '3']"),
        ("beta_star", [1.0, False, 0.5], "[1.0, False, 0.5]"),
    ])
    def test_metadata_bad_value_exits_3(self, runner, tmp_path, key, value, shown):
        data = gen_dataset(runner, tmp_path, n=50, d=3)
        meta_path = tmp_path / "data.csv.meta.json"
        meta = json.loads(meta_path.read_text())
        meta[key] = value
        # json.dumps writes Infinity and NaN, which json.loads reads back
        meta_path.write_text(json.dumps(meta))
        result = runner.invoke(cli, [
            "run", "--data", str(data), "--out", str(tmp_path / "o.csv"),
        ])
        assert result.exit_code == 3
        assert f"error: metadata: bad {key} value {shown}" in result.stderr

    def test_metadata_beta_star_wrong_length_exits_2(self, runner, tmp_path):
        data = gen_dataset(runner, tmp_path, n=50, d=3)
        meta_path = tmp_path / "data.csv.meta.json"
        meta = json.loads(meta_path.read_text())
        meta["beta_star"] = [1.0, 2.0]
        meta_path.write_text(json.dumps(meta))
        out = tmp_path / "o.csv"
        result = runner.invoke(cli, ["run", "--data", str(data), "--out", str(out)])
        assert result.exit_code == 2
        assert "error: beta_star: metadata dimension mismatch" in result.stderr
        assert not out.exists()

    def test_metadata_whole_float_count_accepted(self, runner, tmp_path):
        data = gen_dataset(runner, tmp_path, n=50, d=3)
        meta_path = tmp_path / "data.csv.meta.json"
        meta = json.loads(meta_path.read_text())
        meta["n"] = 50.0
        meta_path.write_text(json.dumps(meta))
        result = runner.invoke(cli, [
            "run", "--data", str(data), "--out", str(tmp_path / "o.csv"),
        ])
        assert result.exit_code == 0, result.stderr

    @pytest.mark.parametrize("key, value, message", [
        ("sigma", -1.0, "sigma must be > 0, got -1.0"),
        ("sigma", 0, "sigma must be > 0, got 0.0"),
        ("beta_star", [math.inf, 0.0, 0.0], "beta_star must have finite entries"),
        ("p_m", 0.3, "p_m applies to the rmc model only"),
        ("model", "tree", "bad model value 'tree'"),
        ("model", None, "missing key 'model'"),  # None removes the key
    ])
    def test_metadata_out_of_domain_exits_3(self, runner, tmp_path, key, value, message):
        # a well-formed sidecar value outside its domain is a data fault
        data = gen_dataset(runner, tmp_path, n=50, d=3)
        meta_path = tmp_path / "data.csv.meta.json"
        meta = json.loads(meta_path.read_text())
        if value is None:
            del meta[key]
        else:
            meta[key] = value
        meta_path.write_text(json.dumps(meta))
        out = tmp_path / "o.csv"
        result = runner.invoke(cli, ["run", "--data", str(data), "--out", str(out)])
        assert result.exit_code == 3
        assert f"error: metadata: {message}" in result.stderr
        assert not out.exists()

    def test_metadata_not_an_object_exits_3(self, runner, tmp_path):
        data = gen_dataset(runner, tmp_path, n=50, d=3)
        meta_path = tmp_path / "list.json"
        meta_path.write_text("[1, 2, 3]\n")
        result = runner.invoke(cli, [
            "run", "--data", str(data), "--meta", str(meta_path),
            "--out", str(tmp_path / "o.csv"),
        ])
        assert result.exit_code == 3
        assert "error: metadata: expected a JSON object" in result.stderr

    def test_divergence_exits_4(self, runner, tmp_path):
        data = gen_dataset(runner, tmp_path, model="mrm", n=200, d=5)
        result, runtime_warnings = invoke_quiet(runner, [
            "run", "--data", str(data), "--out", str(tmp_path / "o.csv"),
            "--algorithm", "em", "--eta", "1e6", "--iters", "200",
        ])
        assert result.exit_code == 4
        assert "diverged at iteration" in result.stderr
        assert "RuntimeWarning" not in result.stderr
        assert runtime_warnings == []

    def test_error_overflow_exits_4(self, runner, tmp_path):
        # after 30 steps every iterate is finite, but the error of the
        # largest ones overflows to inf
        data = gen_dataset(runner, tmp_path, model="mrm", n=200, d=5)
        result, runtime_warnings = invoke_quiet(runner, [
            "run", "--data", str(data), "--out", str(tmp_path / "o.csv"),
            "--algorithm", "em", "--eta", "1e6", "--iters", "30",
        ])
        assert result.exit_code == 4
        assert "estimation error overflows" in result.stderr
        assert runtime_warnings == []

    @pytest.mark.parametrize("eta, message", [
        ("3e306", "iteration 2: per-sample values have non-finite entries"),
        ("1e306", "iteration 1: estimation error overflows"),
        ("5e307", "iteration 1: beta has non-finite entries"),
    ])
    def test_diverging_dpgem_exits_4(self, runner, tmp_path, eta, message):
        # at 3e306 beta^1 is finite and the second subset's gradients at it
        # overflow, which exited 2 as a matrix with non-finite entries
        data = gen_dataset(runner, tmp_path, model="mrm", n=400, d=3, seed=1)
        result, runtime_warnings = invoke_quiet(runner, [
            "run", "--algorithm", "dpgem", "--data", str(data), "--eps", "0.1",
            "--seed", "1", "--eta", eta, "--out", str(tmp_path / "o.csv"),
        ])
        assert result.exit_code == 4, result.output
        assert f"error: diverged at {message}" in result.stderr
        assert runtime_warnings == []

    def test_unsafe_no_noise_warns_on_stderr(self, runner, tmp_path):
        data = gen_dataset(runner, tmp_path, n=50, d=3)
        out = tmp_path / "rows.csv"
        result = invoke(
            runner, "run", "--algorithm", "dpgem", "--unsafe-no-noise",
            "--data", data, "--out", out,
        )
        assert result.exit_code == 0
        assert "NON-PRIVATE" in result.stderr


class TestOptionChecks:
    """run and sweep parse their shared options the same way."""

    def command(self, runner, tmp_path, name):
        if name == "run":
            return ["run", "--data", str(gen_dataset(runner, tmp_path, n=50, d=3))]
        return ["sweep", "--n-list", "60", "--d-list", "2", "--n-seeds", "1"]

    @pytest.mark.parametrize("name", ["run", "sweep"])
    def test_bad_delta_flag_exits_2(self, runner, tmp_path, name):
        result = runner.invoke(cli, self.command(runner, tmp_path, name) + [
            "--delta", "abc", "--out", str(tmp_path / "o.csv")])
        assert result.exit_code == 2
        assert "error: delta:" in result.stderr

    @pytest.mark.parametrize("name", ["run", "sweep"])
    def test_bad_delta_in_config_exits_2(self, runner, tmp_path, name):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("delta = abc\n")
        result = runner.invoke(cli, self.command(runner, tmp_path, name) + [
            "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert result.exit_code == 2
        assert "error: delta:" in result.stderr

    @pytest.mark.parametrize("name", ["run", "sweep"])
    @pytest.mark.parametrize("flag", ["--n-seeds", "--threads"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_counts_below_one_exit_2(self, runner, tmp_path, name, flag, value):
        out = tmp_path / "o.csv"
        result = runner.invoke(cli, self.command(runner, tmp_path, name) + [
            flag, value, "--out", str(out)])
        assert result.exit_code == 2
        assert f"error: {flag[2:]}:" in result.stderr
        assert not out.exists()


FIT_OPTIONS = ["delta", "eta", "iters", "tau", "zeta", "shuffle", "seed", "n-seeds",
               "threads"]
# every option of gen, run and sweep that is parsed beyond plain text; the
# boolean flags take a bad value from a config file only
TYPED_OPTIONS = {
    "gen": ["n", "d", "snr", "sigma", "p-m", "seed"],
    "run": ["eps", "clip", *FIT_OPTIONS],
    "sweep": ["n-list", "d-list", "eps-list", "clip-list", "snr", "sigma", "p-m",
              *FIT_OPTIONS],
}
FLAG_OPTIONS = {"gen": [], "run": ["unsafe-no-noise", "timing"],
                "sweep": ["unsafe-no-noise", "timing"]}


@pytest.fixture(scope="module")
def shared_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("shared") / "data.csv"
    result = invoke(CliRunner(), "gen", "--n", 50, "--d", 3, "--out", path)
    assert result.exit_code == 0, result.output
    return path


class TestOptionMessages:
    """A bad value names its flag and exits 2, from a flag or a config file."""

    def base(self, name, dataset, out):
        return [name, "--out", str(out)] + (["--data", str(dataset)] if name == "run" else [])

    @pytest.mark.parametrize("name", sorted(TYPED_OPTIONS))
    def test_table_lists_every_typed_option(self, name):
        typed = {p.opts[0][2:] for p in cli.commands[name].params
                 if isinstance(p.type, dpem.cli._Parsed)}
        assert typed == set(TYPED_OPTIONS[name]) | set(FLAG_OPTIONS[name])

    @pytest.mark.parametrize("name, option", [
        (name, option) for name, options in TYPED_OPTIONS.items() for option in options])
    def test_bad_flag_value(self, runner, tmp_path, shared_dataset, name, option):
        out = tmp_path / "o.csv"
        result = runner.invoke(
            cli, self.base(name, shared_dataset, out) + [f"--{option}", "bogus"])
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error: {option}: expected ")
        assert not out.exists()

    @pytest.mark.parametrize("name, option", [
        (name, option) for name in TYPED_OPTIONS
        for option in TYPED_OPTIONS[name] + FLAG_OPTIONS[name]])
    def test_bad_config_value(self, runner, tmp_path, shared_dataset, name, option):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"{option} = bogus\n")
        out = tmp_path / "o.csv"
        result = runner.invoke(
            cli, self.base(name, shared_dataset, out) + ["--config", str(cfg)])
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error: {option}: expected ")
        assert not out.exists()


class TestNumberGrammar:
    """A number from a flag or a config file follows the grammar of every
    number in a file: ASCII, without an underscore."""

    @pytest.mark.parametrize("args, config, flag", [
        (["--eps", "1_0"], None, "eps"),
        (["--n-seeds", "\uff11_0"], None, "n-seeds"),
        ([], "eps = \u0662\n", "eps"),
    ], ids=["eps-underscore", "n-seeds-fullwidth", "config-arabic-indic"])
    def test_outside_the_grammar_exits_2(self, runner, tmp_path, shared_dataset, args, config,
                                         flag):
        if config is not None:
            cfg = tmp_path / "exp.cfg"
            cfg.write_text(config, encoding="utf-8")
            args = [*args, "--config", str(cfg)]
        out = tmp_path / "o.csv"
        result = runner.invoke(cli, ["run", "--data", str(shared_dataset), *args,
                                     "--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error: {flag}: expected ")
        assert not out.exists()

    @pytest.mark.parametrize("parse, text, value", [
        (dpem.cli._as_float, "\x1f+1e-3\t", 1e-3),  # the blanks numpy's C reader skips
        (dpem.cli._as_int, "\x1c12 ", 12),
    ])
    def test_inside_the_grammar(self, parse, text, value):
        assert parse("flag", text) == value


class TestCrossPath:
    """An estimator class and ``dpem run`` at the same seed resolve the
    same settings, draw beta^0 from root.split(0) and the noise from
    root.split(1), and so give bitwise-equal error curves."""

    @pytest.mark.parametrize("algorithm, estimator, kind", [
        ("em", GradientEM, "gmm"),
        ("clipped", ClippedDPGradientEM, "gmm"),
        ("dpgem", DPGradientEM, "gmm"),
        ("dpem", DPEMGaussianMixture, "gmm"),
        ("clipped", ClippedDPGradientEM, "mrm"),
        ("dpgem", DPGradientEM, "mrm"),
    ])
    def test_class_matches_run(self, runner, tmp_path, algorithm, estimator, kind):
        path = gen_dataset(runner, tmp_path, model=kind, n=300, d=4, seed=9)
        out = tmp_path / "rows.csv"
        invoke(runner, "run", "--algorithm", algorithm, "--seed", 6, "--data", path,
               "--out", out)
        errors = [r["error"] for r in read_results(out)]

        data = read_dataset(path, kind)
        beta_star = read_metadata(f"{path}.meta.json")["beta_star"]
        args = (data.ys,) if kind == "gmm" else (data.xs, data.ys)
        kwargs = {} if estimator is DPEMGaussianMixture else {"model": kind}
        est = estimator(random_state=6, **kwargs).fit(*args, beta_star=beta_star)
        assert est.trace_.errors.tolist() == errors


class TestConfigFile:
    def test_file_supplies_defaults_cli_overrides(self, runner, tmp_path):
        data = gen_dataset(runner, tmp_path, n=60, d=3)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("eps = 0.9\nn-seeds = 2\n")
        out1 = tmp_path / "r1.csv"
        invoke(runner, "run", "--algorithm", "dpgem", "--data", data,
               "--config", cfg, "--out", out1)
        rows = read_results(out1)
        assert len({r["seed"] for r in rows}) == 2
        assert all(r["eps"] == 0.9 for r in rows)

        out2 = tmp_path / "r2.csv"
        invoke(runner, "run", "--algorithm", "dpgem", "--data", data,
               "--config", cfg, "--eps", "0.3", "--out", out2)
        assert all(r["eps"] == 0.3 for r in read_results(out2))

    def test_dotted_key_binds_one_command(self, runner, tmp_path):
        data = gen_dataset(runner, tmp_path, n=60, d=3)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("eps = 0.9\nrun.eps = 0.4\n")
        out = tmp_path / "r.csv"
        invoke(runner, "run", "--algorithm", "dpgem", "--data", data,
               "--config", cfg, "--out", out)
        assert all(r["eps"] == 0.4 for r in read_results(out))

    def test_bad_config_value_exits_2(self, runner, tmp_path):
        data = gen_dataset(runner, tmp_path, n=60, d=3)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("eps = very-private\n")
        result = runner.invoke(cli, [
            "run", "--data", str(data), "--config", str(cfg),
            "--out", str(tmp_path / "o.csv"),
        ])
        assert result.exit_code == 2

    @pytest.mark.parametrize("prefix", ["", "run."], ids=["bare", "dotted"])
    def test_out_and_data_from_file(self, runner, tmp_path, prefix):
        data = gen_dataset(runner, tmp_path, n=60, d=3)
        by_flags = tmp_path / "flags.csv"
        invoke(runner, "run", "--n-seeds", 2, "--data", data, "--out", by_flags)
        by_file = tmp_path / "file.csv"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"{prefix}data = {data}\n{prefix}out = {by_file}\n")
        result = invoke(runner, "run", "--n-seeds", 2, "--config", cfg)
        assert result.exit_code == 0, result.output
        assert by_file.read_bytes() == by_flags.read_bytes()

    def test_unsafe_no_noise_from_file(self, runner, tmp_path):
        data = gen_dataset(runner, tmp_path, n=60, d=3)
        by_flag = tmp_path / "flag.csv"
        invoke(runner, "run", "--unsafe-no-noise", "--data", data, "--out", by_flag)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("unsafe-no-noise = true\n")
        by_file = tmp_path / "file.csv"
        result = invoke(runner, "run", "--config", cfg, "--data", data, "--out", by_file)
        assert result.exit_code == 0
        assert "NON-PRIVATE" in result.stderr
        assert by_file.read_bytes() == by_flag.read_bytes()

    @pytest.mark.parametrize("name", ["gen", "run", "sweep", "preprocess"])
    def test_malformed_line_exits_3(self, runner, tmp_path, name):
        data = gen_dataset(runner, tmp_path, n=60, d=3)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("# experiment\nseed = 1\nseed 2\n")
        args = [name, "--config", str(cfg), "--out", str(tmp_path / "o.csv")]
        if name in ("run", "preprocess"):
            args += ["--data", str(data)]
        result = runner.invoke(cli, args)
        assert result.exit_code == 3
        assert "error: line 3:" in result.stderr

    def test_repeated_key_exits_3(self, runner, tmp_path):
        data = gen_dataset(runner, tmp_path, n=60, d=3)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("eps = 0.1\nn-seeds = 2\neps = 10\n")
        out = tmp_path / "r.csv"
        result = runner.invoke(cli, ["run", "--algorithm", "dpgem", "--data", str(data),
                                     "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 3
        assert "error: line 3: key 'eps' given twice" in result.stderr
        assert not out.exists()

    def test_dotted_key_of_another_command_ignored(self, runner, tmp_path):
        data = gen_dataset(runner, tmp_path, n=60, d=3)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("sweep.eps = 0.1\nsweep.eps-list = bogus\n")
        out = tmp_path / "r.csv"
        result = invoke(runner, "run", "--algorithm", "dpgem", "--data", data,
                        "--config", cfg, "--out", out)
        assert result.exit_code == 0
        assert all(r["eps"] == 1.0 for r in read_results(out))


class TestSweep:
    @pytest.mark.parametrize("model", ["gmm", "mrm"])
    def test_p_m_on_other_model_exits_2_before_any_task(
        self, runner, tmp_path, monkeypatch, model
    ):
        def started(*args):
            raise AssertionError("a sweep task started")

        monkeypatch.setattr(dpem.cli, "_run_parallel", started)
        monkeypatch.setattr(dpem.cli, "_run_forked", started)
        out = tmp_path / "s.csv"
        result = runner.invoke(cli, [
            "sweep", "--model", model, "--algorithm", "dpgem", "--p-m", "0.5",
            "--n-list", "200", "--d-list", "3", "--n-seeds", "1", "--out", str(out),
        ])
        assert result.exit_code == 2, result.output
        assert "p_m applies to the rmc model only" in result.stderr
        assert not out.exists()

    def test_row_counting(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        result = invoke(
            runner, "sweep", "--algorithm", "dpgem", "--n-list", 400,
            "--d-list", 3, "--eps-list", "0.2,0.5,1", "--n-seeds", 20,
            "--out", out,
        )
        assert result.exit_code == 0
        rows = read_results(out)
        T = math.ceil(math.log(400))
        assert len(rows) == 3 * 20 * (T + 1)

    def test_parallel_serial_identical(self, runner, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out, threads in ((a, 1), (b, 4)):
            result = invoke(
                runner, "sweep", "--algorithm", "dpgem", "--n-list", 300,
                "--d-list", "3,5", "--eps-list", "0.5,1", "--n-seeds", 4,
                "--threads", threads, "--out", out,
            )
            assert result.exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_clip_axis_only_for_clipped(self, runner, tmp_path):
        out = tmp_path / "c.csv"
        result = invoke(
            runner, "sweep", "--algorithm", "clipped", "--n-list", 200,
            "--d-list", 3, "--eps-list", "0.5", "--clip-list", "0.1,1",
            "--n-seeds", 2, "--out", out,
        )
        assert result.exit_code == 0
        rows = read_results(out)
        assert sorted({r["C"] for r in rows}) == [0.1, 1.0]

    def test_em_sweep_ignores_eps_axis(self, runner, tmp_path):
        out = tmp_path / "em.csv"
        result = invoke(
            runner, "sweep", "--algorithm", "em", "--n-list", 200,
            "--d-list", 3, "--eps-list", "0.2,0.5,1", "--n-seeds", 2,
            "--iters", 3, "--out", out,
        )
        assert result.exit_code == 0
        rows = read_results(out)
        assert len(rows) == 2 * 4
        assert all(r["eps"] == "" for r in rows)

    def test_unused_eps_axis_still_checked(self, runner, tmp_path):
        out = tmp_path / "em.csv"
        result = runner.invoke(cli, [
            "sweep", "--algorithm", "em", "--eps-list", "garbage", "--n-list", "100",
            "--d-list", "2", "--n-seeds", "1", "--out", str(out),
        ])
        assert result.exit_code == 2
        assert "error: eps-list:" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("flag, values", [
        ("n-list", "200,300,200"), ("d-list", "3,03"), ("eps-list", "0.5,0.5"),
        ("eps-list", "1,1.0"), ("clip-list", "0.1,1,1e-1"),
    ])
    def test_repeated_axis_value_exits_2(self, runner, tmp_path, flag, values):
        # a repeated value would write duplicate rows that report merges
        out = tmp_path / "s.csv"
        result = runner.invoke(cli, [
            "sweep", "--algorithm", "clipped", "--n-list", "200", "--d-list", "3",
            "--n-seeds", "2", f"--{flag}", values, "--out", str(out),
        ])
        assert result.exit_code == 2
        assert f"error: {flag}: expected distinct values, got '{values}'" in result.stderr
        assert not out.exists()

    def test_empty_axis_exits_2(self, runner, tmp_path):
        result = runner.invoke(cli, [
            "sweep", "--n-list", " ", "--out", str(tmp_path / "x.csv"),
        ])
        assert result.exit_code == 2

    def test_shared_data_across_eps(self, runner, tmp_path):
        # iteration-0 errors depend only on (data, init), so they must agree
        # across the eps axis
        out = tmp_path / "s.csv"
        invoke(
            runner, "sweep", "--algorithm", "dpgem", "--n-list", 300,
            "--d-list", 4, "--eps-list", "0.2,1", "--n-seeds", 3, "--out", out,
        )
        rows = [r for r in read_results(out) if r["iter"] == 0]
        by_eps = {}
        for r in rows:
            by_eps.setdefault(r["eps"], []).append(r["error"])
        assert by_eps[0.2] == by_eps[1.0]

    @pytest.mark.parametrize("algorithm", ["dpgem", "clipped"])
    def test_cells_independent_of_eps_axis(self, runner, tmp_path, monkeypatch,
                                           algorithm):
        # a cell's rows depend on its own coordinates only, and each
        # (n, d, seed) dataset is drawn once for all of its eps x clip cells
        log = tmp_path / "sampled.log"
        real = dpem.models.sample_observations

        def counting(model, n, *args, **kwargs):
            # one appended line per call, so that forked workers report theirs
            with open(log, "a") as fh:
                fh.write(f"{n}\n")
            return real(model, n, *args, **kwargs)

        monkeypatch.setattr(dpem.models, "sample_observations", counting)
        files = {}
        for eps_list in ("0.2", "0.2,0.5,1"):
            out = tmp_path / f"{eps_list}.csv"
            log.unlink(missing_ok=True)
            invoke(
                runner, "sweep", "--model", "mrm", "--algorithm", algorithm,
                "--n-list", "200,300", "--d-list", 3, "--eps-list", eps_list,
                "--clip-list", "0.5,1", "--n-seeds", 3, "--threads", 2,
                "--out", out,
            )
            sampled = log.read_text().splitlines()
            assert len(sampled) == 2 * 1 * 3
            files[eps_list] = read_results(out)
        wide = [r for r in files["0.2,0.5,1"] if r["eps"] == 0.2]
        assert len(files["0.2,0.5,1"]) == 3 * len(wide)
        assert files["0.2"] == wide

    def test_pool_never_outnumbers_tasks(self, runner, tmp_path, monkeypatch, processes):
        """Nor CPUs: 2 tasks on 4 CPUs and 4 tasks on 2 CPUs get a pool of 2,
        and 4 tasks on one CPU run serially, forking nothing."""
        sizes = []

        class Recording(process.ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                sizes.append(max_workers)
                # fail before forking, should the bound ever break
                assert max_workers <= 2, f"pool of {max_workers}"
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(process, "ProcessPoolExecutor", Recording)
        out = tmp_path / "s.csv"
        for n_seeds, cpus, pool in ((1, 4, 2), (2, 2, 2), (2, 1, 0)):
            sizes.clear()
            with processes(cpus) as forks:
                invoke(
                    runner, "sweep", "--model", "mrm", "--n-list", "200,300", "--d-list", 3,
                    "--eps-list", 1, "--n-seeds", n_seeds, "--iters", 2, "--threads", 64,
                    "--out", out,
                )
            assert sizes == ([pool] if pool else [])
            assert len(forks) == pool
            assert len(read_results(out)) == 2 * n_seeds * 3

    @pytest.mark.parametrize("args, code, message", [
        (["--model", "mrm", "--algorithm", "em", "--eta", "1e6", "--iters", "200",
          "--n-list", "200,300", "--d-list", "5", "--n-seeds", "2"],
         4, "diverged at iteration"),
        (["--algorithm", "dpgem", "--iters", "10", "--n-list", "5,6", "--d-list", "2"],
         2, "need n >= T, got n=5, T=10"),
    ], ids=["diverged", "domain"])
    def test_worker_error_keeps_exit_code(self, runner, tmp_path, args, code, message):
        out = tmp_path / "e.csv"
        stderr = set()
        for threads in ("1", "2"):
            result, _ = invoke_quiet(runner, ["sweep", *args, "--threads", threads,
                                              "--out", str(out)])
            assert result.exit_code == code, result.output
            assert message in result.stderr
            stderr.add(result.stderr)
        assert len(stderr) == 1
        assert not out.exists()

    def test_worker_error_cancels_queued_tasks(self, runner, tmp_path, monkeypatch):
        # the first task fails, eight slow ones follow; a parallel sweep
        # must stop at that error as the serial one does, not run them all.
        # By the cancel the pool has started the failed task, one task per
        # worker and threads + 1 in its call queue, which cannot be cancelled:
        # the bound 2*threads + 2 is met exactly.  One more start needs a task
        # (~0.4 s at d = 150, against ~20 ms at d = 20) to end before the
        # cancel, which follows the failure at once.
        log = tmp_path / "started.log"
        real = dpem.models.sample_observations

        def counting(model, n, *args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{n}\n")
            return real(model, n, *args, **kwargs)

        monkeypatch.setattr(dpem.models, "sample_observations", counting)
        n_list = ",".join(["5"] + [str(n) for n in range(4000, 4008)])
        outcomes = {}
        for threads in (1, 2):
            log.unlink(missing_ok=True)
            result, _ = invoke_quiet(runner, [
                "sweep", "--model", "mrm", "--algorithm", "dpgem", "--iters", "10",
                "--n-list", n_list, "--d-list", "150", "--eps-list", "1", "--n-seeds", "1",
                "--threads", str(threads), "--out", str(tmp_path / "e.csv")])
            started = log.read_text().splitlines()
            assert "5" in started
            assert len(started) <= 2 * threads + 2, (threads, started)
            outcomes[threads] = result.exit_code, result.stderr
        assert outcomes[1] == (2, "error: need n >= T, got n=5, T=10\n")
        assert outcomes[2] == outcomes[1]


class TestPreprocess:
    def write_labeled(self, path, feats, labels):
        d = feats.shape[1]
        header = ",".join([f"f{j + 1}" for j in range(d)] + ["label"])
        lines = [header]
        for row, lab in zip(feats, labels):
            lines.append(",".join([repr(float(v)) for v in row] + [str(int(lab))]))
        path.write_text("\n".join(lines) + "\n")

    def test_round_trip_against_generator(self, runner, tmp_path):
        rng = np.random.default_rng(23)
        beta = np.array([2.0, -1.0, 0.5])
        sigma, n = 1.1, 4000
        z = rng.integers(0, 2, size=n) * 2 - 1
        feats = z[:, None] * beta + sigma * rng.standard_normal((n, 3))
        labeled = tmp_path / "real.csv"
        self.write_labeled(labeled, feats, (z > 0).astype(int))
        out = tmp_path / "gmm.csv"
        result = invoke(runner, "preprocess", "--data", labeled, "--out", out)
        assert result.exit_code == 0
        meta = read_metadata(f"{out}.meta.json")
        got = np.array(meta["beta_star"])
        assert np.linalg.norm(got - beta) < 5 * sigma * math.sqrt(3 / n)
        assert meta["sigma"] ** 2 == pytest.approx(sigma ** 2, rel=0.10)
        assert meta["sigma_floor_applied"] is False
        data = read_dataset(out, "gmm")
        assert data.n == meta["n"]

    def test_missing_label_column_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("f1,f2,y\n1.0,2.0,1\n")
        result = runner.invoke(cli, [
            "preprocess", "--data", str(bad), "--out", str(tmp_path / "o.csv"),
        ])
        assert result.exit_code == 2
        assert "label" in result.stderr

    def test_bad_cell_is_data_error(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("f1,label\n1.0,1\nwhat,0\n1.0,1\n5,0\n")
        result = runner.invoke(cli, [
            "preprocess", "--data", str(bad), "--out", str(tmp_path / "o.csv"),
        ])
        assert result.exit_code == 3
        assert "line 3" in result.stderr

    def test_non_finite_feature_exits_3_with_line(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("f1,f2,label\n1.0,2.0,1\n-1.0,-2.0,0\n3.0,inf,1\n")
        result = runner.invoke(cli, [
            "preprocess", "--data", str(bad), "--out", str(tmp_path / "o.csv"),
        ])
        assert result.exit_code == 3
        assert "line 4" in result.stderr

    @pytest.mark.parametrize("labels, message", [
        ([1, 1, 1, 1], "both labels must be present"),
        ([1, 1, 0, 1], "each cluster needs at least 2 rows, got 1"),
    ], ids=["one-label", "one-row-cluster"])
    def test_label_faults_exit_3(self, runner, tmp_path, labels, message):
        bad = tmp_path / "bad.csv"
        self.write_labeled(bad, np.arange(8.0).reshape(4, 2), np.array(labels))
        out = tmp_path / "o.csv"
        result = runner.invoke(cli, ["preprocess", "--data", str(bad), "--out", str(out)])
        assert result.exit_code == 3
        assert f"error: {message}" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("algorithm", ["dpgem", "dpem"])
    def test_auto_tau_on_preprocessed_data_exits_2(self, runner, tmp_path, algorithm):
        # preprocess computes beta_star from the rows: tau=auto would set s
        # and sigma from the private data outside the budget
        rng = np.random.default_rng(5)
        labels = np.arange(40) % 2
        feats = (2 * labels - 1)[:, None] * 2.0 + rng.standard_normal((40, 2))
        self.write_labeled(tmp_path / "real.csv", feats, labels)
        data = tmp_path / "gmm.csv"
        invoke(runner, "preprocess", "--data", tmp_path / "real.csv", "--out", data)
        out = tmp_path / "run.csv"
        result = runner.invoke(cli, ["run", "--algorithm", algorithm, "--data", str(data),
                                     "--out", str(out)])
        assert result.exit_code == 2
        assert "error: tau: " in result.stderr
        assert not out.exists()
        result = invoke(runner, "run", "--algorithm", algorithm, "--data", data,
                        "--tau", "9", "--out", out)
        assert result.exit_code == 0
        assert out.exists()

    def test_only_a_generated_truth_is_public(self, runner, tmp_path, monkeypatch):
        # run_algorithm aligns beta0 with beta_star only where the truth is
        # public: gen's simulation parameter, not preprocess's estimate
        seen = []
        fit = dpem.estimators.run_algorithm

        def spy(*args, **kwargs):
            seen.append(kwargs["public_truth"])
            return fit(*args, **kwargs)

        monkeypatch.setattr(dpem.estimators, "run_algorithm", spy)
        rng = np.random.default_rng(6)
        labels = np.arange(40) % 2
        feats = (2 * labels - 1)[:, None] * 2.0 + rng.standard_normal((40, 2))
        self.write_labeled(tmp_path / "real.csv", feats, labels)
        invoke(runner, "preprocess", "--data", tmp_path / "real.csv",
               "--out", tmp_path / "real_gmm.csv")
        invoke(runner, "gen", "--n", 40, "--d", 2, "--out", tmp_path / "gen_gmm.csv")
        for name in ("real_gmm.csv", "gen_gmm.csv"):
            invoke(runner, "run", "--algorithm", "dpgem", "--data", tmp_path / name,
                   "--tau", "9", "--n-seeds", 2, "--out", tmp_path / "run.csv")
        assert seen == [False, False, True, True]

    def test_row_order_invariance(self, runner, tmp_path):
        feats = np.array(
            [[1.0, 2.0], [3.0, 4.0], [-1.0, 0.0], [5.0, -2.0]], dtype=float
        )
        labels = np.array([1, 0, 1, 0])
        a_in, b_in = tmp_path / "a.csv", tmp_path / "b.csv"
        self.write_labeled(a_in, feats, labels)
        order = [2, 0, 3, 1]  # per-cluster input order is preserved
        self.write_labeled(b_in, feats[order], labels[order])
        a_out, b_out = tmp_path / "ag.csv", tmp_path / "bg.csv"
        invoke(runner, "preprocess", "--data", a_in, "--out", a_out)
        invoke(runner, "preprocess", "--data", b_in, "--out", b_out)
        ma = read_metadata(f"{a_out}.meta.json")
        mb = read_metadata(f"{b_out}.meta.json")
        assert ma["beta_star"] == mb["beta_star"]
        assert ma["sigma"] == mb["sigma"]


class TestReport:
    def make_rows(self, errors, iters=1):
        rows = []
        for seed, err in enumerate(errors):
            for it in range(iters):
                rows.append(dict(
                    model="gmm", algorithm="dpgem", eps=0.5, delta=1e-4, d=3,
                    n=100, T=iters - 1, C="", seed=seed, iter=it,
                    error=float(err) + it, wall_ms=0.0,
                ))
        return rows

    def test_single_seed_quartiles_collapse(self, runner, tmp_path):
        src, out = tmp_path / "r.csv", tmp_path / "s.csv"
        write_results(src, self.make_rows([0.7]))
        result = invoke(runner, "report", "--data", src, "--out", out)
        assert result.exit_code == 0
        line = out.read_text().splitlines()[1]
        assert line.endswith("1,0.7,0.7,0.7")

    def test_median_of_three(self, runner, tmp_path):
        src, out = tmp_path / "r.csv", tmp_path / "s.csv"
        write_results(src, self.make_rows([1.0, 2.0, 3.0]))
        invoke(runner, "report", "--data", src, "--out", out)
        line = out.read_text().splitlines()[1]
        assert ",3,2.0," in line

    def test_quartiles_match_numpy_bitwise(self):
        """report computes its quartiles without numpy, bit for bit as
        np.percentile does.  Where 0.0 and -0.0 both occur they tie in the
        sort, and numpy's partition may order them otherwise than Python's
        stable sort, so only the numbers must agree there; report never meets
        -0.0, since errors are norms."""
        rng = np.random.default_rng(18)
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.79e308, -1.79e308, -2.5, 1.0]
        signed_zeros = 0
        for n in range(1, 61):
            for values in (
                rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300),
                rng.choice(rng.standard_normal(3), n),  # ties
                rng.integers(-40, 40, n) * 5e-324,  # subnormals
                np.full(n, -0.0),
                rng.choice(special, n),
                np.concatenate([rng.choice(special, n // 2), -rng.exponential(size=n - n // 2)]),
            ):
                with np.errstate(over="ignore", invalid="ignore"):  # b - a at +-1.79e308
                    want = np.percentile(values, [25, 50, 75])
                got = np.array(dpem.cli._quartiles(values.tolist()))
                zeros = np.signbit(values[values == 0])
                if zeros.any() and not zeros.all():
                    signed_zeros += 1
                    assert np.array_equal(got, want, equal_nan=True), values
                else:
                    assert got.tobytes() == want.tobytes(), values
        assert 0 < signed_zeros < 100

    def test_groups_by_iteration(self, runner, tmp_path):
        src, out = tmp_path / "r.csv", tmp_path / "s.csv"
        write_results(src, self.make_rows([1.0, 2.0], iters=3))
        invoke(runner, "report", "--data", src, "--out", out)
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 3

    def test_malformed_rows_exit_3(self, runner, tmp_path):
        src = tmp_path / "r.csv"
        src.write_text("model,algorithm\ngmm,dpgem\n")
        result = runner.invoke(cli, [
            "report", "--data", str(src), "--out", str(tmp_path / "s.csv"),
        ])
        assert result.exit_code == 3
        assert "line" in result.stderr


    @pytest.mark.parametrize("cell", ["inf", "nan", ""])
    def test_bad_error_cell_exits_3_with_line(self, runner, tmp_path, cell):
        src = tmp_path / "r.csv"
        write_results(src, self.make_rows([1.0, 2.0, 3.0]))
        lines = src.read_text().splitlines()
        lines[3] = lines[3].replace(",3.0,", f",{cell},")
        src.write_text("\n".join(lines) + "\n")
        result, runtime_warnings = invoke_quiet(runner, [
            "report", "--data", str(src), "--out", str(tmp_path / "s.csv"),
        ])
        assert result.exit_code == 3
        assert "line 4" in result.stderr
        assert runtime_warnings == []


# The csv module refuses a cell over its field size limit of 131,072
# characters; such a cell, finite as this one is, must be reported at its line
# by every reader, so the C-parsed dataset read refuses any line that long.
LONG_CELL = "0." + "1" * 140_000


@pytest.mark.parametrize("command, model, line", [
    ("run", "rmc", 6),
    ("run", "mrm", 6),
    ("run", "gmm", 1),  # the header
    ("report", None, 4),
    ("preprocess", None, 3),
], ids=["run-rmc", "run-mrm", "run-gmm-header", "report", "preprocess"])
def test_cell_over_csv_field_limit_exits_3_with_line(runner, tmp_path, command, model, line):
    if command == "run":
        path = gen_dataset(runner, tmp_path, model=model, n=50, d=3)
    else:
        path = tmp_path / "in.csv"
        if command == "report":
            write_results(path, TestReport().make_rows([1.0, 2.0, 3.0]))
        else:
            path.write_text("f1,f2,label\n1.0,2.0,1\n-1.0,-2.0,0\n3.0,1.0,1\n")
    lines = path.read_text().splitlines()
    lines[line - 1] = LONG_CELL + "," + lines[line - 1].split(",", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    result = runner.invoke(cli, [command, "--data", str(path), "--out", str(tmp_path / "o.csv")])
    assert result.exit_code == 3, result.output
    assert f"error: line {line}: field larger than field limit" in result.stderr


@pytest.mark.parametrize("command, target, line", [
    ("run", "dataset", 6),
    ("run", "metadata", 3),
    ("report", "results", 4),
    ("preprocess", "labeled", 3),
    ("gen", "config", 2),
])
def test_undecodable_byte_exits_3_with_line(runner, tmp_path, command, target, line):
    """A byte the text encoding cannot decode is a data error at its line."""
    args = [command, "--out", str(tmp_path / "o.csv")]
    if command == "run":
        path = gen_dataset(runner, tmp_path, n=50, d=3)
        args += ["--data", str(path)]
        if target == "metadata":
            path = tmp_path / "data.csv.meta.json"
    elif command == "gen":
        path = tmp_path / "exp.cfg"
        path.write_text("n = 50\nseed = 1\n")
        args += ["--config", str(path)]
    else:
        path = tmp_path / "in.csv"
        if command == "report":
            write_results(path, TestReport().make_rows([1.0, 2.0, 3.0]))
        else:
            path.write_text("f1,f2,label\n1.0,2.0,1\n-1.0,-2.0,0\n3.0,1.0,1\n")
        args += ["--data", str(path)]
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] = b"\xff" + lines[line - 1]
    path.write_bytes(b"\n".join(lines))
    result = runner.invoke(cli, args)
    assert result.exit_code == 3, result.output
    assert f"error: line {line}: cannot decode byte 0xff" in result.stderr


class TestEndToEnd:
    def test_gen_run_report(self, runner, tmp_path):
        data = gen_dataset(runner, tmp_path, n=120, d=4, seed=11)
        rows_path = tmp_path / "rows.csv"
        result = invoke(
            runner, "run", "--algorithm", "clipped", "--eps", 1.0,
            "--n-seeds", 5, "--data", data, "--out", rows_path,
        )
        assert result.exit_code == 0
        summary_path = tmp_path / "summary.csv"
        result = invoke(runner, "report", "--data", rows_path, "--out", summary_path)
        assert result.exit_code == 0
        lines = summary_path.read_text().splitlines()
        T = math.ceil(math.log(120))
        assert len(lines) == 1 + (T + 1)
        assert all(",5," in line for line in lines[1:])
