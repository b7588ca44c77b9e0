"""CLI behaviour that only a new interpreter shows.

No command loads scipy: the package needs only numpy and click, and the
smoothed-truncation kernel computes the normal CDF itself.  The process pool
is imported only by a sweep that forks workers, and ``report`` and ``--help``
load neither numpy nor any fitting module.  The test process has long
since imported all of these, so each case here runs in a fresh interpreter
on this checkout's source; the probe also reports what forked sweep workers
loaded, and a second harness makes every scipy import fail, as if scipy were
not installed.  The check that a kernel call holds no memory once it
returns runs in a fresh interpreter too: memory that an earlier call in the
test process still held would escape a trace started after it.  So do the
traced peaks of sampling, writing and reading a dataset, the peak RSS of the
commands that write and read one on two processes, and a check that the
forked child flushes none of its parent's output.  The BLAS threads a CLI
process runs are counted in a fresh interpreter too, since the test process
loaded numpy before dpem.cli could pin them, and a library caller that kept
two BLAS threads writes the CLI's bytes there.  So are the modules each
command loads: no command loads OpenSSL's _hashlib, only the robust fits
load the kernel, and only its far regime numpy.polynomial.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import dpem
from dpem.cli import cli
from dpem.io import _cpus, write_results

SRC = str(Path(dpem.__file__).resolve().parent.parent)

# Runs the dpem CLI on its own arguments, then prints which of the watched
# modules the process or any forked worker of it loaded, as the last line of
# its output.  Each worker writes its list to a file in the
# working directory after every task.
PROBE = """\
import glob, os, sys
import dpem.cli
from dpem.cli import cli
WATCHED = ("scipy", "scipy.special", "multiprocessing", "concurrent.futures.process",
           "numpy", "concurrent.futures", "dpem.estimators", "dpem.models", "dpem.robust",
           "dpem.numeric", "dpem.accounting", "dpem.validation", "_hashlib",
           "numpy.polynomial")
install = dpem.cli._install_worker

def loaded():
    # a module marked absent is held as None
    return [m for m in WATCHED if sys.modules.get(m) is not None]

def install_probed(worker):
    def probed(spec):
        try:
            return worker(spec)
        finally:
            with open(f"probe-{os.getpid()}.txt", "w") as fh:
                fh.write(",".join(loaded()))
    install(probed)

dpem.cli._install_worker = install_probed
try:
    cli.main(args=sys.argv[1:], prog_name="dpem")
except SystemExit as exc:
    if exc.code:
        raise
seen = set(loaded())
for path in glob.glob("probe-*.txt"):
    with open(path) as fh:
        seen.update(fh.read().split(","))
    os.remove(path)
print(",".join(m for m in WATCHED if m in seen))
"""

# Runs the dpem CLI on its own arguments with every scipy import failing.
# Forked workers inherit the hook.
NO_SCIPY = """\
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, NoScipy())
from dpem.cli import cli
cli.main(args=sys.argv[1:], prog_name="dpem")
"""


def fresh(args, cwd, env=()):
    """Run a new interpreter with this checkout's dpem on its path, and the
    variables env on top of this process's; its stdout."""
    path = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, **dict(env), "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def probed_modules(args, cwd):
    return fresh(["-c", PROBE, *args], cwd).splitlines()[-1].split(",")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A gmm dataset, a labelled file for preprocess and a result file for report."""
    root = tmp_path_factory.mktemp("fresh")
    result = CliRunner().invoke(cli, ["gen", "--n", "400", "--d", "3",
                                      "--out", str(root / "gmm.csv")])
    assert result.exit_code == 0, result.output
    (root / "labeled.csv").write_text(
        "f1,f2,label\n1.5,-0.5,1\n-1.4,0.6,0\n1.7,-0.2,1\n-1.3,0.4,0\n")
    # more than one block of rows, so it is written and read on two processes
    result = CliRunner().invoke(cli, ["gen", "--model", "rmc", "--p-m", "0.2", "--n", "3000",
                                      "--d", "3", "--out", str(root / "rmc.csv")])
    assert result.exit_code == 0, result.output
    write_results(root / "rows.csv", [dict(
        model="gmm", algorithm="em", eps="", delta="", d=3, n=400, T=1, C="", seed=seed,
        iter=it, error=1.0 / (1 + seed + it), wall_ms=0.0) for seed in range(3) for it in (0, 1)])
    return root


NO_KERNEL = {
    "help": ["--help"],
    "gen-gmm": ["gen", "--n", "50", "--d", "3", "--out", "g.csv"],
    "gen-rmc": ["gen", "--model", "rmc", "--p-m", "0.2", "--n", "50", "--d", "3",
                "--out", "r.csv"],
    "preprocess": ["preprocess", "--data", "labeled.csv", "--out", "p.csv"],
    "report": ["report", "--data", "rows.csv", "--out", "s.csv"],
    "run-em": ["run", "--algorithm", "em", "--data", "gmm.csv", "--out", "em.csv"],
    "run-clipped": ["run", "--algorithm", "clipped", "--data", "gmm.csv", "--out", "c.csv"],
}


@pytest.mark.parametrize("module", ["dpem", "dpem.cli"])
def test_import_loads_no_scipy(module, tmp_path):
    loaded = fresh(["-c", f"import sys, {module}; print('scipy' in sys.modules)"], tmp_path)
    assert loaded.strip() == "False"


POOL = ["multiprocessing", "concurrent.futures", "concurrent.futures.process"]


@pytest.mark.parametrize("command", sorted(NO_KERNEL))
def test_command_without_kernel_loads_no_scipy(inputs, command):
    """Neither scipy, the process pool nor OpenSSL's _hashlib, which
    numpy.random's secrets import loads unless the cli group has marked it
    absent.  No fit here loads the kernel, which dpem.estimators imports in
    the robust plans alone, nor the kernel's numpy.polynomial, and gen loads
    no fitting module."""
    loaded = set(probed_modules(NO_KERNEL[command], inputs))
    assert not {"scipy", "scipy.special", *POOL, "_hashlib", "dpem.robust",
                "numpy.polynomial"} & loaded
    if command.startswith("gen"):
        assert not {"dpem.estimators", "dpem.accounting"} & loaded


@pytest.mark.parametrize("command", ["help", "report"])
def test_command_without_fits_loads_no_numerics(inputs, command):
    """Nothing watched: no numpy, no pool and no fitting module."""
    assert probed_modules(NO_KERNEL[command], inputs) == [""]


def test_import_loads_no_submodule(tmp_path):
    """import dpem binds its public names on first use, not on import."""
    loaded = fresh(["-c", "import sys, dpem; "
                          "print(sorted(m for m in sys.modules if m.startswith('dpem')))"],
                   tmp_path)
    assert loaded.strip() == "['dpem']"


KERNEL = {
    "run-dpgem": ["run", "--algorithm", "dpgem", "--data", "gmm.csv", "--out", "dpgem.csv"],
    "sweep-dpgem-forked": ["sweep", "--algorithm", "dpgem", "--n-list", "200", "--d-list", "2",
                           "--eps-list", "0.5,1", "--n-seeds", "2", "--threads", "2",
                           "--out", "dpgem-sweep.csv"],
}


@pytest.mark.parametrize("command", sorted(KERNEL))
def test_kernel_loads_no_scipy(inputs, command):
    """The kernel without scipy or _hashlib, in the process and in the
    forked sweep's workers."""
    loaded = set(probed_modules(KERNEL[command], inputs))
    assert "dpem.robust" in loaded
    assert not {"scipy", "scipy.special", "_hashlib"} & loaded


# Prints whether numpy.polynomial is loaded after a kernel call that meets
# only the closed form, then after one that meets the far regime.
QUADRATURE = """\
import sys
import numpy as np
from dpem.robust import RobustMeanParams, robust_mean_columns
params = RobustMeanParams(s=1.0, beta=1.0)
for value in (0.5, 50.0):
    robust_mean_columns(np.full((4, 2), value), params)
    print("numpy.polynomial" in sys.modules)
"""


def test_kernel_loads_its_quadrature_on_first_far_entry(tmp_path):
    """The far regime's Gauss-Legendre rule comes from numpy.polynomial."""
    assert fresh(["-c", QUADRATURE], tmp_path).split() == ["False", "True"]


# Runs a command, then prints whether _hashlib is loaded and a SHA-256.
HASH_AFTER_COMMAND = """\
import sys
from dpem.cli import cli
try:
    cli.main(args=["gen", "--n", "50", "--d", "3", "--out", "g.csv"], prog_name="dpem")
except SystemExit as exc:
    if exc.code:
        raise
import hashlib
print(sys.modules.get("_hashlib") is not None, hashlib.sha256(b"abc").hexdigest())
"""


def test_hashlib_works_after_a_command(tmp_path):
    """hashlib falls back to CPython's builtin hashes."""
    assert fresh(["-c", HASH_AFTER_COMMAND], tmp_path).split()[-2:] == [
        "False", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"]


# Runs a command without click's exit, then imports _hashlib and prints a
# name that only OpenSSL's hashlib has.
IMPORT_AFTER_COMMAND = """\
from dpem.cli import cli
cli.main(args=["gen", "--n", "50", "--d", "3", "--out", "g.csv"], prog_name="dpem",
         standalone_mode=False)
import _hashlib
print(hasattr(_hashlib, "openssl_sha256"))
"""


def test_hashlib_importable_after_a_command(tmp_path):
    """The group takes its absent mark back when the command ends."""
    assert fresh(["-c", IMPORT_AFTER_COMMAND], tmp_path).split()[-1] == "True"


# Loads _hashlib, runs a command through CliRunner, then prints whether the
# module held in sys.modules is still the one loaded.
HASHLIB_LOADED_FIRST = """\
import sys
import _hashlib
from click.testing import CliRunner
from dpem.cli import cli
result = CliRunner().invoke(cli, ["gen", "--n", "50", "--d", "3", "--out", "g.csv"])
assert result.exit_code == 0, result.output
print(sys.modules["_hashlib"] is _hashlib)
"""


def test_cli_keeps_a_loaded_hashlib(tmp_path):
    """A caller that loaded _hashlib before a command keeps it."""
    assert fresh(["-c", HASHLIB_LOADED_FIRST], tmp_path) == "True\n"


@pytest.mark.parametrize("command", [
    ["run", "--algorithm", "dpem", "--data", "gmm.csv", "--n-seeds", "4", "--threads", "2"],
    ["sweep", "--algorithm", "dpgem", "--model", "mrm", "--n-list", "200", "--d-list", "2",
     "--eps-list", "0.5,1", "--n-seeds", "2", "--threads", "2"],
], ids=["run-dpem", "sweep-dpgem"])
def test_fits_without_scipy(inputs, tmp_path, command):
    """The same bytes with scipy unimportable, in the process and in forked
    workers, as with it installed."""
    outputs = []
    for harness in (["-c", NO_SCIPY], ["-m", "dpem.cli"]):
        out = tmp_path / f"out{len(outputs)}.csv"
        fresh([*harness, *command, "--out", str(out)], inputs)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


SWEEP = ["sweep", "--algorithm", "em", "--n-list", "50", "--d-list", "2", "--n-seeds", "2",
         "--iters", "2", "--out", "sweep.csv"]


@pytest.mark.parametrize("args, pool", [
    # run forks its workers as io does, with neither module
    (["run", "--algorithm", "dpem", "--data", "gmm.csv", "--n-seeds", "2", "--threads", "2",
      "--out", "dpem.csv"], False),
    (SWEEP + ["--threads", "1"], False),
    (SWEEP + ["--threads", "2"], True),
    # the dataset I/O forks one child, with neither module
    (["gen", "--model", "rmc", "--p-m", "0.2", "--n", "3000", "--d", "3", "--out", "big.csv"],
     False),
    (["run", "--algorithm", "em", "--data", "rmc.csv", "--threads", "1", "--out", "em1.csv"],
     False),
], ids=["run-threads-2", "sweep-threads-1", "sweep-threads-2", "gen", "run-threads-1"])
def test_only_a_parallel_sweep_loads_the_process_pool(inputs, args, pool):
    """On one CPU a sweep at --threads 2 stays serial and loads no pool."""
    loaded = probed_modules(args, inputs)
    assert [m for m in POOL if m in loaded] == (POOL if pool and _cpus() > 1 else [])


@pytest.mark.parametrize("command", [
    ["run", "--algorithm", "dpem", "--data", "gmm.csv", "--n-seeds", "4"],
    ["sweep", "--algorithm", "dpgem", "--model", "mrm", "--n-list", "200", "--d-list", "2",
     "--eps-list", "0.5,1", "--n-seeds", "2"],
], ids=["run-dpem", "sweep-dpgem"])
def test_same_bytes_at_one_and_two_workers(inputs, tmp_path, command):
    """Forked workers of a new interpreter, each making its first kernel
    calls, write the bytes of a one-worker run."""
    outputs = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}.csv"
        fresh(["-m", "dpem.cli", *command, "--threads", str(threads), "--out", str(out)], inputs)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


# Prints the MiB of traced memory still held after one 5000x50 kernel call,
# then the call's traced peak.  The matrix comes first, so it is not counted.
RETAINED = """\
import tracemalloc
import numpy as np
from dpem.robust import RobustMeanParams, robust_mean_columns
matrix = np.random.default_rng(0).standard_normal((5000, 50)) * 3.0
tracemalloc.start()
robust_mean_columns(matrix, RobustMeanParams(s=6.1, beta=2.6))
print(*(mib / 2**20 for mib in tracemalloc.get_traced_memory()))
"""


def test_kernel_holds_no_memory_after_a_call(tmp_path):
    # the peak is the 15-row float scratch of one 1310-row block (7.5 MiB),
    # the 1311 rows of results it reuses (0.5 MiB) and the block's
    # temporaries: 8.9 MiB, where a 5000-row result and the whole matrix's
    # kernel values took it to 10.3 MiB
    retained_mib, peak_mib = map(float, fresh(["-c", RETAINED], tmp_path).split())
    assert retained_mib < 1.0
    assert peak_mib < 9.0


# Prints the traced peak, in MiB, of a one-iteration dp_em_gmm fit on 5000
# and on 40000 rows of d = 50, each after an untraced fit on the same data.
# The data comes first, so it is not counted.
DPEM_PEAKS = """\
import tracemalloc
import numpy as np
from dpem.accounting import make_budget
from dpem.estimators import dp_em_gmm
from dpem.models import ModelSpec, sample_observations
from dpem.numeric import RngStream
model, budget = ModelSpec("gmm", 50, 1.0), make_budget(0.5, 1e-5)
for n in (5000, 40000):
    data = sample_observations(model, n, np.full(50, 0.3), RngStream(1))
    def fit():
        dp_em_gmm(data, model, np.full(50, 0.1), 5.0, 1, budget, 0.05, RngStream(2))
    fit()
    tracemalloc.start()
    fit()
    print(tracemalloc.get_traced_memory()[1] / 2**20)
    tracemalloc.stop()
"""


def test_a_dpem_iteration_holds_no_n_by_d_matrix(tmp_path):
    # 7.1 MiB at both sizes; a release that formed the n x d values and the
    # kernel's n x d output read 11.6 and 38.1 MiB
    small, large = map(float, fresh(["-c", DPEM_PEAKS], tmp_path).split())
    assert abs(large - small) < 1.0, (small, large)


# Prints the traced peaks of writing and of reading back a 25000x20 rmc
# dataset on two processes, each as a multiple of the table's 4.0 MiB of
# floats, then the most traced memory the child of each held as it sent a
# message.  The observations come first, so they are not counted.  The
# children inherit the trace; tracemalloc sees only this process's peaks.
DATASET_PEAKS = """\
import os, tracemalloc
import numpy as np
import dpem.io
from dpem.io import read_dataset, write_dataset
from dpem.models import ModelSpec, sample_observations
from dpem.numeric import RngStream
os.sched_getaffinity = lambda pid: {0, 1}
send = dpem.io._send
def traced_send(out, data):
    with open(f"held-{os.getpid()}.txt", "a") as fh:
        fh.write(f"{tracemalloc.get_traced_memory()[0]}\\n")
    send(out, data)
dpem.io._send = traced_send
def held():
    [path] = [p for p in os.listdir() if p.startswith("held-")]
    with open(path) as fh:
        most = max(map(int, fh))
    os.remove(path)
    return most / table
obs = sample_observations(ModelSpec("rmc", 20, 1.0, p_m=0.2), 25000, np.full(20, 0.5),
                          RngStream(3))
table = 25000 * 21 * 8
tracemalloc.start()
write_dataset("rmc.csv", obs)
write = tracemalloc.get_traced_memory()[1] / table
write_child = held()
tracemalloc.reset_peak()
read_dataset("rmc.csv", "rmc")
print(write, tracemalloc.get_traced_memory()[1] / table, write_child, held())
"""


def test_dataset_files_stream(tmp_path):
    # whole-table Python lists peaked at 5.4x (write) and 7.5x (read);
    # rows streamed through 1024-row blocks and one growing array read 1.9x
    # and 3.6x; building the rmc covariates in one owned copy reads 2.4x.
    # A write that built the whole NaN-marked table first read 1.95x, and
    # its child, which inherited that table, 1.10x; each block's table
    # built from the observations reads 0.33x and 0.10x.  The reading child
    # holds its half of the rows and its bytes (1.03x); a writing child
    # that held its half as Python floats read 3.29x
    write, read, write_child, read_child = map(
        float, fresh(["-c", DATASET_PEAKS], tmp_path).split())
    assert write < 0.5
    assert read < 3.0
    assert write_child < 0.25
    assert read_child < 1.5


# Prints the traced peaks of sampling 25000x20 rmc (p_m = 0.2) and gmm
# observations, each as a multiple of its dataset file's table of floats
# (21 and 20 columns).  A small draw first makes each model's one-time
# allocations, so they are not counted.
SAMPLING_PEAKS = """\
import tracemalloc
import numpy as np
from dpem.models import ModelSpec, sample_observations
from dpem.numeric import RngStream
for kind, p_m, width in (("rmc", 0.2, 21), ("gmm", 0.0, 20)):
    model = ModelSpec(kind, 20, 1.0, p_m=p_m)
    sample_observations(model, 10, np.full(20, 0.5), RngStream(3))
    tracemalloc.start()
    sample_observations(model, 25000, np.full(20, 0.5), RngStream(3))
    print(tracemalloc.get_traced_memory()[1] / (25000 * width * 8))
    tracemalloc.stop()
"""


def test_sampling_holds_one_table(tmp_path):
    # whole-array arithmetic read 2.38x (rmc: the masked copy beside the
    # mask's n x d uniforms) and 2.18x (gmm: z * beta_star beside the
    # scaled normals); in place, with those terms made 1024 rows at a
    # time, 1.43x and 1.18x: the table, the mask and the set's checks
    rmc, gmm = map(float, fresh(["-c", SAMPLING_PEAKS], tmp_path).split())
    assert rmc < 1.6
    assert gmm < 1.3


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Prints the threads this process runs after import dpem.cli and one
# 25000x20 matrix-vector product, which BLAS would split across threads.
THREADS_AFTER_PRODUCT = """\
import os
import dpem.cli
import numpy as np
np.ones((25000, 20)) @ np.ones(20)
print(len(os.listdir("/proc/self/task")))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
def test_cli_runs_one_blas_thread(tmp_path):
    """Whatever the caller exported: dpem runs in parallel by processes."""
    env = dict.fromkeys(BLAS_THREADS, "2")
    assert fresh(["-c", THREADS_AFTER_PRODUCT], tmp_path, env) == "1\n"


# 23040 x 20 is the fewest rows at d = 20 at which OpenBLAS 0.3.31 splits a
# matrix-vector product across two threads; when em's products were BLAS's,
# the run's error cells then differed in their last bits
def wide_rmc(root):
    fresh(["-m", "dpem.cli", "gen", "--model", "rmc", "--p-m", "0.2", "--n", "23040",
           "--d", "20", "--out", "rmc.csv"], root)


def test_run_bytes_do_not_depend_on_the_callers_blas_threads(tmp_path):
    wide_rmc(tmp_path)
    outputs = []
    for threads in ("1", "2"):
        fresh(["-m", "dpem.cli", "run", "--algorithm", "em", "--data", "rmc.csv",
               "--out", f"em{threads}.csv"], tmp_path, dict.fromkeys(BLAS_THREADS, threads))
        outputs.append((tmp_path / f"em{threads}.csv").read_bytes())
    assert outputs[0] == outputs[1]


# Runs em on rmc.csv through CliRunner, as a library caller that loaded numpy
# before dpem.cli, and so kept the BLAS threads it exported, would.
LIBRARY_RUN = """\
import numpy
from click.testing import CliRunner
from dpem.cli import cli
result = CliRunner().invoke(cli, ["run", "--algorithm", "em", "--data", "rmc.csv",
                                  "--out", "library.csv"])
assert result.exit_code == 0, result.output
"""


def test_library_caller_with_blas_threads_writes_the_cli_bytes(tmp_path):
    wide_rmc(tmp_path)
    fresh(["-m", "dpem.cli", "run", "--algorithm", "em", "--data", "rmc.csv",
           "--out", "cli.csv"], tmp_path)
    fresh(["-c", LIBRARY_RUN], tmp_path, dict.fromkeys(BLAS_THREADS, "2"))
    assert (tmp_path / "library.csv").read_bytes() == (tmp_path / "cli.csv").read_bytes()


# Runs the dpem CLI on the arguments after the first, which names the one
# CPU to pin the process to, or is "all" to leave its mask as it is.
PINNED = """\
import os, sys
if sys.argv[1] != "all":
    os.sched_setaffinity(0, {int(sys.argv[1])})
from dpem.cli import cli
cli.main(args=sys.argv[2:], prog_name="dpem")
"""


# Runs a new interpreter on its own arguments and prints that process's peak
# RSS in MB, from wait4, which also counts the children it reaped.
PEAK_RSS = """\
import os, subprocess, sys
proc = subprocess.Popen([sys.executable, *sys.argv[1:]], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
assert os.waitstatus_to_exitcode(status) == 0
print(usage.ru_maxrss / 1024)
"""


def peak_rss_mb(args, cwd) -> float:
    """The peak RSS of a new interpreter running args.  It is started from
    a second new interpreter, not from the test process: a child that
    subprocess starts by vfork keeps its parent's peak RSS as a floor."""
    return float(fresh(["-c", PEAK_RSS, *args], cwd))


# Runs the dpem CLI on its own arguments after loading _hashlib, and with it
# OpenSSL's libcrypto, as a caller that hashed before it would.
HASHLIB_FIRST = """\
import hashlib, runpy
runpy.run_module("dpem.cli", run_name="__main__")
"""


def test_cli_maps_no_openssl(inputs):
    """A relative bound, which holds on any host: without libcrypto a
    clipped run's peak RSS is at least 2 MB below the same command's in a
    process that loaded _hashlib first (3.3 MB lower on the 25000x20 rmc
    file, 48.5 against 45.2 MB)."""
    args = ["run", "--algorithm", "clipped", "--data", "rmc.csv", "--out", "c-rss.csv"]
    lean = peak_rss_mb(["-m", "dpem.cli", *args], inputs)
    hashed = peak_rss_mb(["-c", HASHLIB_FIRST, *args], inputs)
    assert lean <= hashed - 2.0, (lean, hashed)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="two processes need two CPUs")
def test_two_processes_hold_no_more_memory(tmp_path):
    # a whole-half child took gen's peak from 51.4 to 66.0 MB; alternating
    # blocks read 51.3 pinned and 51.5 MB on two CPUs, run 47.9 and 48.1 MB
    one = str(min(os.sched_getaffinity(0)))
    for args in (["gen", "--model", "rmc", "--p-m", "0.2", "--n", "25000", "--d", "20",
                  "--out", "rmc.csv"],
                 ["run", "--algorithm", "em", "--data", "rmc.csv", "--out", "em.csv"]):
        pinned, both = (peak_rss_mb(["-c", PINNED, cpus, *args], tmp_path) for cpus in (one, "all"))
        assert both <= pinned + 2.0, (args[0], pinned, both)


# Leaves a line in a block-buffered stdout, whatever PYTHONUNBUFFERED says,
# while a dataset of three blocks is written and read on two processes and
# while a third child runs to its exit, then prints the rows read and the
# number of children forked.  The first two may be killed before they exit.
FORKED_IO = """\
import os, sys
sys.stdout = open(sys.stdout.fileno(), "w", closefd=False)
print("before")
os.sched_getaffinity = lambda pid: {0, 1}
forks, fork = [], os.fork
def counted():
    if pid := fork():
        forks.append(pid)
    return pid
os.fork = counted
import numpy as np
from dpem.io import _forked, read_dataset, write_dataset
from dpem.models import ModelSpec, sample_observations
from dpem.numeric import RngStream
obs = sample_observations(ModelSpec("rmc", 3, 1.0, p_m=0.2), 3000, np.full(3, 0.5), RngStream(1))
write_dataset("rmc.csv", obs)
rows = read_dataset("rmc.csv", "rmc").n
with _forked(lambda out: None) as child:
    child.read()  # to the end of the pipe: the child has exited
print(rows, len(forks))
"""


def test_forked_child_prints_nothing(tmp_path):
    assert fresh(["-c", FORKED_IO], tmp_path) == "before\n3000 3\n"



# Installs the benchmark's tracer the way bench/traced_cli.py does, after a
# bare import of dpem.cli, runs the dpem arguments that follow the bench
# directory under it and prints the names the tracer missed, then the span
# names the run recorded.
TRACED = """\
import sys
import dpem.cli
sys.path.insert(0, sys.argv[1])
from tracer import Tracer
tracer = Tracer("guard")
tracer.install()
dpem.cli.cli.main(sys.argv[2:], prog_name="dpem", standalone_mode=False)
print(",".join(tracer.missing))
print(",".join(sorted({span[2] for span in tracer.spans})))
"""
BENCH = str(Path(__file__).resolve().parents[1] / "bench")


def traced_spans(args, cwd):
    """The names the tracer missed and the span names, over a run of args."""
    missing, spans = fresh(["-c", TRACED, BENCH, *args], cwd).splitlines()[-2:]
    return missing, set(spans.split(","))


def test_tracer_sees_lazily_imported_layers(tmp_path):
    """The fitting modules load after dpem.cli, inside the commands; the
    tracer must still bind every traced name and see the calls."""
    missing, spans = traced_spans(["gen", "--n", "50", "--d", "3", "--out", "g.csv"],
                                  tmp_path)
    assert missing == ""
    assert {"models.sample_observations", "io.write_dataset", "io.write_metadata"} <= spans


def test_tracer_sees_a_one_worker_run(inputs):
    """One worker fits in the process on the serial path, which the tracer
    wraps: the pool span and the kernel's spans are there."""
    missing, spans = traced_spans(["run", "--algorithm", "dpem", "--data", "gmm.csv",
                                   "--n-seeds", "2", "--threads", "1", "--out", "dpem.csv"],
                                  inputs)
    assert missing == ""
    assert {"cli.pool", "cli.worker", "robust.robust_mean_columns"} <= spans


def test_tracer_sees_this_processes_share_of_two_workers(inputs):
    """At two workers this process fits one share of the seeds itself, and
    a forked child the other: the tracer still sees the kernel's spans."""
    missing, spans = traced_spans(["run", "--algorithm", "dpem", "--data", "gmm.csv",
                                   "--n-seeds", "2", "--threads", "2", "--out", "dpem2.csv"],
                                  inputs)
    assert missing == ""
    assert {"cli.pool", "cli.worker", "robust.robust_mean_columns"} <= spans


def test_tracer_sees_a_dpgem_sweep(inputs):
    """A serial dpgem sweep streams each subset's gradients through the
    kernel: the tracer still sees the kernel's and the gradients' spans."""
    missing, spans = traced_spans(["sweep", "--model", "mrm", "--algorithm", "dpgem",
                                   "--n-list", "300", "--d-list", "3", "--eps-list", "0.5",
                                   "--n-seeds", "2", "--threads", "1",
                                   "--out", "dpgem-sweep-traced.csv"], inputs)
    assert missing == ""
    assert {"robust.robust_mean_columns", "models.grad_q_batch"} <= spans
