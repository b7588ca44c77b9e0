import os
from contextlib import contextmanager

import pytest


@pytest.fixture()
def processes(monkeypatch):
    """processes(cpus): a context that runs its block as if this process
    could run on cpus CPUs and yields the pids of the children forked in it.
    On leaving, it asserts that every child was reaped."""

    @contextmanager
    def on_cpus(cpus):
        forks, fork = [], os.fork

        def counted():
            if pid := fork():
                forks.append(pid)
            return pid

        with monkeypatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            patch.setattr(os, "fork", counted)
            yield forks
        with pytest.raises(ChildProcessError):  # every child was reaped
            os.waitpid(-1, os.WNOHANG)

    return on_cpus
