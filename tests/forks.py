"""Helpers for tests of the forked workers that cross-validation folds and tree growth run in."""

from __future__ import annotations

import os

import pytest


def _cpus(monkeypatch, n: int) -> None:
    """Let a map see n usable CPUs, so it runs up to n workers on any machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _count_forks(monkeypatch) -> list:
    forks, real_fork = [], os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
