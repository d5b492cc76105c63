"""Fixtures shared by the test modules."""

import multiprocessing.process
import os
import subprocess

import pytest


@pytest.fixture
def no_process(monkeypatch):
    """Fail the test if it starts a process: a fork, a subprocess or a
    multiprocessing worker."""

    def refuse(*args, **kwargs):
        raise AssertionError("no process may start")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(subprocess, "Popen", refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
