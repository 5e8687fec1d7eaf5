"""A switch from the native routing kernels to Python is never silent.

Failing to build or load the kernel logs one warning naming the reason
(the ``REPRO_NO_NATIVE`` opt-out stays quiet), and a capacity failure
of the A* batch kernel, after which the circuit reruns in Python, is
both logged and counted as ``astar.native_fallbacks``.  None of these
tests needs a working C compiler.
"""

import hashlib
import logging
import os
import tempfile

import pytest

from repro.devices import ibm_qx5
from repro.mapping.routing import _astar_native, route_astar
from repro.mapping.routing._astar_native import kernel_stats
from repro.obs import Tracer, use_tracer
from repro.perf.bench import fingerprint
from repro.workloads import random_circuit

LOGGER = _astar_native.__name__


@pytest.fixture
def unresolved(monkeypatch, tmp_path):
    """Forget the resolved kernel and build into an empty cache dir."""
    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(_astar_native, "_lib", None)
    monkeypatch.setattr(_astar_native, "_lib_resolved", False)
    monkeypatch.setattr(_astar_native, "_build_calls", 0)
    return tmp_path


def _warnings(caplog):
    return [r.getMessage() for r in caplog.records
            if r.name == LOGGER and r.levelno == logging.WARNING]


class TestBuildFailureIsLoud:
    def test_missing_compiler_binary(self, unresolved, monkeypatch, caplog):
        monkeypatch.setenv("CC", str(unresolved / "no-such-cc"))
        with caplog.at_level(logging.WARNING, logger=LOGGER):
            assert not _astar_native.warm_kernel()
        [message] = _warnings(caplog)
        assert "compiling with" in message and "no-such-cc" in message

    def test_compile_error_includes_stderr_tail(
        self, unresolved, monkeypatch, caplog
    ):
        cc = unresolved / "broken-cc"
        cc.write_text("#!/bin/sh\necho 'fatal: kernel does not compile' >&2\n"
                      "exit 1\n")
        cc.chmod(0o755)
        monkeypatch.setenv("CC", str(cc))
        with caplog.at_level(logging.WARNING, logger=LOGGER):
            assert not _astar_native.warm_kernel()
        [message] = _warnings(caplog)
        assert "fatal: kernel does not compile" in message

    def test_unloadable_library(self, unresolved, monkeypatch, caplog):
        # A cached library skips the compile; only the load can fail.
        monkeypatch.setenv("CC", "cc")
        with open(_astar_native._SOURCE, "rb") as fh:
            tag = hashlib.sha256(fh.read()).hexdigest()[:16]
        cache_dir = unresolved / f"repro-native-{os.getuid()}"
        cache_dir.mkdir()
        (cache_dir / f"astar_{tag}.so").write_bytes(b"not a shared object")
        with caplog.at_level(logging.WARNING, logger=LOGGER):
            assert not _astar_native.warm_kernel()
        [message] = _warnings(caplog)
        assert "loading" in message

    def test_opt_out_is_silent(self, unresolved, monkeypatch, caplog):
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        monkeypatch.setenv("CC", str(unresolved / "no-such-cc"))
        with caplog.at_level(logging.WARNING, logger=LOGGER):
            assert not _astar_native.warm_kernel()
        assert _warnings(caplog) == []


class _OutOfCapacity:
    """A loaded kernel whose A* batch entry always reports capacity (-3)."""

    @staticmethod
    def solve_layers_batch(*args):
        return -3


class TestCapacityFallbackIsLoud:
    def test_counted_logged_and_identical(self, monkeypatch, caplog):
        circuit = random_circuit(12, 60, seed=42, two_qubit_fraction=0.6)
        device = ibm_qx5()
        with monkeypatch.context() as m:
            m.setattr(_astar_native, "_lib", None)
            m.setattr(_astar_native, "_lib_resolved", True)
            reference = route_astar(circuit, device)

        monkeypatch.setattr(_astar_native, "_lib", _OutOfCapacity())
        monkeypatch.setattr(_astar_native, "_lib_resolved", True)
        tracer = Tracer()
        before = kernel_stats()
        with caplog.at_level(logging.WARNING, logger=LOGGER), \
                use_tracer(tracer):
            routed = route_astar(circuit, device)
        after = kernel_stats()

        assert tracer.counters()["astar.native_fallbacks"] == 1
        [message] = _warnings(caplog)
        assert "capacity" in message
        assert after["python_layers"] > before["python_layers"]
        assert after["native_layers"] == before["native_layers"]
        assert routed.added_swaps == reference.added_swaps
        assert fingerprint(routed.circuit) == fingerprint(reference.circuit)
