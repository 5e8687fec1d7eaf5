"""Large-device tests for the multi-word native routing kernels.

The original C kernel packed one search state into a single 64-bit word,
refusing any device with more than 64 qubits (or edges).  These tests
pin the lifted cap: fixed-seed circuits on 80-119-qubit grid and
heavy-hex devices must (a) actually take the native path — asserted via
``kernel_stats()`` counter deltas, not just availability — and (b)
produce byte-identical output to the pure-Python reference kernels.

The Python reference is obtained in-process by monkeypatching the native
entry points to report "unavailable", which exercises the exact fallback
path ``REPRO_NO_NATIVE=1`` takes.

A cooperative deadline must not move any router off the native path:
the A* batch kernel polls the deadline on its own clock, and the SABRE /
latency scorers are per decision with the deadline polled in Python.
"""

import pytest

from repro.devices import (
    get_device, grid_device, heavy_hex_device, ibm_qx5, linear_device,
)
from repro.mapping.routing import route_astar, route_latency, route_sabre
from repro.mapping.routing import astar as astar_mod
from repro.mapping.routing import sabre as sabre_mod
from repro.mapping.routing._astar_native import kernel_stats, warm_kernel
from repro.perf.bench import fingerprint
from repro.resilience.deadline import Deadline, DeadlineExceeded, use_deadline
from repro.workloads import random_circuit

pytestmark = pytest.mark.skipif(
    not warm_kernel(),
    reason="native kernel unavailable (no C compiler or REPRO_NO_NATIVE=1)",
)

#: The large-corpus instances (same seeds as repro.perf.baseline) plus
#: the old cap boundary: 64 qubits (the single-word maximum) and 65 (the
#: first size the old kernel refused).
LARGE_CASES = [
    pytest.param(lambda: grid_device(8, 10), 12, 40, 21, id="grid8x10"),
    pytest.param(lambda: grid_device(10, 10), 12, 40, 9, id="grid10x10"),
    pytest.param(lambda: heavy_hex_device(7, 14), 12, 30, 17, id="heavyhex119"),
    pytest.param(lambda: linear_device(64), 10, 30, 4, id="linear64-boundary"),
    pytest.param(lambda: linear_device(65), 10, 30, 4, id="linear65-boundary"),
]


def _circuit(nq, ng, seed):
    return random_circuit(nq, ng, seed=seed, two_qubit_fraction=0.6)


def _python_reference(monkeypatch, route, circuit, device):
    """Route with every native entry point disabled (pure-Python path)."""
    with monkeypatch.context() as m:
        m.setattr(astar_mod, "solve_layers_batch_native", lambda *a, **k: None)
        m.setattr(sabre_mod, "dist_buffer", lambda *a, **k: None)
        return route(circuit, device)


class TestLargeDeviceAStar:
    @pytest.mark.parametrize("factory,nq,ng,seed", LARGE_CASES)
    def test_native_path_used_and_byte_identical(
        self, monkeypatch, factory, nq, ng, seed
    ):
        device = factory()
        circuit = _circuit(nq, ng, seed)

        before = kernel_stats()
        native = route_astar(circuit, device)
        after = kernel_stats()

        # The native kernel must really have routed the layers: the
        # counters move, proving this was not a silent Python fallback.
        assert after["native_layers"] > before["native_layers"]
        assert after["python_layers"] == before["python_layers"]
        assert after["batch_calls"] == before["batch_calls"] + 1

        reference = _python_reference(monkeypatch, route_astar, circuit, device)
        assert native.added_swaps == reference.added_swaps
        assert fingerprint(native.circuit) == fingerprint(reference.circuit)
        assert native.final.key() == reference.final.key()


class TestLargeDeviceSabre:
    @pytest.mark.parametrize("factory,nq,ng,seed", LARGE_CASES)
    def test_native_scorer_used_and_byte_identical(
        self, monkeypatch, factory, nq, ng, seed
    ):
        device = factory()
        circuit = _circuit(nq, ng, seed)

        before = kernel_stats()
        native = route_sabre(circuit, device)
        after = kernel_stats()

        assert after["sabre_native_calls"] > before["sabre_native_calls"]
        assert after["sabre_python_calls"] == before["sabre_python_calls"]

        reference = _python_reference(monkeypatch, route_sabre, circuit, device)
        assert native.added_swaps == reference.added_swaps
        assert fingerprint(native.circuit) == fingerprint(reference.circuit)
        assert native.final.key() == reference.final.key()


class TestCapBoundary:
    def test_linear_64_and_65_route_identically(self):
        # 64 qubits was the single-word kernel's hard cap; 65 the first
        # refusal.  A chain one qubit longer must not change the routed
        # output of the same 10-qubit program (the extra qubit is idle),
        # and both sizes must go native.
        circuit = _circuit(10, 30, 4)
        results = {}
        for n in (64, 65):
            before = kernel_stats()
            routed = route_astar(circuit, linear_device(n))
            after = kernel_stats()
            assert after["native_layers"] > before["native_layers"], n
            results[n] = (routed.added_swaps, fingerprint(routed.circuit))
        assert results[64] == results[65]


#: The corpus hot case (``ibm_qx5/12q120g_s120``) and one large-corpus
#: case, routed under an armed but generous deadline.
DEADLINE_CASES = [
    pytest.param(ibm_qx5, 12, 120, 120, id="qx5-hot"),
    pytest.param(lambda: grid_device(10, 10), 12, 40, 9, id="grid10x10"),
]

ROUTERS = {"astar": route_astar, "sabre": route_sabre, "latency": route_latency}


_USAGE = ("native_layers", "python_layers", "batch_calls",
          "sabre_native_calls", "sabre_python_calls")


def _delta(before, after):
    return {key: after[key] - before[key] for key in _USAGE}


class TestArmedDeadlineStaysNative:
    @pytest.mark.parametrize("router", sorted(ROUTERS))
    @pytest.mark.parametrize("factory,nq,ng,seed", DEADLINE_CASES)
    def test_native_and_byte_identical(
        self, monkeypatch, router, factory, nq, ng, seed
    ):
        route = ROUTERS[router]
        device = factory()
        circuit = _circuit(nq, ng, seed)
        unbounded = route(circuit, device)

        before = kernel_stats()
        with use_deadline(Deadline.after(600)):
            bounded = route(circuit, device)
        delta = _delta(before, kernel_stats())

        if router == "astar":
            assert delta["native_layers"] > 0
            assert delta["python_layers"] == 0
            assert delta["batch_calls"] == 1
        else:
            assert delta["sabre_native_calls"] > 0
            assert delta["sabre_python_calls"] == 0

        reference = _python_reference(monkeypatch, route, circuit, device)
        for other in (unbounded, reference):
            assert bounded.added_swaps == other.added_swaps
            assert fingerprint(bounded.circuit) == fingerprint(other.circuit)
            assert bounded.final.key() == other.final.key()


def _no_python_poll(self, *args, **kwargs):
    raise AssertionError("the deadline was polled in Python")


class TestDeadlineFiresInKernel:
    # Unbounded, this circuit takes ~0.8 s in the native kernel, so a
    # 0.1 s budget expires mid-search and a 0 s one at the kernel's
    # entry check.
    @pytest.mark.parametrize("budget", [0.0, 0.1])
    def test_kernel_raises_deadline_exceeded(self, monkeypatch, budget):
        circuit = random_circuit(16, 1200, seed=7, two_qubit_fraction=0.9)
        device = get_device("ibm_qx5")
        monkeypatch.setattr(Deadline, "check", _no_python_poll)
        monkeypatch.setattr(Deadline, "expired", _no_python_poll)

        before = kernel_stats()
        with pytest.raises(
            DeadlineExceeded,
            match=rf"exceeded the {budget}s budget in astar routing",
        ):
            with use_deadline(Deadline.after(budget)):
                route_astar(circuit, device)
        delta = _delta(before, kernel_stats())

        assert delta["python_layers"] == 0
        assert delta["native_layers"] == 0
        assert delta["batch_calls"] == 0
