"""Content-addressed cache keys for compilation artefacts.

A compile is a pure function of four inputs: the circuit, the device,
the pass configuration, and the compiler version.  The cache key is a
SHA-256 over a canonical serialisation of exactly those four — nothing
else may influence the output, so two requests with equal keys are
guaranteed interchangeable, and any change to one of the inputs changes
the key (the invalidation rule; see ``docs/service.md``).

Canonical forms:

* **circuit** — the OpenQASM text produced by
  :func:`repro.qasm.to_openqasm` after a parse round-trip, which
  normalises whitespace, comments, register names and parameter
  spellings.  Semantically identical sources therefore share a key.
* **device** — :meth:`repro.devices.device.Device.to_dict`, serialised
  as minified sorted-key JSON.
* **pass config** — :meth:`repro.core.pipeline.PassConfig.to_dict`,
  same JSON canonicalisation.
* **version** — :data:`repro.__version__` plus the artefact schema
  number, so upgrading the library or the artefact layout invalidates
  every stale entry at once.
"""

from __future__ import annotations

import hashlib
import json

from .. import __version__
from ..core.circuit import Circuit
from ..core.pipeline import PassConfig
from ..devices.device import Device
from ..qasm import QasmError, parse_qasm, to_openqasm

__all__ = [
    "canonical_json",
    "canonical_qasm",
    "device_fingerprint",
    "compute_key",
    "stage_key",
]

#: Bump when the artefact dict layout changes incompatibly.
ARTIFACT_SCHEMA = 1

#: Bump when any *stage* entry layout changes incompatibly
#: (independent of the full-artefact schema: the two evolve separately).
STAGE_SCHEMA = 1


def canonical_json(obj) -> str:
    """Minified, sorted-key JSON — byte-stable across dict orderings."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def canonical_qasm(source: str | Circuit) -> str:
    """The normal-form OpenQASM text of ``source``.

    Accepts raw QASM text or a :class:`Circuit`; either way the result
    is ``to_openqasm`` applied to the parsed circuit, so formatting
    differences in the input never produce distinct cache keys.

    Raises:
        repro.qasm.QasmError: when ``source`` is text and unparsable.
    """
    circuit = parse_qasm(source) if isinstance(source, str) else source
    return to_openqasm(circuit)


def device_fingerprint(device: Device | dict) -> str:
    """16-hex-digit digest of a device's canonical description."""
    data = device.to_dict() if isinstance(device, Device) else device
    return hashlib.sha256(canonical_json(data).encode()).hexdigest()[:16]


def compute_key(
    source: str | Circuit,
    device: Device | dict,
    config: PassConfig | None = None,
    *,
    version: str = __version__,
) -> str:
    """The full cache key (64 hex digits) of one compile request."""
    config = config or PassConfig()
    device_data = device.to_dict() if isinstance(device, Device) else device
    try:
        qasm = canonical_qasm(source)
    except QasmError:
        # Unparsable text still needs a deterministic key so the batch
        # engine can report the parse failure as a JobResult; it is
        # never cached (the compile fails before producing an artefact).
        qasm = f"<unparsable>{source}"
    payload = canonical_json(
        {
            "schema": ARTIFACT_SCHEMA,
            "version": version,
            "qasm": qasm,
            "device": device_data,
            "config": config.to_dict(),
        }
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def stage_key(
    stage: str,
    inputs: dict,
    config: dict,
    *,
    version: str = __version__,
) -> str:
    """The cache key (64 hex digits) of one pipeline *stage*.

    Commits to the stage name, the stage's content-addressed input
    snapshot (circuits as canonical OpenQASM text, the device as its
    dict form — exactly what :func:`repro.core.pipeline.compile_circuit`
    hands its ``stage_store``), the config knobs that stage depends on
    (``{"placer": ...}`` for placement), the stage schema and the
    library version.  Because only those knobs are hashed, a placement
    entry survives a router or scheduler change — invalidation by
    addressing, per stage.

    Raises:
        TypeError: when ``inputs``/``config`` contain values with no
            canonical JSON form (such entries are uncacheable).
    """
    payload = canonical_json(
        {
            "stage_schema": STAGE_SCHEMA,
            "version": version,
            "stage": stage,
            "inputs": inputs,
            "config": config,
        }
    )
    return hashlib.sha256(payload.encode()).hexdigest()
