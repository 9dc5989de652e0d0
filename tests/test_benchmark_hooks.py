"""The benchmark's hooks still fit the package.

The traced benchmark session (`perfbench/tracing.py`) and its trial probe
(`perfbench/session.py`) replace hermipir functions and methods by name.  A
refactor that renames or drops one of those names would only break the
traced benchmark run; installing both here makes it fail this suite instead.
"""

from __future__ import annotations

import socket
import sys
from pathlib import Path

import pytest

import hermipir.cli  # noqa: F401  -- binds names the tracer must reach too
from hermipir import atlas, scheme, transport

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# the names the retrieval workloads are timed and checked through
HOOKED = [
    (scheme, "run_pir_demo"),
    (scheme, "build_instance"),
    (transport, "run_demo_over_sockets"),
    (transport, "build_instance"),
    (transport, "encode_elements"),
    (transport, "send_frame"),
    (transport, "recv_frame"),
    (scheme.SchemeInstance, "encode_storage"),
    (scheme.SchemeInstance, "make_queries"),
    (scheme.SchemeInstance, "all_answers"),
    (scheme.SchemeInstance, "server_answer"),
    (scheme.SchemeInstance, "reconstruct"),
]


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import session
        import tracing

        yield session, tracing
    finally:
        sys.path.remove(str(PERFBENCH))


def _owners() -> list:
    """Every hermipir module and every class defined in one, plus socket."""
    owners = [socket.socket]
    for name, mod in sorted(sys.modules.items()):
        if name.split(".")[0] == "hermipir":
            owners.append(mod)
            owners += [v for v in vars(mod).values() if isinstance(v, type) and v.__module__ == name]
    return owners


def _snapshot() -> dict:
    return {id(owner): (owner, dict(vars(owner))) for owner in _owners()}


def _changes(before: dict) -> dict[str, set]:
    """Attributes added, removed or replaced since `before`, as owner.attr."""
    out: dict[str, set] = {"added": set(), "removed": set(), "replaced": set()}
    for owner, attrs in before.values():
        now = dict(vars(owner))
        label = getattr(owner, "__qualname__", owner.__name__)
        out["added"] |= {f"{label}.{a}" for a in now.keys() - attrs.keys()}
        out["removed"] |= {f"{label}.{a}" for a in attrs.keys() - now.keys()}
        out["replaced"] |= {f"{label}.{a}" for a in attrs.keys() & now.keys() if now[a] is not attrs[a]}
    return out


def test_tracer_and_probe_patch_existing_names_and_restore_them(perfbench):
    session, tracing = perfbench
    before = _snapshot()
    originals = [getattr(owner, attr) for owner, attr in HOOKED]
    tracer = tracing.Tracer()
    probe = session.Probe()
    try:
        tracer.install(session._search_wrapper(atlas, tracer))
        probe.install()
        installed = _changes(before)
        # socket.socket only inherits sendall and recv; the tracer adds them
        assert installed["added"] == {"socket.sendall", "socket.recv"}
        assert not installed["removed"]
        assert all(getattr(owner, attr) is not orig for (owner, attr), orig in zip(HOOKED, originals))
    finally:
        probe.uninstall()
        tracer.uninstall()
    assert _changes(before) == {"added": set(), "removed": set(), "replaced": set()}
