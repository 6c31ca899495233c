"""Delivery aliasing contract (docs/backends.md).

An exchange descriptor (``Exchange``) is delivered as fresh column buffers
on every backend and under every algorithm.  For the per-message
``list[dict]`` entry:

* in-process data plane: inter-rank payloads are delivered **by reference**
  — the received array IS the sender's array object;
* process data plane: inter-rank payloads arrive as fresh decoded copies;
* self-sends return the original payload object on **every** backend (MPI
  local-delivery semantics).

The corollary every call site must honor: received payloads are read-only.
Mutating one in place corrupts sender state under the in-process engine
only — a silent cross-backend divergence.  ``ReadOnlyBackend`` turns such a
mutation into a hard ``ValueError`` — on the delivered columns of a
descriptor too, which is the form every redistribution of the repo takes —
and a short simulation matrix sweeps the redistribution call sites under
it, staged algorithm engines included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import ExecutionBackend
from repro.md.simulation import Simulation, SimulationConfig
from repro.md.systems import silica_melt_system
from repro.simmpi import Machine
from repro.simmpi.collectives import (
    Exchange,
    allgatherv,
    alltoallv,
    deliver_inprocess,
)
from repro.simmpi.p2p import send_round


def payload_arrays(payload):
    if payload is None:
        return []
    if isinstance(payload, np.ndarray):
        return [payload]
    return list(payload)


# ----------------------------------------------------------- the contract


class TestInProcessAliasing:
    def test_alltoallv_delivers_references(self):
        machine = Machine(3)
        block = np.arange(4.0)
        recv = alltoallv(machine, [{1: block}, {}, {}], "sort")
        ((src, delivered),) = recv[1]
        assert src == 0
        assert delivered is block

    def test_self_send_returns_original_object(self):
        machine = Machine(3)
        block = np.arange(4.0)
        recv = alltoallv(machine, [{0: block}, {}, {}], "sort")
        assert recv[0][0][1] is block

    def test_send_round_delivers_references(self):
        machine = Machine(2)
        payload = (np.arange(3.0), np.arange(3))
        ((_, delivered),) = send_round(machine, [(0, 1, payload)], "sort")[1]
        assert delivered is payload

    def test_staged_engine_final_recv_references_shipped_columns(self):
        # a staged engine charges rounds, the one delivery after them is the
        # direct path's: by reference
        machine = Machine(2)
        machine.set_collective_algos("alltoallv=pairwise")
        block = np.arange(5.0)
        recv = alltoallv(machine, [{1: block}, {}], "sort")
        assert recv[1][0][1] is block


    def test_allgatherv_hands_every_rank_the_one_gathered_array(self):
        """Every caller reads the result once: no per-rank copy (it was P
        copies of the concatenation), and nobody may write to it."""
        machine = Machine(3)
        parts = [np.arange(2.0), np.arange(2.0, 5.0), np.empty(0)]
        out = allgatherv(machine, parts, "sort")
        assert len(out) == 3 and all(o is out[0] for o in out)
        np.testing.assert_array_equal(out[0], np.arange(5.0))
        assert not out[0].flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            out[1][0] = 9.0
        # the gathered array is the collective's own, never a contribution
        assert all(not np.shares_memory(out[0], p) for p in parts)
        assert not allgatherv(Machine(1), [np.arange(3.0)], "sort")[0].flags.writeable

    @pytest.mark.parametrize("algo", ["ring", "recursive-doubling"])
    def test_staged_allgather_shared(self, algo):
        """A staged engine charges rounds and moves no data: the result is
        the direct path's, one read-only array for everyone."""
        machine = Machine(4)
        machine.set_collective_algos(f"allgatherv={algo}")
        parts = [np.full(r + 1, float(r)) for r in range(4)]
        out = allgatherv(machine, parts, "sort")
        direct = allgatherv(Machine(4), parts, "sort")[0]
        assert all(o is out[0] for o in out) and not out[0].flags.writeable
        assert out[0].dtype == direct.dtype and out[0].tobytes() == direct.tobytes()


def one_message_exchange():
    columns = (np.arange(12.0).reshape(4, 3), np.arange(4))
    table = Exchange(
        columns, np.array([2, 0, 1]), np.array([0, 1]), np.array([1, 1]), np.array([0, 2, 3])
    )
    return columns, table


@pytest.mark.parametrize("variant", ["direct", "bruck", "pairwise", "process", "bruck+process"])
def test_exchange_buffers_are_fresh_everywhere(variant, request):
    """A descriptor's delivered columns are the receiver's own on every path
    (self-send rows included: rank 1 sends itself a row)."""
    machine = Machine(2)
    if "process" in variant:
        machine.attach_backend(request.getfixturevalue("process_backend"))
    if variant.split("+")[0] in ("bruck", "pairwise"):
        machine.set_collective_algos(variant.split("+")[0])
    columns, table = one_message_exchange()
    delivered, offsets = alltoallv(machine, table, "sort")
    np.testing.assert_array_equal(offsets, [0, 0, 3])
    for got, sent in zip(delivered, columns):
        np.testing.assert_array_equal(got, sent[[2, 0, 1]])
        assert got.flags.writeable and not np.shares_memory(got, sent)
        got[...] = 0  # the receiver's to write; the sender's rows stay put
    np.testing.assert_array_equal(columns[1], np.arange(4))


class TestProcessAliasing:
    def test_inter_rank_payloads_are_fresh_copies(self, process_backend):
        machine = Machine(3)
        machine.attach_backend(process_backend)
        block = np.arange(4.0)
        recv = alltoallv(machine, [{1: block}, {}, {}], "sort")
        ((_, delivered),) = recv[1]
        assert delivered is not block
        np.testing.assert_array_equal(delivered, block)
        delivered += 100.0  # mutating a copy must not reach the sender
        np.testing.assert_array_equal(block, np.arange(4.0))

    def test_self_send_returns_original_object(self, process_backend):
        machine = Machine(3)
        machine.attach_backend(process_backend)
        block = np.arange(4.0)
        recv = alltoallv(machine, [{0: block}, {}, {}], "sort")
        assert recv[0][0][1] is block

    @pytest.mark.parametrize("algo", ["pairwise", "bruck"])
    def test_staged_payloads_are_fresh_copies(self, process_backend, algo):
        machine = Machine(4)
        machine.attach_backend(process_backend)
        machine.set_collective_algos(f"alltoallv={algo}")
        blocks = [np.full(3, float(i)) for i in range(4)]
        sends = [
            {j: blocks[i] for j in range(4) if j != i} for i in range(4)
        ]
        recv = alltoallv(machine, sends, "sort")
        for dst in range(4):
            for src, payload in recv[dst]:
                for arr in payload_arrays(payload):
                    assert arr is not blocks[src]
                    np.testing.assert_array_equal(arr, blocks[src])


# --------------------------------------- mutation sweep over the call sites


class ReadOnlyBackend(ExecutionBackend):
    """In-process delivery with inter-rank arrays delivered write-protected.

    Any call site that mutates a received payload in place — legal-looking
    under reference delivery, silently divergent under a process backend —
    raises ``ValueError: assignment destination is read-only`` instead.
    Self-transfers keep the original writable object, matching the real
    engines.  The delivered columns of an exchange descriptor are protected
    whole (its self-send rows sit in the same buffers): no call site needs
    to write into what it received.
    """

    name = "readonly"
    #: exchange descriptors delivered (the sweep must have gone through here)
    descriptors = 0

    @staticmethod
    def _protect(payload):
        def view(arr):
            out = arr.view()
            out.flags.writeable = False
            return out

        if payload is None:
            return None
        if isinstance(payload, np.ndarray):
            return view(payload)
        if isinstance(payload, tuple):
            return tuple(view(a) for a in payload)
        return [view(a) for a in payload]

    def deliver(self, sends, nprocs):
        if isinstance(sends, Exchange):
            columns, recv_offsets = deliver_inprocess(sends, nprocs)
            for column in columns:
                column.flags.writeable = False
            self.descriptors += 1
            return columns, recv_offsets
        protected = [
            {
                dst: (p if dst == src else self._protect(p))
                for dst, p in targets.items()
            }
            for src, targets in enumerate(sends)
        ]
        return deliver_inprocess(protected, nprocs)

    def route(self, transfers, nprocs):
        return [p if dst == src else self._protect(p) for src, dst, p in transfers]


@pytest.mark.parametrize("solver,method", [("direct", "A"), ("fmm", "B+move")])
@pytest.mark.parametrize(
    "algos", [None, "bruck+binomial-tree+allgatherv=ring", "alltoallv=pairwise"]
)
def test_no_call_site_mutates_received_payloads(solver, method, algos):
    machine = Machine(4)
    backend = ReadOnlyBackend()
    machine.attach_backend(backend)
    system = silica_melt_system(24, seed=0)
    config = SimulationConfig(
        solver=solver, method=method, seed=0, collective_algos=algos
    )
    sim = Simulation(machine, system, config)
    try:
        sim.run(2)
    finally:
        sim.fcs.destroy()
    # the direct solver redistributes nothing; fmm's sorts, resorts and halo
    # exchanges are all descriptors
    assert (backend.descriptors > 0) == (solver == "fmm")
