"""Property-based differential tests of the collective-algorithm engines.

For random sparse traffic patterns — empty ranks, self-sends-only ranks,
zero-length columns included — every algorithm on every backend must
deliver identical recv payloads, and for a fixed algorithm the auditor
ledger fingerprint must be backend-independent.  Message counts are held
to their closed forms wherever one exists.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.simmpi import JUROPA, Machine
from repro.simmpi.collectives import allgatherv, allreduce, alltoallv
from repro.verify.audit import enable_auditing
from repro.verify.dst import ledger_fingerprint

ALLTOALLV_ALGOS = ("direct", "pairwise", "bruck")
SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def traffic(draw):
    """(P, sends): a sparse mixed-kind pattern over a small machine."""
    P = draw(st.integers(min_value=2, max_value=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    style = draw(st.sampled_from(["random", "empty-ranks", "self-only"]))
    sends = []
    for i in range(P):
        targets = {}
        if style == "self-only":
            targets[i] = rng.standard_normal(draw(st.integers(0, 3)))
        elif style == "empty-ranks" and i % 2 == 0:
            pass  # rank sends nothing at all
        else:
            for j in range(P):
                if not draw(st.booleans()):
                    continue
                n = draw(st.integers(min_value=0, max_value=4))
                if draw(st.booleans()):
                    targets[j] = rng.standard_normal(n)
                else:
                    targets[j] = (
                        rng.standard_normal(n),
                        rng.integers(0, 100, n),
                    )
        sends.append(targets)
    return P, sends


def recv_fingerprint(recv):
    out = []
    for lst in recv:
        row = []
        for src, p in lst:
            cols = [p] if isinstance(p, np.ndarray) else list(p)
            row.append(
                (src, type(p).__name__)
                + tuple((c.dtype.str, c.shape, c.tobytes()) for c in cols)
            )
        out.append(tuple(row))
    return out


@given(traffic())
@SETTINGS
def test_alltoallv_payloads_identical_across_algos_and_backends(
    process_backend, case
):
    P, sends = case
    results = {}
    ledgers = {}
    for algo in ALLTOALLV_ALGOS:
        for backend in (None, process_backend):
            machine = Machine(P, profile=JUROPA)
            if backend is not None:
                machine.attach_backend(backend)
            if algo != "direct":
                machine.set_collective_algos(f"alltoallv={algo}")
            auditor = enable_auditing(machine)
            results[(algo, backend is None)] = recv_fingerprint(
                alltoallv(machine, sends, "sort")
            )
            ledgers[(algo, backend is None)] = ledger_fingerprint(auditor)
    reference = results[("direct", True)]
    assert all(fp == reference for fp in results.values())
    # ledgers are backend-independent per algorithm (they legitimately
    # differ *between* algorithms — that's the point of the engines)
    for algo in ALLTOALLV_ALGOS:
        assert ledgers[(algo, True)] == ledgers[(algo, False)]


@given(traffic())
@SETTINGS
def test_pairwise_message_count_matches_closed_form(case):
    P, sends = case
    machine = Machine(P, profile=JUROPA)
    machine.set_collective_algos("alltoallv=pairwise")
    auditor = enable_auditing(machine)
    alltoallv(machine, sends, "sort")
    expected_msgs = sum(1 for i, t in enumerate(sends) for j in t if j != i)
    expected_bytes = sum(
        sum(c.nbytes for c in ([p] if isinstance(p, np.ndarray) else p))
        for i, t in enumerate(sends)
        for j, p in t.items()
        if j != i
    )
    led = auditor.algo_ledger.get("sort")
    assert (led.messages if led else 0) == expected_msgs
    assert (led.bytes if led else 0) == expected_bytes


@given(traffic())
@SETTINGS
def test_bruck_message_count_within_log_bound(case):
    P, sends = case
    machine = Machine(P, profile=JUROPA)
    machine.set_collective_algos("alltoallv=bruck")
    auditor = enable_auditing(machine)
    alltoallv(machine, sends, "sort")
    led = auditor.algo_ledger.get("sort")
    bound = P * int(np.ceil(np.log2(P)))
    assert (led.messages if led else 0) <= bound


@given(
    st.integers(min_value=2, max_value=6),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["ring", "recursive-doubling"]),
)
@SETTINGS
def test_allgatherv_payloads_identical_across_backends(
    process_backend, P, seed, algo
):
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(int(rng.integers(0, 4))) for _ in range(P)]
    reference = allgatherv(Machine(P, profile=JUROPA), arrays, "gather")
    for backend in (None, process_backend):
        machine = Machine(P, profile=JUROPA)
        if backend is not None:
            machine.attach_backend(backend)
        machine.set_collective_algos(f"allgatherv={algo}")
        got = allgatherv(machine, arrays, "gather")
        assert [a.tobytes() for a in got] == [a.tobytes() for a in reference]
    expected = (
        P * (P - 1) if algo == "ring" else P * int(np.ceil(np.log2(P)))
    )
    machine = Machine(P, profile=JUROPA)
    machine.set_collective_algos(f"allgatherv={algo}")
    auditor = enable_auditing(machine)
    allgatherv(machine, arrays, "gather")
    assert auditor.algo_ledger["gather"].messages == expected


@given(
    st.integers(min_value=2, max_value=6),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["sum", "max", "min"]),
    st.sampled_from(["binomial-tree", "recursive-halving-doubling"]),
)
@SETTINGS
def test_allreduce_results_identical_across_backends(
    process_backend, P, seed, op, algo
):
    rng = np.random.default_rng(seed)
    values = [rng.standard_normal(3) for _ in range(P)]
    reference = allreduce(Machine(P, profile=JUROPA), values, op=op, phase="tune")
    for backend in (None, process_backend):
        machine = Machine(P, profile=JUROPA)
        if backend is not None:
            machine.attach_backend(backend)
        machine.set_collective_algos(f"allreduce={algo}")
        got = allreduce(machine, values, op=op, phase="tune")
        assert np.asarray(got).tobytes() == np.asarray(reference).tobytes()
    machine = Machine(P, profile=JUROPA)
    machine.set_collective_algos(f"allreduce={algo}")
    auditor = enable_auditing(machine)
    allreduce(machine, values, op=op, phase="tune")
    if algo == "recursive-halving-doubling" and P & (P - 1) == 0:
        expected = 2 * P * int(np.log2(P))
    else:
        expected = 2 * (P - 1)  # binomial tree (incl. the non-pow2 fallback)
    assert auditor.algo_ledger["tune"].messages == expected


@pytest.mark.parametrize("algo", ["pairwise", "bruck"])
def test_zero_length_columns_ship_losslessly(process_backend, algo):
    # all-empty payloads: zero bytes but real messages and real deliveries
    P = 4
    sends = [
        {j: np.empty(0) for j in range(P) if j != i} for i in range(P)
    ]
    for backend in (None, process_backend):
        machine = Machine(P, profile=JUROPA)
        if backend is not None:
            machine.attach_backend(backend)
        machine.set_collective_algos(f"alltoallv={algo}")
        auditor = enable_auditing(machine)
        recv = alltoallv(machine, sends, "sort")
        assert [len(lst) for lst in recv] == [P - 1] * P
        assert auditor.algo_ledger["sort"].bytes == 0
        assert auditor.algo_ledger["sort"].messages > 0
