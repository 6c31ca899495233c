"""Unit tests of the staged collective-algorithm engines (repro.simmpi.algos).

The core contract under test: every algorithm returns **bitwise-identical**
recv payloads to the direct path — only modeled clocks and per-phase
message/byte totals differ — and its staged rounds balance exactly against
its self-reported plan in the auditor (the ``collective-algo-accounting``
invariant).  Message counts are also pinned to the closed forms the
textbook algorithms promise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.simmpi import JUQUEEN, JUROPA, Machine, Perturbation
from repro.simmpi.algos import ALGO_CHOICES, CollectiveAlgos, parse_algos, resolve
from repro.simmpi.collectives import (
    allgatherv,
    allreduce,
    alltoallv,
    bcast,
    gatherv,
    message_triples,
    scatterv,
)
from repro.verify.audit import enable_auditing


def dense_sends(P, seed=0, n=6):
    rng = np.random.default_rng(seed)
    return [
        {j: rng.standard_normal(n) for j in range(P) if j != i} for i in range(P)
    ]


def sparse_sends(P, seed=0):
    """Mixed-kind sparse traffic: arrays, tuples, empties, self-sends."""
    rng = np.random.default_rng(seed)
    sends = []
    for i in range(P):
        targets = {}
        for j in range(P):
            if rng.random() < 0.5:
                continue
            k = int(rng.integers(0, 3))
            m = int(rng.integers(0, 4))
            if k == 0:
                targets[j] = rng.standard_normal(m)
            elif k == 1:
                targets[j] = (rng.standard_normal(m), rng.integers(0, 9, m))
            else:
                targets[j] = rng.standard_normal((m, 3))
        sends.append(targets)
    return sends


def recv_fingerprint(recv):
    out = []
    for lst in recv:
        row = []
        for src, p in lst:
            if isinstance(p, np.ndarray):
                row.append((src, p.dtype.str, p.shape, p.tobytes()))
            else:
                row.append(
                    (src, type(p).__name__)
                    + tuple((c.dtype.str, c.shape, c.tobytes()) for c in p)
                )
        out.append(tuple(row))
    return out


# ------------------------------------------------------------- spec grammar


class TestParseAlgos:
    def test_none_and_direct_mean_default(self):
        assert parse_algos(None) is None
        assert parse_algos("direct") is None
        assert parse_algos("alltoallv=direct") is None

    def test_bare_name_applies_to_every_supporting_collective(self):
        algos = parse_algos("binomial-tree")
        assert algos.allreduce == "binomial-tree"
        assert algos.bcast == "binomial-tree"
        assert algos.gatherv == "binomial-tree"
        assert algos.scatterv == "binomial-tree"
        assert algos.alltoallv == "direct"

    def test_explicit_items_combine(self):
        algos = parse_algos("alltoallv=bruck+allgatherv=ring")
        assert algos.alltoallv == "bruck"
        assert algos.allgatherv == "ring"
        assert algos.allreduce == "direct"

    def test_spec_roundtrip(self):
        spec = "allgatherv=ring+alltoallv=pairwise"
        assert parse_algos(spec).spec == spec
        assert CollectiveAlgos().spec == "direct"

    @pytest.mark.parametrize(
        "bad",
        ["bogus", "alltoallv=ring", "alltoallv=bruck+alltoallv=pairwise", "++", "x="],
    )
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ValueError):
            parse_algos(bad)

    def test_all_choices_accepted(self):
        for collective, names in ALGO_CHOICES.items():
            for name in names:
                parse_algos(f"{collective}={name}")


# ----------------------------------------------------- bitwise data identity


@pytest.mark.parametrize("P", [2, 3, 4, 6, 8])
@pytest.mark.parametrize("algo", ["pairwise", "bruck"])
def test_alltoallv_engines_bitwise_identical(P, algo):
    sends = sparse_sends(P, seed=P)
    reference = recv_fingerprint(alltoallv(Machine(P, profile=JUROPA), sends, "sort"))
    machine = Machine(P, profile=JUQUEEN)
    machine.set_collective_algos(f"alltoallv={algo}")
    auditor = enable_auditing(machine)
    got = recv_fingerprint(alltoallv(machine, sends, "sort"))
    assert got == reference


@pytest.mark.parametrize("P", [2, 3, 4, 5, 8])
@pytest.mark.parametrize("algo", ["ring", "recursive-doubling"])
def test_allgatherv_engines_bitwise_identical(P, algo):
    rng = np.random.default_rng(P)
    arrays = [rng.standard_normal(int(rng.integers(0, 5))) for _ in range(P)]
    reference = allgatherv(Machine(P, profile=JUROPA), arrays, "gather")
    machine = Machine(P, profile=JUROPA)
    machine.set_collective_algos(f"allgatherv={algo}")
    got = allgatherv(machine, arrays, "gather")
    for ref, arr in zip(reference, got):
        assert ref.tobytes() == arr.tobytes()


@pytest.mark.parametrize("P", [2, 4, 7, 8])
@pytest.mark.parametrize("algo", ["binomial-tree", "recursive-halving-doubling"])
@pytest.mark.parametrize("op", ["sum", "max", "min"])
def test_allreduce_engines_bitwise_identical(P, algo, op):
    rng = np.random.default_rng(P)
    values = [rng.standard_normal(5) for _ in range(P)]
    reference = allreduce(Machine(P, profile=JUROPA), values, op=op, phase="tune")
    machine = Machine(P, profile=JUROPA)
    machine.set_collective_algos(f"allreduce={algo}")
    got = allreduce(machine, values, op=op, phase="tune")
    assert np.asarray(reference).tobytes() == np.asarray(got).tobytes()


@pytest.mark.parametrize("P", [2, 3, 6, 8])
@pytest.mark.parametrize("root", [0, -1])
def test_rooted_tree_engines_bitwise_identical(P, root):
    root = root % P
    rng = np.random.default_rng(P)
    arrays = [rng.standard_normal(int(rng.integers(1, 4))) for _ in range(P)]

    def run(machine):
        return (
            bcast(machine, arrays[0], root=root, phase="sort"),
            gatherv(machine, arrays, root=root, phase="gather"),
            scatterv(machine, arrays, root=root, phase="sort"),
        )

    ref_b, ref_g, ref_s = run(Machine(P, profile=JUQUEEN))
    machine = Machine(P, profile=JUQUEEN)
    machine.set_collective_algos("binomial-tree")
    got_b, got_g, got_s = run(machine)
    for ref, got in ((ref_b, got_b), (ref_g, got_g), (ref_s, got_s)):
        assert [np.asarray(r).tobytes() for r in ref] == [
            np.asarray(g).tobytes() for g in got
        ]


def test_single_rank_machines_never_stage(ALGOS="bruck+binomial-tree"):
    machine = Machine(1)
    machine.set_collective_algos(ALGOS)
    auditor = enable_auditing(machine)
    alltoallv(machine, [{0: np.arange(3.0)}], "sort")
    allreduce(machine, [2.0], phase="tune")
    assert not auditor.algo_ledger and not auditor.algo_counts


# ------------------------------------------------- closed-form message counts


def staged_messages(machine, auditor, phase):
    led = auditor.algo_round_ledger[phase]
    assert led.messages == auditor.algo_ledger[phase].messages
    assert led.bytes == auditor.algo_ledger[phase].bytes
    return led.messages


@pytest.mark.parametrize("P", [4, 6, 8])
def test_pairwise_message_count_is_nonself_pairs(P):
    sends = sparse_sends(P, seed=3 * P)
    machine = Machine(P, profile=JUROPA)
    machine.set_collective_algos("alltoallv=pairwise")
    auditor = enable_auditing(machine)
    alltoallv(machine, sends, "sort")
    expected = sum(1 for i, t in enumerate(sends) for j in t if j != i)
    assert staged_messages(machine, auditor, "sort") == expected


@pytest.mark.parametrize("P", [2, 4, 8])
def test_bruck_dense_message_count_is_p_log_p(P):
    machine = Machine(P, profile=JUROPA)
    machine.set_collective_algos("alltoallv=bruck")
    auditor = enable_auditing(machine)
    alltoallv(machine, dense_sends(P), "sort")
    assert staged_messages(machine, auditor, "sort") == P * int(np.ceil(np.log2(P)))


@pytest.mark.parametrize("P", [3, 4, 8])
def test_allgatherv_message_counts(P):
    rng = np.random.default_rng(0)
    arrays = [rng.standard_normal(2) for _ in range(P)]
    machine = Machine(P, profile=JUROPA)
    machine.set_collective_algos("allgatherv=ring")
    auditor = enable_auditing(machine)
    allgatherv(machine, arrays, "gather")
    assert staged_messages(machine, auditor, "gather") == P * (P - 1)

    machine = Machine(P, profile=JUROPA)
    machine.set_collective_algos("allgatherv=recursive-doubling")
    auditor = enable_auditing(machine)
    allgatherv(machine, arrays, "gather")
    assert (
        staged_messages(machine, auditor, "gather")
        == P * int(np.ceil(np.log2(P)))
    )


@pytest.mark.parametrize("P", [2, 4, 8])
def test_allreduce_message_counts(P):
    values = [float(i) for i in range(P)]
    machine = Machine(P, profile=JUROPA)
    machine.set_collective_algos("allreduce=binomial-tree")
    auditor = enable_auditing(machine)
    allreduce(machine, values, phase="tune")
    assert staged_messages(machine, auditor, "tune") == 2 * (P - 1)

    machine = Machine(P, profile=JUROPA)
    machine.set_collective_algos("allreduce=recursive-halving-doubling")
    auditor = enable_auditing(machine)
    allreduce(machine, values, phase="tune")
    assert staged_messages(machine, auditor, "tune") == 2 * P * int(np.log2(P))


@pytest.mark.parametrize("P", [2, 5, 8])
def test_rooted_tree_message_counts(P):
    arrays = [np.arange(2.0) + i for i in range(P)]
    for collective, run in (
        ("bcast", lambda m: bcast(m, arrays[0], root=1 % P, phase="sort")),
        ("gatherv", lambda m: gatherv(m, arrays, root=1 % P, phase="gather")),
        ("scatterv", lambda m: scatterv(m, arrays, root=1 % P, phase="sort")),
    ):
        machine = Machine(P, profile=JUROPA)
        machine.set_collective_algos(f"{collective}=binomial-tree")
        auditor = enable_auditing(machine)
        run(machine)
        phase = "gather" if collective == "gatherv" else "sort"
        assert staged_messages(machine, auditor, phase) == P - 1, collective


def test_rhd_falls_back_to_binomial_on_non_power_of_two():
    machine = Machine(6, profile=JUROPA)
    machine.set_collective_algos("allreduce=recursive-halving-doubling")
    auditor = enable_auditing(machine)
    allreduce(machine, [float(i) for i in range(6)], phase="tune")
    assert auditor.algo_counts == {"allreduce/binomial-tree": 1}
    assert staged_messages(machine, auditor, "tune") == 2 * 5


# ------------------------------------------------------------ auto selection


def test_auto_selection_is_perturbation_independent():
    sends = dense_sends(8, n=4)
    chosen = []
    for perturbation in (None, Perturbation.sample(3), Perturbation.sample(9)):
        machine = Machine(8, profile=JUQUEEN, perturbation=perturbation)
        machine.set_collective_algos("auto")
        auditor = enable_auditing(machine)
        alltoallv(machine, sends, "sort")
        allreduce(machine, [float(i) for i in range(8)], phase="tune")
        chosen.append(dict(auditor.algo_counts))
    assert chosen[0] == chosen[1] == chosen[2]


def test_auto_prefers_bruck_small_and_avoids_it_large():
    machine = Machine(32, profile=JUROPA)
    small = [
        {j: np.zeros(2) for j in range(32) if j != i} for i in range(32)
    ]
    large = [
        {j: np.zeros(8192) for j in range(32) if j != i} for i in range(32)
    ]
    assert resolve(machine, "alltoallv", "auto", triples=message_triples(small)) == "bruck"
    assert resolve(machine, "alltoallv", "auto", triples=message_triples(large)) != "bruck"


def test_auto_records_direct_choice_without_algo_ledger():
    # a resolved-direct auto call must fall through to the closed-form
    # charging path: choice counted, no staged plan to balance
    machine = Machine(8, profile=JUROPA)
    machine.set_collective_algos("alltoallv=auto")
    auditor = enable_auditing(machine)
    big = [{j: np.zeros(65536) for j in range(8) if j != i} for i in range(8)]
    resolved = resolve(machine, "alltoallv", "auto", triples=message_triples(big))
    alltoallv(machine, big, "sort")
    assert auditor.algo_counts == {f"alltoallv/{resolved}": 1}
    if resolved == "direct":
        assert "sort" not in auditor.algo_ledger


# ------------------------------------------------- satellite 1: int allreduce


def test_allreduce_int_sum_is_exact_above_2_53():
    # pre-fix, the float64 working dtype rounded 2**53 + small away
    P = 4
    machine = Machine(P)
    values = [np.int64(2**53 + i) for i in range(P)]
    result = allreduce(machine, values, op="sum", phase="tune")
    assert result == sum(2**53 + i for i in range(P))
    assert np.asarray(result).dtype.kind == "i"


def test_allreduce_int_arrays_preserve_dtype():
    machine = Machine(3)
    values = [np.array([1, 2**40, -7], dtype=np.int64) * (i + 1) for i in range(3)]
    result = allreduce(machine, values, op="sum", phase="tune")
    assert result.dtype == np.int64
    np.testing.assert_array_equal(result, values[0] + values[1] + values[2])


def test_allreduce_int_exact_under_staged_engines():
    P = 4
    expected = sum(2**53 + i for i in range(P))
    for algo in ("binomial-tree", "recursive-halving-doubling"):
        machine = Machine(P)
        machine.set_collective_algos(f"allreduce={algo}")
        values = [np.int64(2**53 + i) for i in range(P)]
        assert allreduce(machine, values, op="sum", phase="tune") == expected


def test_allreduce_float_path_unchanged():
    machine = Machine(3)
    values = [0.1, 0.2, 0.3]
    result = allreduce(machine, values, op="sum", phase="tune")
    assert isinstance(result, float)
    assert result == float(np.sum(np.asarray(values, dtype=np.float64), axis=0))


# ------------------------------------- satellite 2: uniform send validation


@pytest.mark.parametrize("bad_dst", [-1, 4, 99])
def test_alltoallv_rejects_invalid_destination_before_charging(bad_dst):
    machine = Machine(4)
    auditor = enable_auditing(machine)
    sends = [{1: np.arange(3.0)}, {bad_dst: np.arange(2.0)}, {}, {}]
    with pytest.raises(ValueError, match=f"rank 1 sends to invalid rank {bad_dst}"):
        alltoallv(machine, sends, "sort")
    # rejected before any auditing or charging: ledger clean, clocks unmoved
    assert not auditor.ledger
    assert machine.elapsed() == 0.0


def test_staged_engines_reject_invalid_destination_identically():
    for algo in ("pairwise", "bruck"):
        machine = Machine(4)
        machine.set_collective_algos(f"alltoallv={algo}")
        auditor = enable_auditing(machine)
        with pytest.raises(ValueError, match="rank 0 sends to invalid rank 7"):
            alltoallv(machine, [{7: np.arange(2.0)}, {}, {}, {}], "sort")
        assert not auditor.ledger and not auditor.algo_ledger
        assert machine.elapsed() == 0.0


@pytest.mark.parametrize("algo", ["direct", "bruck", "pairwise"])
def test_alltoallv_rejects_invalid_count_exchange_before_charging(algo):
    # pre-fix the mode was only checked while charging: the clocks were
    # already synchronized, the auditor had counted the call and, on the
    # direct path, kept a ledger row the trace never saw
    machine = Machine(4)
    machine.set_collective_algos(f"alltoallv={algo}")
    machine.advance(np.arange(4.0), "skew")
    auditor = enable_auditing(machine)
    state, trace = auditor.state_dict(), machine.trace.items()
    message = "count_exchange must be 'dense', 'sparse' or 'cached', got 'bogus'"
    with pytest.raises(ValueError, match=message):
        alltoallv(machine, dense_sends(4, n=1), "sort", count_exchange="bogus")
    assert machine.clocks.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert machine.trace.items() == trace
    assert auditor.state_dict() == state
    assert not auditor.ledger and auditor.n_alltoall_calls == 0


# ------------------------------------------------------- auditor persistence


def test_auditor_state_roundtrips_algo_ledgers():
    from repro.verify.audit import CommAuditor

    machine = Machine(4, profile=JUROPA)
    machine.set_collective_algos("alltoallv=bruck+allreduce=binomial-tree")
    auditor = enable_auditing(machine)
    alltoallv(machine, dense_sends(4), "sort")
    allreduce(machine, [1.0, 2.0, 3.0, 4.0], phase="tune")
    state = auditor.state_dict()
    assert state["algo_counts"] == {
        "alltoallv/bruck": 1,
        "allreduce/binomial-tree": 1,
    }

    other = CommAuditor(4)
    other.load_state(state)
    assert other.algo_counts == auditor.algo_counts
    for phase in auditor.algo_ledger:
        assert other.algo_ledger[phase] == auditor.algo_ledger[phase]
        assert other.algo_round_ledger[phase] == auditor.algo_round_ledger[phase]
