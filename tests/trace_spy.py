"""Same call, same floats: what :meth:`Machine.commit` hands to the trace is
what the recorder's charge span carries.  Shared by the obs suites (imported
by name like the oracle modules beside it: ``conftest`` is ambiguous once a
sub-directory with its own conftest is collected in the same run)."""


def spy_on_trace(machine):
    """Log what every charge hands to ``Trace.record`` from here on, as
    ``(label, time, messages, nbytes)`` in call order."""
    log = []
    record = machine.trace.record

    def spy(phase, *, time=0.0, messages=0, nbytes=0, **rest):
        log.append((phase if phase is not None else "other", time, messages, nbytes))
        record(phase, time=time, messages=messages, nbytes=nbytes, **rest)

    machine.trace.record = spy
    return log


def assert_same_floats(log, recorder):
    """Same call, same floats: the recorder's charge spans carry, one for one
    and in order, exactly what the trace was handed (bitwise, not approx)."""
    assert recorder.complete
    charges = [s for s in recorder.spans(-1) if s.kind == "charge"]
    assert [(s.phase, s.time, s.messages, s.nbytes) for s in charges] == log
