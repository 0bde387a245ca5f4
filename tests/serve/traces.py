"""Multi-tenant arrival traces for the serving tests.

:func:`merge_traces` builds the fairness stress case -- a hot
single-key trace merged with sparse traces of other batch keys -- from
the seeded traces of :mod:`repro.serve.workload`.  Imported as
``tests.serve.traces``.
"""

from dataclasses import replace


def merge_traces(*traces):
    """Interleave several traces into one multi-tenant arrival stream.

    Requests are ordered by ``(arrival_time, trace position)`` --
    ties broken by the order the traces were passed, then within a
    trace by its own order -- and renumbered with fresh sequential
    ``request_id``\\ s (the service requires ids to disambiguate
    results; two independent traces both start at id 0).  Each
    request's planes and batch-key overrides ride along untouched.
    """
    tagged = []
    for trace_index, trace in enumerate(traces):
        for position, request in enumerate(trace):
            tagged.append(
                (request.arrival_time, trace_index, position, request)
            )
    tagged.sort(key=lambda item: item[:3])
    return [
        replace(request, request_id=new_id)
        for new_id, (_, _, _, request) in enumerate(tagged)
    ]
