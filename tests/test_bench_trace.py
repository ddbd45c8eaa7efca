"""The benchmark's tracer against the library it traces.

`bench/worker.py`'s Tracer rebinds names that delayw's own modules bind
to their callees (`spectrum.lambert_w`, `assign.spectrum`,
`oracle.spectrum`, `oracle.find_roots`).  A refactor that unbinds one of
them must fail here rather than crash a traced benchmark run.
"""

from recipes import bench_module


def test_tracer_installs_and_undoes():
    worker = bench_module("worker")
    bound = [(worker.SPECTRUM_MOD, "lambert_w"), (worker.ASSIGN_MOD, "spectrum"),
             (worker.ORACLE_MOD, "spectrum"), (worker.ORACLE_MOD, "find_roots")]
    before = [getattr(mod, attr) for mod, attr in bound]
    tracer = worker.Tracer()
    api, undo = tracer.install()
    try:
        assert all(getattr(mod, attr) is not fn for (mod, attr), fn in zip(bound, before))
        for wl in worker.WORKLOADS.values():
            wl.warm(api)
    finally:
        undo()
    assert all(getattr(mod, attr) is fn for (mod, attr), fn in zip(bound, before))
    spans = set(tracer.totals())
    for pair in [("spectrum", "oracle.cross_validate"),
                 ("oracle.find_roots", "oracle.cross_validate"), ("spectrum.is_stable", ""),
                 ("sim.simulate", ""), ("sim.estimate", "")]:
        assert pair in spans, pair
    assert any(name.startswith("lambertw.") and parent == "spectrum" for name, parent in spans)
