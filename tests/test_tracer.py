"""The benchmark's tracer (e2ebench/tracer.py) wraps program functions by
the names their callers look up; installing it fails as soon as one of
those names is gone, which would break `e2ebench/run.py --trace 1`."""

from pathlib import Path

from adelic_zeta import lfun, polya

E2EBENCH = Path(__file__).resolve().parents[1] / "e2ebench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(E2EBENCH))
    import tracer

    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, *_ in tracer._targets()]
    t = tracer.Tracer()
    t.install()
    try:
        assert all(getattr(owner, attr) is not orig for owner, attr, orig in originals)
        lfun.completed_lambda_zeta(2.0)
    finally:
        t.uninstall()
    assert all(getattr(owner, attr) is orig for owner, attr, orig in originals)
    names = {span[0] for span in t.spans}
    assert {"lfun.completed_lambda", "numkit.integrate_finite", "kernels.neumaier_sum"} <= names
    assert all(getattr(owner, attr) is orig for owner, attr, orig in originals)


def test_tracer_reads_the_sampler_and_the_scan(monkeypatch):
    # the sampler's span reads CriticalLineFn.cache_size only inside a
    # traced call, so installing alone would not notice that name going
    monkeypatch.syspath_prepend(str(E2EBENCH))
    import tracer

    t = tracer.Tracer()
    t.install()
    try:
        F = polya.CriticalLineFn("zeta")
        value = F(14.0)
        assert F(14.0) == value
        zeros = polya.scan_zeros(polya.CriticalLineFn("zeta"), 13.5, 15.0)
    finally:
        t.uninstall()
    counts = {}
    for name, _parent, _start, _end, c in t.spans:
        counts.setdefault(name, []).append(c)
    # the sampler keeps no cache, so a repeated ordinate is sampled again
    assert counts["polya.sampler"] == [{"hits": 0}, {"hits": 0}]
    assert counts["polya.scan"] == [{"grid": 31, "zeros": len(zeros)}]
    assert len(zeros) == 1
