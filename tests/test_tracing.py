"""The benchmark tracer (``bench/tracing.py``) still finds every name it
patches in the library, and puts each one back."""

import pathlib

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_install_patches_and_unpatch_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        patched = list(tracer._patched)
        assert all(current(owner, attr) is not original for owner, attr, original in patched)
    finally:
        tracer.unpatch()
    assert patched
    for owner, attr, original in patched:
        assert current(owner, attr) is original, f"{owner}.{attr}"
