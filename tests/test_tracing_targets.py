"""The benchmark's span tracer wraps minmatch functions by name; every name
it lists must still exist, or a traced run would lose that layer."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    targets = tracing.targets()
    assert targets
    missing = [
        f"{group}: {getattr(owner, '__name__', owner)}.{attr}"
        for group, pairs in targets.items()
        for owner, attr in pairs
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []
