"""The benchmark's span tracer wraps minmatch functions by name; every name
it lists must still exist, or a traced run would lose that layer.  The
harness's self-test must pass against the package as well."""

import subprocess
import sys
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


def test_benchmark_selftest_passes():
    # the harness's own self-test runs every workload, untraced and traced,
    # at tiny sizes against the package as it is now
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "selftest.py")],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
