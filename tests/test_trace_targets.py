import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_benchmark_trace_target_resolves(monkeypatch):
    """The traced benchmark run wraps each (owner, attr) of
    perfbench/child.py's trace_targets() through spans.install, which calls
    getattr on it: a package name renamed or deleted under a target would
    crash that run, so each must still name a callable."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)    # leave perfbench/ as it is
    siblings = ("common", "ops", "spans")       # child.py imports them by name
    try:
        spec = importlib.util.spec_from_file_location("perfbench_child",
                                                      PERFBENCH / "child.py")
        child = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(child)
        targets = child.trace_targets()
    finally:
        for name in siblings:
            sys.modules.pop(name, None)
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in targets if not callable(getattr(owner, attr, None))]
    assert missing == []
