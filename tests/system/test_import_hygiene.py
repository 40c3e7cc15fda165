"""Import hygiene: numpy and the columnar engine stay off the default path.

The flow/race CI jobs run the analysis tooling in a numpy-less
environment and rely on ``repro.analysis``/``repro.verify`` being pure
stdlib; ``repro.system.columnar`` (which imports numpy eagerly) must
only load when a trace actually replays.
A subprocess gives each check a clean interpreter: this test would pass
vacuously in-process once any earlier test imported numpy.
"""

import subprocess
import sys
import textwrap


def run_python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, timeout=120)


def test_numpy_free_consumers_stay_numpy_free():
    proc = run_python("""
        import sys

        class BlockNumpy:
            def find_spec(self, name, path=None, target=None):
                if name == "numpy" or name.startswith("numpy."):
                    raise ImportError("numpy blocked: this consumer "
                                      "must stay numpy-free")
                return None

        sys.meta_path.insert(0, BlockNumpy())
        import repro.analysis
        import repro.verify
        import repro.bench.history
        import repro.bench.shm
        from repro.system.system import System
        assert "repro.system.columnar" not in sys.modules
        assert "numpy" not in sys.modules
        print("import hygiene OK")
    """)
    assert proc.returncode == 0, proc.stderr
    assert "import hygiene OK" in proc.stdout


def test_columnar_loads_only_on_trace_replay():
    """Generator-driven runs never import the columnar engine."""
    proc = run_python("""
        import sys
        from repro.system.config import tiny_config
        from repro.system.system import System
        from repro.workloads.registry import make_workload

        System(tiny_config()).run(make_workload("HG", "small", seed=7,
                                                n_values=2000),
                                  max_ops_per_thread=200)
        assert "repro.system.columnar" not in sys.modules
        print("columnar off generator path OK")
    """)
    assert proc.returncode == 0, proc.stderr
    assert "columnar off generator path OK" in proc.stdout


def test_trace_replay_without_numpy_raises_trace_error():
    """Trace replay in a numpy-less environment fails loudly, never by
    silently switching to another engine."""
    proc = run_python("""
        import sys

        class BlockNumpy:
            def find_spec(self, name, path=None, target=None):
                if name == "numpy" or name.startswith("numpy."):
                    raise ImportError("numpy blocked")
                return None

        sys.meta_path.insert(0, BlockNumpy())
        # EngineMicroload generates its streams with pure arithmetic — the
        # registry workloads draw their data through numpy and cannot even
        # capture in a numpy-less environment.
        from repro.bench.microbench import capture_engine_trace
        from repro.cpu.trace import TraceError
        from repro.system.config import tiny_config
        from repro.system.system import System

        trace = capture_engine_trace(n_ops=500)
        try:
            System(tiny_config()).run(trace)
        except TraceError as exc:
            assert "System.run(workload)" in str(exc), exc
            print("numpy-less replay raises OK")
    """)
    assert proc.returncode == 0, proc.stderr
    assert "numpy-less replay raises OK" in proc.stdout
