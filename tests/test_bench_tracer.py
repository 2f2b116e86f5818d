"""The benchmark's span tracer still finds every function it is meant to time.

``bench/tracer.py`` wraps functions by module and name. When a function is
renamed, or a caller stops going through it, the tracer still installs and
the per-layer metric built on its spans quietly reads 0. A full replay of
the synthetic set calls every traced function, so each must leave a span.
"""

from __future__ import annotations

import sys
from pathlib import Path

from synthetic_run import write_synthetic_run

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import trace_repair  # noqa: E402
from trace_repair import cli, diagnostics  # noqa: E402


def test_synthetic_replay_opens_a_span_for_every_traced_function(tmp_path):
    dataset_path, cache_path = write_synthetic_run(tmp_path)
    spans = tracer.Tracer()
    spans.install()
    try:
        status = cli.main(
            [
                "replay",
                "--dataset",
                dataset_path,
                "--cache",
                cache_path,
                "--output-dir",
                str(tmp_path / "run"),
            ]
        )
    finally:
        spans.uninstall()
    assert status == 0
    wanted = {name for _, _, name, _ in tracer.FUNCTIONS} | {
        name for _, owner, _, name, _, _ in tracer.METHODS if owner == "ReplayProvider"
    }
    assert wanted - {span.name for span in spans.spans} == set()


def test_uninstall_leaves_the_package_root_reading_the_originals():
    original = diagnostics.diagnose
    assert "diagnose" not in vars(trace_repair)
    spans = tracer.Tracer()
    spans.install()
    try:
        # The first read through the package root, while installed.
        traced = trace_repair.diagnose
        traced("Ann has 3 apples.", "3 + 4 = 7\nFinal Answer: 7")
    finally:
        spans.uninstall()
    assert traced is not original
    assert "diagnostics.diagnose" in {span.name for span in spans.spans}
    assert trace_repair.diagnose is trace_repair.diagnostics.diagnose is original
    assert not hasattr(original, "__wrapped__")
