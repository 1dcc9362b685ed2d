"""repro-lint throughput: the gate must be cheap enough to run always.

A determinism linter only holds the line if it sits in CI and
pre-commit hooks without anyone noticing it. One budget: the whole
pass (parse, the per-file rules, the call graph and dataflow index,
and the interprocedural analyses on top) over the entire ``repro``
package in under twenty seconds.

The benchmark also checks the pass is doing real work (every source
file parsed, a clean report, which every rule contributes to, and a
digested-spec closure that fingerprints to the schema pin, so the pin
was checked) so a silently-skipping linter cannot pass on speed
alone.
"""

import os

from benchmarks.conftest import run_once
from repro.experiments.artifact import SCHEMA_FINGERPRINT
from repro.lintpass import all_rules, run_lint
from repro.lintpass.project import ProjectIndex
from repro.lintpass.rules_deep_digest import schema_snapshot

MAX_SECONDS = 20.0


def _package_dir() -> str:
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def _source_file_count(package_dir: str) -> int:
    return sum(
        1
        for _, _, names in os.walk(package_dir)
        for n in names
        if n.endswith(".py")
    )


def test_full_package_lint_under_budget(benchmark):
    package_dir = _package_dir()
    report = run_once(benchmark, run_lint, [package_dir])

    seconds = benchmark.stats.stats.max
    print()
    print(
        f"linted {report.files_checked} files with "
        f"{len(all_rules())} rules in {seconds:.2f}s"
    )
    assert report.files_checked == _source_file_count(package_dir)
    assert report.clean, "\n".join(v.render() for v in report.violations)
    index = ProjectIndex.build([package_dir])
    assert schema_snapshot(index) == SCHEMA_FINGERPRINT
    assert seconds < MAX_SECONDS, (
        f"full-package lint took {seconds:.2f}s (budget {MAX_SECONDS:.0f}s)"
    )
