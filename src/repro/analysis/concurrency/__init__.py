"""Static concurrency analysis + the runtime lock-order sanitizer.

Entry points:

- :func:`analyze_paths` — files/dirs in, :class:`ConcurrencyReport`
  out (violations, guard inferences, lock-order graph).
- :func:`sanitizer_for_report` / :func:`instrument_runtime` /
  :func:`instrument_cluster` — turn the static lock order into a live
  assertion over the runtime, cluster and model-registry locks inside
  soak tests.
- ``repro lint-concurrency`` — the CLI front-end with baseline
  handling and DOT export.
"""

from repro.analysis.concurrency.baseline import (
    BASELINE_NAME,
    load_baseline,
    split_against_baseline,
    write_baseline,
)
from repro.analysis.concurrency.driver import (
    ConcurrencyReport,
    analyze_modules,
    analyze_paths,
    collect_files,
)
from repro.analysis.concurrency.extract import extract_module
from repro.analysis.concurrency.lockorder import LockOrderGraph
from repro.analysis.concurrency.model import ALL_RULES, Violation
from repro.analysis.concurrency.sanitizer import (
    LockOrderSanitizer,
    SanitizedLock,
    instrument_cluster,
    instrument_runtime,
    sanitizer_for_report,
)

__all__ = [
    "ALL_RULES",
    "BASELINE_NAME",
    "ConcurrencyReport",
    "LockOrderGraph",
    "LockOrderSanitizer",
    "SanitizedLock",
    "Violation",
    "analyze_modules",
    "analyze_paths",
    "collect_files",
    "extract_module",
    "instrument_cluster",
    "instrument_runtime",
    "load_baseline",
    "sanitizer_for_report",
    "split_against_baseline",
    "write_baseline",
]
