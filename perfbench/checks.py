"""Verification gates for the benchmark campaigns.

Every gate is counted; a gate that fails is recorded with its detail and the
campaign goes on, so one run reports how many gates it attempted and how
many failed.  The tolerances are the acceptance suite's
(`tests/test_acceptance.py`) or, where that suite has none, the unit test
named next to the constant; none is looser than its source.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field

# criterion 6 (kernel ordering sweep)
SLOPE_RANGE = (-1.2, -0.8)
SLOPE_RESIDUAL = 0.1
QUARTER_DROP = 4.0              # D(32) < D(4) / 4
SWEEP_SECONDS = 600.0
# criterion 7 (oracle agreement): errors fall with m, below this at the largest m
ORACLE_ERROR = 1e-2
# tests/test_oracle.py::test_split_step_coherent_state_center_tracks_classical_ellipse
SPLIT_STEP_CENTRE = 1e-3
# criterion 1, 3, 5 time limits
COUPLING_SECONDS = 10.0
TABLE_SECONDS = 30.0
WASHOUT_SECONDS = 120.0
# criterion 5 (symbol washout and detection power)
WASHOUT_RELATIVE = 1e-6
CONTROL_SPREAD = 1e-2
# tests/test_weyl.py::test_washout_direct_within_selfconvergence_budget
DIRECT_SELF_CONVERGENCE = 10.0
# tests/test_weyl.py::test_quantizer_trace_matches_direct_symbol
QUANTIZER_AGREEMENT = 1e-8
# criterion 9 (star identities) and `ncpath star-check`
STAR_IDENTITY = 1e-8
KERNEL_VS_STAR = 1e-8


@dataclass
class Check:
    name: str
    passed: bool
    detail: str


@dataclass
class Checks:
    """Counts gates attempted and failed; never raises on a failed gate."""

    results: list = field(default_factory=list)
    step_seconds: dict = field(default_factory=dict)

    def record(self, name: str, passed, detail: str = "") -> bool:
        passed = bool(passed)
        self.results.append(Check(name, passed, detail))
        return passed

    def below(self, name: str, value: float, limit: float) -> bool:
        """Pass when value < limit (a NaN value fails)."""
        return self.record(name, value < limit, f"{value!r} < {limit!r}")

    def at_least(self, name: str, value: float, limit: float) -> bool:
        return self.record(name, value >= limit, f"{value!r} >= {limit!r}")

    def within(self, name: str, value: float, low: float, high: float) -> bool:
        return self.record(name, low <= value <= high, f"{low!r} <= {value!r} <= {high!r}")

    def equal(self, name: str, value, expected) -> bool:
        return self.record(name, value == expected, f"{value!r} == {expected!r}")

    def step(self, name: str, func):
        """Run and time one campaign step; an exception counts as one failed gate."""
        t0 = time.perf_counter()
        try:
            return func()
        except Exception:  # noqa: BLE001 - a crashing step is a failed gate, not an abort
            self.record(name, False, traceback.format_exc(limit=4))
            return None
        finally:
            self.step_seconds[name] = time.perf_counter() - t0

    @property
    def run(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.results if not c.passed)

    def failures(self) -> list:
        return [f"{c.name}: {c.detail}" for c in self.results if not c.passed]
