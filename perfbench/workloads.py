"""The benchmark's workloads: one evcharge CLI command on one seeded corpus.

Nothing here imports the program under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

SLOTS_PER_EPISODE = 180  # 17:00 to 08:00 in 5-minute slots (config defaults)
POLICIES = ("fixed", "adaptive", "int", "rhc:0", "naive")
CAPACITY = "24"
GUARANTEED = ("fixed", "adaptive", "int", "rat")  # policies with a ratio target
UNCAPPED = ("fixed", "adaptive", "never")  # scored against the uncapped optimum


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # "simulate", "sweep-alpha" or "sweep-rate"
    model: str  # synthetic corpus model passed to write_corpus
    days: int
    grid: tuple[float, ...] = ()

    def argv(self, corpus: str, out_dir: str) -> list[str]:
        """Arguments after ``python -m evcharge.harness.cli``."""
        if self.command == "simulate":
            return ["simulate", "--prices", corpus, "--policies", ",".join(POLICIES),
                    "--capacity", CAPACITY, "--out", out_dir]
        flag = "--alpha-grid" if self.command == "sweep-alpha" else "--rate-grid"
        return ["sweep", "--prices", corpus, flag, ",".join(f"{g:g}" for g in self.grid),
                "--out", out_dir]

    def slot_steps(self, episodes: int) -> int:
        """Policy slot-steps the command completes: episodes x (policies or
        grid points) x slots, counting simulate's second pass in
        compare_policies only once."""
        runs = len(POLICIES) if self.command == "simulate" else len(self.grid)
        return episodes * runs * SLOTS_PER_EPISODE


def distributor_policy(capacity: Fraction) -> str:
    """The capacity-splitting policy a sweep runs at a given capacity."""
    if capacity <= 1:
        return "fixed"
    return "int" if capacity.denominator == 1 else "rat"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "simulate-regime",
            "oracle-, report- and duplicate-pass-heavy; the policies do little",
            "simulate", "regime", 30,
        ),
        Workload(
            "sweep-alpha-descending",
            "no slot reports; both pi* branches; the oracle's kept set goes from empty to churning",
            "sweep-alpha", "descending", 30, (1, 2, 4, 7, 10, 14, 20),
        ),
        Workload(
            "sweep-rate-fractional",
            "m/n capacities, so rat fans out to up to 240 sub-problems; the most online work",
            "sweep-rate", "regime", 30, (0.7, 0.9, 1.1, 1.25, 1.3),
        ),
    )
}
