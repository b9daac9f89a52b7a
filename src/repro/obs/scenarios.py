"""Name lookup of the ``repro.obs`` rows of the one scenario registry,
:data:`repro.bench.workloads.SCENARIOS` (kept for importers of this path)."""

from repro.bench.workloads import Scenario, lookup_scenario


def get_scenario(name: str) -> Scenario:
    return lookup_scenario("obs", name)
