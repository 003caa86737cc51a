"""Every deterministic figure the README states is recomputed here. Each
figure follows an HTML comment naming its key, <!--claim:KEY-->VALUE, and
must read as claims() formats it from the current build; a change that
moves a figure fails until the README states the new one.
`PYTHONPATH=src python tests/test_claims.py` prints the current values in
that layout."""

import re
import tempfile
from pathlib import Path

import numpy as np

from pufledger.harness import ScenarioConfig, run_fom_calibration, run_scenario

README = Path(__file__).resolve().parent.parent / "README.md"
CLAIM = re.compile(r"<!--claim:([a-z0-9-]+)-->(\d+(?:\.\d+)?)")


def claims() -> dict[str, str]:
    """Each README figure, keyed and formatted as the README states it."""
    screened = [count for seed in range(1, 21) for count in
                run_fom_calibration(ScenarioConfig(seed=seed))["screening"]["accepted_by_device"]]
    fom = run_fom_calibration(ScenarioConfig(seed=42))
    accepted = fom["screening"]["accepted_by_device"]
    with tempfile.TemporaryDirectory() as out_dir:
        scenario = run_scenario(ScenarioConfig(seed=42, out_dir=out_dir))
    enrolled = [len(record.responses) for record in scenario.built.records.values()]
    return {
        "screened-median-seeds-1-20": f"{np.median(screened):.1f}",
        "screened-min-seeds-1-20": str(min(screened)),
        "screened-max-seeds-1-20": str(max(screened)),
        "fom-uniqueness-pct-seed-42": f"{fom['population']['uniqueness_pct']:.1f}",
        "fom-reliability-pct-seed-42": f"{fom['population']['reliability_pct']:.2f}",
        "fom-accepted-min-seed-42": str(min(accepted)),
        "fom-accepted-max-seed-42": str(max(accepted)),
        "enrolled-min-seed-42": str(min(enrolled)),
        "enrolled-max-seed-42": str(max(enrolled)),
        "dt-tx-mean-ms-seed-42": f"{scenario.report.dt_tx_ms['mean']:.1f}",
    }


def test_the_readme_states_every_figure_as_recomputed():
    stated = CLAIM.findall(README.read_text(encoding="utf-8"))
    keys = [key for key, _ in stated]
    assert len(keys) == len(set(keys)), "a claim key is stated twice"
    assert dict(stated) == claims()


if __name__ == "__main__":
    for key, value in claims().items():
        print(f"<!--claim:{key}-->{value}")
