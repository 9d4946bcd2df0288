"""Zero-cost guarantee: the robustness layer is invisible when unused.

The two golden files were captured from the serve CLI *before* the
admission/retry/breaker/chaos layer existed.  A default run (no
robustness flags) must reproduce them byte-for-byte — same SLO report
JSON, same telemetry JSONL — proving the new layer adds nothing to the
default path: no schema bump, no extra records, no perturbed RNG
streams, no changed accounting.

The telemetry golden was regenerated once since, when spans began
reading their message count off the ledger.  Before, every
``serve-request`` leaf repeated the charge its ``pool-fanout`` siblings
had already made, so ``serve-batch`` reported each executed query twice
(832 work units for ``pool:cached`` against a ledger of 416).  Now
``serve-request`` leaves carry 0 and ``serve-batch`` is the ledger's
charge for the batch; only those two span kinds' ``messages`` and their
``profile`` rows moved.  The SLO report is never regenerated.

Regenerate the telemetry golden (only when the span layout legitimately
changes) with::

    PYTHONPATH=src python -m tests.serve.test_golden_zero_cost
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench.cli import main
from repro.telemetry.export import read_telemetry_jsonl

GOLDEN = Path(__file__).parent / "golden"
ARGS = [
    "serve",
    "--size", "100",
    "--duration", "15",
    "--rate", "2",
    "--pattern", "bursts",
    "--seed", "0",
    "--quiet",
]


def serve(slo: Path, telemetry: Path) -> None:
    """One default serve run via the real CLI entry point."""
    rc = main([*ARGS, "--slo-report", str(slo), "--telemetry", str(telemetry)])
    assert rc == 0


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("serve_golden")
    slo = out / "slo.json"
    telemetry = out / "telemetry.jsonl"
    serve(slo, telemetry)
    return slo, telemetry


class TestDefaultRunIsByteIdentical:
    def test_slo_report_matches_the_pre_layer_golden(self, default_run):
        slo, _ = default_run
        golden = (GOLDEN / "serve_run_prepr.json").read_bytes()
        assert slo.read_bytes() == golden

    def test_telemetry_matches_the_pre_layer_golden(self, default_run):
        _, telemetry = default_run
        golden = (GOLDEN / "serve_telemetry_prepr.jsonl").read_bytes()
        assert telemetry.read_bytes() == golden

    def test_golden_batches_charge_what_the_ledger_charged(self):
        _, records = read_telemetry_jsonl(GOLDEN / "serve_telemetry_prepr.jsonl")
        assert records
        for record in records:
            (batches,) = [
                row for row in record["profile"] if row["name"] == "serve-batch"
            ]
            ledger = record["messages"]
            assert batches["total_wu"] == (
                ledger["query_forward"] + ledger["query_reply"]
            ), record["system"]

    def test_golden_report_is_schema_one(self):
        # Belt and braces: the golden itself must not carry robust keys.
        text = (GOLDEN / "serve_run_prepr.json").read_text()
        assert '"serve-run/1"' in text
        assert '"conditions"' not in text
        assert '"goodput"' not in text


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        target = GOLDEN / "serve_telemetry_prepr.jsonl"
        serve(Path(scratch) / "slo.json", target)
        print(f"wrote {target}")
