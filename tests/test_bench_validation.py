"""The claim validator must pass every claim on the calibrated model.

``validate_all(quick=False)`` is the one ledger of the paper's claims:
each row checks its paper bands, and this file runs it in tier-1.
"""

import pytest

from repro.bench.figures import Fig09Result
from repro.bench.validation import Claim, _claim, format_claims, validate_all


@pytest.fixture(scope="module")
def ledger():
    return validate_all(quick=False)


class TestValidation:
    def test_all_claims_pass_quick(self, ledger):
        claims = validate_all(quick=True)
        failed = [c for c in claims if not c.passed]
        assert not failed, format_claims(claims)
        # The full ledger opens with the same claims at full size.
        assert [c.claim_id for c in ledger[: len(claims)]] == [c.claim_id for c in claims]

    def test_full_ledger_passes(self, ledger):
        failed = [c.claim_id for c in ledger if not c.passed]
        assert not failed, f"failed rows: {failed}\n" + format_claims(ledger)
        assert len(ledger) >= 18

    def test_claim_coverage(self, ledger):
        """Every evaluation artefact of the paper is represented."""
        sources = {c.source for c in ledger}
        for figure in ("Fig. 1a", "Fig. 8", "Fig. 9", "Fig. 10", "Fig. 11",
                       "Fig. 12", "Fig. 13", "Fig. 14 left", "Fig. 14 right",
                       "Table 3", "§3.1.2", "§3.2.1", "§3.2.2", "training",
                       "multi-node", "serving"):
            assert any(figure in s for s in sources), figure

    def test_format_lists_verdicts(self):
        claims = [
            Claim("a", "Fig. 1", "desc", True, "ok"),
            Claim("b", "Fig. 2", "desc", False, "bad"),
        ]
        text = format_claims(claims)
        assert "PASS" in text and "FAIL" in text
        assert "1/2 claims reproduced" in text


class TestClaimVerdicts:
    def test_failed_assertion_is_a_fail_row_with_its_message(self):
        def check():
            raise AssertionError("band missed")

        claim = _claim("a", "Fig. 1", "desc", check)
        assert (claim.passed, claim.details) == (False, "band missed")

    def test_raising_check_is_a_fail_row_naming_the_exception(self):
        empty = Fig09Result(rows=[])
        claim = _claim("a", "Fig. 9", "desc", lambda: str(empty.mean_reduction_vs("Tutel")))
        assert not claim.passed
        assert claim.details == "ValueError: baseline 'Tutel' never ran"
        assert "FAIL" in format_claims([claim])
