"""Every artifact of the planted-corpus CLI chain is byte-identical to the
digests pinned in ``tests/digests.json`` (see ``tests/digests.py``)."""

import pytest

import digests


def test_cli_chain_artifacts_match_the_pinned_digests(tmp_path):
    got = digests.cli_chain_digests(tmp_path)
    # The capped build does cap, so its digests pin the edge cap's choice.
    assert all("\nTRUNCATED edges\n" in path.read_text(encoding="utf-8")
               for path in (tmp_path / "capped").glob("*.net"))
    if not digests.PINNED_HERE:
        pytest.skip(digests.NOT_PINNED)
    assert got == digests.pinned()["cli"]
