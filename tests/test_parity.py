"""Engine parity against committed digests (see ``tests/parity.py``).

Every golden entry runs through every engine, and each engine's digest
must equal the entry's committed sha256.  A change that moves a digest
changes what a plan computes: it updates
``tests/data/parity_digests.json`` and says why in CHANGES.md.
"""

import pytest

import parity
from repro.cli import main

GOLDEN = parity.load_golden()

#: The CLI command behind each store entry.
CLI_COMMANDS = {
    "campaign": ["campaign"],
    "cross-domain": ["campaign", "--cross-domain"],
    "fuzz": ["fuzz", "--version", "4.13", "--runs", "3"],
    "benchmark": ["benchmark"],
    "testcase": ["testcase", "suite"],
}

#: ``parity.FORK_SERVER`` as CLI flags.
FORK_SERVER_FLAGS = ["--jobs", "2", "--fork-server", "--batch", "2", "--recycle-after", "3"]


class TestGoldenDigests:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_every_engine_reproduces_the_golden_digest(self, name, tmp_path):
        entry = GOLDEN[name]
        found = parity.digests(entry["plan"], str(tmp_path))
        if entry["plan"]["kind"] == "coverage":
            assert set(found) == set(parity.COVERAGE_RUNNERS)
        else:
            assert set(found) == set(parity.RUNNERS) | set(parity.SERVICES)
        assert found == {engine: entry["sha256"] for engine in found}


class TestCliWiring:
    """The CLI wires the same plan into its runners: equal stdout, and
    stores that compact to the golden digest."""

    @pytest.mark.parametrize("name", sorted(CLI_COMMANDS))
    def test_serial_and_fork_server_agree_with_the_golden_digest(
        self, name, tmp_path, capsys
    ):
        outputs, stores = [], []
        for label, flags in (("serial", []), ("fork-server", FORK_SERVER_FLAGS)):
            store = str(tmp_path / f"{label}.sqlite")
            assert main([*CLI_COMMANDS[name], *flags, "--store", store]) == 0
            outputs.append(capsys.readouterr().out)
            stores.append(store)
        assert outputs[0] == outputs[1]
        for store in stores:
            assert parity.store_sha256(store) == GOLDEN[name]["sha256"], store
