"""Extension experiment — cost of microreboot recovery.

ReHype's headline result is recovery latency: a microreboot is orders
of magnitude cheaper than a full reboot-and-rerun.  The simulator's
analogue compares, on the XSA-212 crash use case (Xen 4.6, exploit
mode):

* the cost of taking a hypervisor checkpoint (the per-trial overhead
  every ``--recover`` run pays up front);
* the cost of the microreboot itself (rollback + reintegrate +
  re-validate, measured inside the recovery report);
* a full fresh-testbed rerun of the same trial (what a campaign
  without recovery has to do to get back to a usable system).

Absolute numbers vary with the host; the claim, asserted on every
run, is the ordering *microreboot < full rerun* (the checkpoint is
paid once per trial, before anything goes wrong, and is comparable to
a testbed boot).  The microreboot's memory rollback is
:meth:`~repro.xen.snapshot.MachineSnapshot.restore`, the same
compare-driven rollback the fork-server's checkpoint restore uses.
"""

import time

from benchmarks.conftest import publish
from repro.core.campaign import Campaign, Mode
from repro.exploits import XSA212Crash
from repro.xen.versions import XEN_4_6

ROUNDS = 5


def run_recovered():
    return Campaign(recover=True).run(XSA212Crash, XEN_4_6, Mode.EXPLOIT)


def test_recovery_cost(benchmark):
    result = benchmark(run_recovered)
    assert result.recovery is not None and result.recovery.recovered

    from repro.core.testbed import build_testbed
    from repro.resilience.recovery import RecoveryManager

    checkpoint_elapsed = 0.0
    for _ in range(ROUNDS):
        bed = build_testbed(XEN_4_6)
        started = time.perf_counter()
        RecoveryManager(bed).checkpoint()
        checkpoint_elapsed += time.perf_counter() - started
    checkpoint_ms = checkpoint_elapsed / ROUNDS * 1000

    microreboot_ms = 0.0
    restored_words = 0
    for _ in range(ROUNDS):
        recovered = run_recovered()
        microreboot_ms += recovered.recovery.wall_time * 1000 / ROUNDS
        restored_words = recovered.recovery.restored_words

    rerun_elapsed = 0.0
    for _ in range(ROUNDS):
        started = time.perf_counter()
        Campaign().run(XSA212Crash, XEN_4_6, Mode.EXPLOIT)
        rerun_elapsed += time.perf_counter() - started
    rerun_ms = rerun_elapsed / ROUNDS * 1000

    lines = [
        "microreboot recovery cost (XSA-212 crash, Xen 4.6, exploit mode,",
        f"mean of {ROUNDS} rounds):",
        "",
        f"{'step':<28}{'mean (ms)':<12}",
        "-" * 40,
        f"{'checkpoint (capture)':<28}{checkpoint_ms:<12.2f}",
        f"{'microreboot (recover)':<28}{microreboot_ms:<12.2f}",
        f"{'full trial rerun':<28}{rerun_ms:<12.2f}",
        "",
        f"the rollback rewrote {restored_words} memory words; the",
        "microreboot recovers the crashed hypervisor in place instead of",
        "paying a fresh-testbed rerun — ReHype's trade, reproduced at",
        "simulator scale.",
    ]
    publish("resilience_recovery", "\n".join(lines))
    assert microreboot_ms < rerun_ms, (microreboot_ms, rerun_ms)
