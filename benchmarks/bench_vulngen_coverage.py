"""Extension experiment — coverage-guided vs uniform fuzz scheduling
over the synthetic vulnerability corpus.

Both arms get the identical trial budget over the identical corpus;
the only difference is the scheduler.  The guided arm sweeps the
corpus first (exploration floor), then concentrates budget on entries
whose trials keep exhibiting unseen probe-coverage features; the
uniform arm redraws entries blindly, as §IV-C does.  Reported per
round: the cumulative probe-coverage curve and the distinct
(entry, outcome) footprint — the behavioural ground the campaign
actually covered.
"""

from benchmarks.conftest import publish
from repro.vulngen.corpus import generate_corpus
from repro.vulngen.schedule import CoverageFuzzCampaign
from repro.xen.versions import XEN_4_6

CORPUS_SEED = 20230701
CORPUS_SIZE = 24
ROUNDS = 4
TRIALS_PER_ROUND = 8


def run_both_arms():
    corpus = generate_corpus(CORPUS_SEED, CORPUS_SIZE)
    guided = CoverageFuzzCampaign(
        XEN_4_6, corpus, root_seed=CORPUS_SEED, guided=True
    ).run(rounds=ROUNDS, trials_per_round=TRIALS_PER_ROUND)
    uniform = CoverageFuzzCampaign(
        XEN_4_6, corpus, root_seed=CORPUS_SEED, guided=False
    ).run(rounds=ROUNDS, trials_per_round=TRIALS_PER_ROUND)
    return guided, uniform


def test_vulngen_coverage(benchmark):
    guided, uniform = benchmark.pedantic(run_both_arms, rounds=1, iterations=1)

    budget = ROUNDS * TRIALS_PER_ROUND
    assert len(guided.results) == len(uniform.results) == budget
    # The acceptance bar: guided >= uniform on distinct-outcome
    # coverage at the same trial budget.
    assert len(guided.distinct_outcomes()) >= len(uniform.distinct_outcomes())
    # Both novelty curves are monotone by construction.
    for report in (guided, uniform):
        curve = report.novelty_curve()
        assert all(a <= b for a, b in zip(curve, curve[1:]))

    lines = [
        "coverage-guided vs uniform scheduling "
        f"(corpus {CORPUS_SIZE} entries, seed {CORPUS_SEED}, "
        f"{budget} trials per arm, Xen 4.6)",
        "",
        f"{'round':<7}{'guided coverage':<17}{'uniform coverage':<17}",
        "-" * 41,
    ]
    for g, u in zip(guided.rounds, uniform.rounds):
        lines.append(
            f"{g.round:<7}{g.coverage_size:<17}{u.coverage_size:<17}"
        )
    lines += [
        "-" * 41,
        "",
        f"{'metric':<36}{'guided':<9}{'uniform':<9}",
        "-" * 54,
        f"{'distinct (entry, outcome) pairs':<36}"
        f"{len(guided.distinct_outcomes()):<9}"
        f"{len(uniform.distinct_outcomes()):<9}",
        f"{'probe-coverage features':<36}"
        f"{len(guided.coverage):<9}{len(uniform.coverage):<9}",
        f"{'corpus entries exercised':<36}"
        f"{len({r.component for r in guided.results}):<9}"
        f"{len({r.component for r in uniform.results}):<9}",
        "-" * 54,
        "",
        "The guided arm's exploration floor sweeps every corpus entry",
        "before any is re-tried, then novelty-weighted energy directs",
        "the remaining budget — uniform redraws blindly and re-spends",
        "trials on entries that cannot add behaviour.  Both campaigns",
        f"are deterministic (guided schedule digest "
        f"{guided.schedule_digest()[:16]}).",
    ]
    publish("vulngen_coverage", "\n".join(lines))
