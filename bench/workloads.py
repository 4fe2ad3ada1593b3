"""The benchmark's three workloads, their inputs and their correctness checks.

A workload is a list of requests made through the public forbpairs API with
``threads=1``.  Each request is a zero-argument callable returning an output
that :func:`check` compares with the reference recorded in ``reference/``.

* ``restricted_deep`` -- the c07 spot checks through ``verify_universal`` and
  the c04/c05 censuses, all at n <= 8 and all cold.  Fixed inputs.
* ``full_sweep`` -- unrestricted generation for n = 1..8 and the three
  oracles on every graph, as one request.  Fixed inputs.
* ``pair_survey`` -- pairs {X, Y} of graphs on 2..5 vertices drawn from the
  seed; a request is one pair: ``classify_pair`` and ``verify_universal``
  for perfect and for omega in a class drawn from the seed, at n <= 6.
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import partial
from pathlib import Path
from types import SimpleNamespace

from forbpairs import catalog, graphs, harness, pairs, perfection
from forbpairs.expr import graph_from_expr
from forbpairs.graph6 import decode_graph6, encode_graph6

REFERENCE = Path(__file__).resolve().parent / "reference"

WORKLOADS = ("restricted_deep", "full_sweep", "pair_survey")

DEEP_NMAX = 8
DEEP_REQUESTS = (
    ("verify", ("K1,3", "P5"), "Gcalpha", "perfect"),
    ("verify", ("K1,3", "Z2"), "Gcoalpha", "perfect"),
    ("verify", ("chair", "Z1"), "Gco", "perfect"),
    ("verify", ("2K1+K2", "co(K1+P4)"), "Goalpha", "omega"),
    ("census", ("2K1+K2", "D"), ("non-perfect",)),
    ("census", ("3K1", "K4"), ("connected", "not-omega-colourable", "not-odd-cycle")),
    ("census", ("4K1", "K3"), ("alpha=3", "not-omega-colourable", "not-odd-cycle")),
)

SWEEP_NMAX = 8
# literature values the sweep must reproduce: graphs per order (OEIS A000088),
# and the imperfect (A052431) and chi > omega graphs on at most 8 vertices
KNOWN_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)
IMPERFECT_UPTO_8 = 3606
CHI_GT_OMEGA_UPTO_8 = 584

SURVEY_NMAX = 6
SURVEY_PAIRS = 120
# fixed here, not taken from pairs.NAMED_CLASSES, so that the reference
# columns and the seed's draws do not depend on the library's dict order
SURVEY_CLASSES = (
    "G", "G5", "Go", "Gc", "Gc5", "Galpha", "Goalpha", "Gcalpha", "Gco", "Gcoalpha",
)

# The full sweep calls the oracles through this namespace so that the
# traced run can wrap exactly the benchmark's own calls.
ORACLES = SimpleNamespace(
    perfect=perfection.is_perfect_spgt,
    chi=graphs.chromatic_number,
    omega=graphs.max_clique,
)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def request_label(request: tuple) -> str:
    if request[0] == "verify":
        _, (x, y), cls, prop = request
        return f"verify {{{x}, {y}}} {cls} {prop}"
    _, patterns, preds = request
    return f"census {{{', '.join(patterns)}}} [{', '.join(preds)}]"


def warm_lazy_tables() -> None:
    """Fill the library's lazily built tables, as any CLI call would."""
    pairs.classify_pair(pairs.PairSpec(catalog.path(4), catalog.paw()))
    catalog.recognize(catalog.paw())


# ---------------------------------------------------------------------------
# restricted_deep


def _deep_verify(x, y, cls, prop):
    report = harness.verify_universal(
        pairs.PairSpec(x, y), pairs.NAMED_CLASSES[cls], prop, DEEP_NMAX,
        class_name=cls, threads=1,
    )
    return {
        "verdict": report.verdict,
        "examined": {str(n): c for n, c in report.examined.items()},
        "passing": {str(n): c for n, c in report.passing.items()},
        "digest": digest(report.to_text()),
    }


def _deep_census(patterns, preds):
    result = harness.census(patterns, preds, DEEP_NMAX, threads=1)
    return {"members": len(result.members), "digest": digest(result.to_text())}


def deep_inputs() -> list:
    """Parsed requests; the inputs are fixed."""
    out = []
    for request in DEEP_REQUESTS:
        if request[0] == "verify":
            _, (x, y), cls, prop = request
            out.append(partial(_deep_verify, graph_from_expr(x), graph_from_expr(y), cls, prop))
        else:
            _, patterns, preds = request
            out.append(partial(_deep_census, [graph_from_expr(p) for p in patterns], list(preds)))
    return out


# ---------------------------------------------------------------------------
# full_sweep


def _sweep():
    return [
        (g, ORACLES.perfect(g).perfect, ORACLES.chi(g), ORACLES.omega(g))
        for n in range(1, SWEEP_NMAX + 1)
        for g in harness.generate_graphs(n)
    ]


def sweep_inputs() -> list:
    """The sweep is a single request, a batch job a caller waits for whole.

    Its oracle calls all fall in about one second at the end of each
    repetition, so per-graph or per-block latencies would sample the host's
    speed over that second only and spread far more than the wall time.
    """
    return [_sweep]


# ---------------------------------------------------------------------------
# pair_survey


def survey_draw(seed: int, rows) -> list[tuple[int, int, str]]:
    """SURVEY_PAIRS (i, j, class) requests drawn from the seed.

    Pairs are stratified by cost (the size of their free class up to
    SURVEY_NMAX): the pairs sorted by cost are cut into SURVEY_PAIRS equal
    strata and one pair is drawn from each, and every class is drawn equally
    often.  Different seeds thus ask different questions of about the same
    total work, which keeps the seed out of the run-to-run spread.
    """
    rng = random.Random(seed)
    ranked = sorted(rows, key=lambda r: (r[2], r[0], r[1]))
    k = SURVEY_PAIRS
    strata = [ranked[len(ranked) * s // k : len(ranked) * (s + 1) // k] for s in range(k)]
    picks = [rng.choice(stratum) for stratum in strata]
    classes = [SURVEY_CLASSES[s % len(SURVEY_CLASSES)] for s in range(k)]
    rng.shuffle(classes)
    drawn = [(i, j, cls) for (i, j, _, _), cls in zip(picks, classes)]
    rng.shuffle(drawn)
    return drawn


def survey_request(x, y, cls: str) -> str:
    """The text a pair request answers: collections, then both reports."""
    pair = pairs.PairSpec(x, y)
    members = sorted(name for name, inside in pairs.classify_pair(pair).items() if inside)
    reports = [
        harness.verify_universal(
            pair, pairs.NAMED_CLASSES[cls], prop, SURVEY_NMAX, class_name=cls, threads=1
        ).to_text()
        for prop in ("perfect", "omega")
    ]
    return "\n".join(["collections " + ",".join(members)] + reports)


def survey_inputs(pool: list[str], drawn) -> list:
    graphs_ = [decode_graph6(g6) for g6 in pool]
    return [partial(survey_request, graphs_[i], graphs_[j], cls) for i, j, cls in drawn]


# ---------------------------------------------------------------------------
# set-up and checks


def load_reference(workload: str):
    """The workload's recorded reference (benchmark data, not program input)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if workload != "pair_survey":
        return json.loads((REFERENCE / f"{workload}.json").read_text())
    pool: list[str] = []
    rows = []
    with open(REFERENCE / "pair_survey.tsv") as fh:
        for line in fh:
            fields = line.split()
            if fields[0] == "#":
                continue
            if fields[0] == "pool":
                pool = fields[1:]
            else:
                i, j, cost = map(int, fields[:3])
                rows.append((i, j, cost, fields[3:]))
    return pool, rows


def setup(workload: str, seed: int, reference) -> list:
    """Build the workload's requests through the library's parsers."""
    warm_lazy_tables()
    if workload == "restricted_deep":
        return deep_inputs()
    if workload == "full_sweep":
        return sweep_inputs()
    pool, rows = reference
    return survey_inputs(pool, survey_draw(seed, rows))


def sweep_summary(outputs) -> list[dict]:
    """Per order: graph count, imperfect and chi > omega counts, digest.

    The digest covers one `graph6 perfect chi omega` line per graph, in
    generation order.
    """
    by_order: dict[int, list] = {}
    for g, perfect, chi, omega in (row for request in outputs for row in request):
        by_order.setdefault(g.n, []).append((encode_graph6(g), perfect, chi, omega))
    return [
        {
            "n": n,
            "graphs": len(rows),
            "imperfect": sum(not perfect for _, perfect, _, _ in rows),
            "chi_gt_omega": sum(chi > omega for _, _, chi, omega in rows),
            "digest": digest("\n".join(f"{g6} {int(p)} {c} {o}" for g6, p, c, o in rows)),
        }
        for n, rows in sorted(by_order.items())
    ]


def check(workload: str, seed: int, reference, outputs: list) -> tuple[int, int, int, list[str]]:
    """(attempted, failed, examined, messages) for one repetition's outputs.

    `examined` is the number of graphs the requests examined, taken from the
    reference, so that it is fixed for a workload and seed.
    """
    if workload == "restricted_deep":
        failed, messages = 0, []
        for k, (request, want) in enumerate(zip(DEEP_REQUESTS, reference)):
            got = outputs[k] if k < len(outputs) else None
            if request_label(request) != want["request"] or got != want["output"]:
                failed += 1
                messages.append(f"{want['request']}: expected {want['output']}, got {got}")
        examined = sum(want["examined_graphs"] for want in reference)
        return len(reference), failed, examined, messages

    if workload == "full_sweep":
        have = {o["n"]: o for o in sweep_summary(outputs)}
        messages = [
            f"order {want['n']}: expected {want}, got {have.get(want['n'])}"
            for want in reference if have.get(want["n"]) != want
        ]
        literature = (
            [o["graphs"] for o in have.values()] == list(KNOWN_COUNTS[1:]),
            sum(o["imperfect"] for o in have.values()) == IMPERFECT_UPTO_8,
            sum(o["chi_gt_omega"] for o in have.values()) == CHI_GT_OMEGA_UPTO_8,
        )
        if not all(literature):
            messages.append(f"literature counts differ: {literature}")
        examined = sum(want["graphs"] for want in reference)
        return len(outputs), int(bool(messages)), examined, messages

    _, rows = reference
    drawn = survey_draw(seed, rows)
    by_pair = {(i, j): (cost, digests) for i, j, cost, digests in rows}
    failed, messages, examined = 0, [], 0
    for k, (i, j, cls) in enumerate(drawn):
        cost, digests = by_pair[(i, j)]
        examined += 2 * cost
        want = digests[SURVEY_CLASSES.index(cls)]
        got = digest(outputs[k]) if k < len(outputs) else None
        if got != want:
            failed += 1
            messages.append(f"pair ({i}, {j}) in {cls}: expected {want}, got {got}")
    return len(drawn), failed, examined, messages
