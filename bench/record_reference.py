"""Record the reference outputs the benchmark checks every request against.

    python3 bench/record_reference.py

Run it only at a commit whose outputs are trusted; it rewrites the files in
bench/reference/.  It takes several minutes: the pair_survey reference
covers every pair of graphs on 2..5 vertices in every class, so that any
seed's draw can be checked.  It uses one process per available core.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from forbpairs import harness  # noqa: E402
from forbpairs.expr import graph_from_expr  # noqa: E402
from forbpairs.graph6 import decode_graph6, encode_graph6  # noqa: E402


def record_deep() -> list[dict]:
    out = []
    for request, run in zip(wl.DEEP_REQUESTS, wl.deep_inputs()):
        output = run()
        patterns = [graph_from_expr(p) for p in request[1]]
        examined = sum(
            len(harness.generate_graphs(n, patterns)) for n in range(1, wl.DEEP_NMAX + 1)
        )
        out.append({"request": wl.request_label(request), "output": output,
                    "examined_graphs": examined})
    return out


def record_sweep() -> list[dict]:
    summary = wl.sweep_summary([run() for run in wl.sweep_inputs()])
    assert [o["graphs"] for o in summary] == list(wl.KNOWN_COUNTS[1:])
    assert sum(o["imperfect"] for o in summary) == wl.IMPERFECT_UPTO_8
    assert sum(o["chi_gt_omega"] for o in summary) == wl.CHI_GT_OMEGA_UPTO_8
    return summary


def survey_rows(args) -> list[str]:
    pool, chunk = args
    graphs = [decode_graph6(g6) for g6 in pool]
    lines = []
    for i, j in chunk:
        x, y = graphs[i], graphs[j]
        digests = [wl.digest(wl.survey_request(x, y, cls)) for cls in wl.SURVEY_CLASSES]
        cost = sum(
            len(harness.generate_graphs(n, [x, y])) for n in range(1, wl.SURVEY_NMAX + 1)
        )
        lines.append(" ".join([str(i), str(j), str(cost)] + digests))
    return lines


def record_survey() -> str:
    procs = len(os.sched_getaffinity(0))
    pool = [encode_graph6(g) for n in range(2, 6) for g in harness.generate_graphs(n)]
    pairs = [(i, j) for i in range(len(pool)) for j in range(i + 1, len(pool))]
    chunks = [pairs[k::procs * 8] for k in range(procs * 8)]
    with multiprocessing.get_context("spawn").Pool(procs) as workers:
        parts = workers.map(survey_rows, [(pool, c) for c in chunks])
    rows = sorted(
        (line for part in parts for line in part),
        key=lambda line: tuple(map(int, line.split()[:2])),
    )
    head = [
        f"# pair_survey reference: n <= {wl.SURVEY_NMAX}; pool = graphs on 2..5 vertices",
        "# row: i j cost digest-per-class; cost = size of the {X,Y}-free class;"
        " classes: " + " ".join(wl.SURVEY_CLASSES),
        "pool " + " ".join(pool),
    ]
    return "\n".join(head + rows) + "\n"


def main() -> None:
    wl.REFERENCE.mkdir(exist_ok=True)
    wl.warm_lazy_tables()
    (wl.REFERENCE / "restricted_deep.json").write_text(json.dumps(record_deep(), indent=1) + "\n")
    (wl.REFERENCE / "full_sweep.json").write_text(json.dumps(record_sweep(), indent=1) + "\n")
    (wl.REFERENCE / "pair_survey.tsv").write_text(record_survey())


if __name__ == "__main__":
    main()
