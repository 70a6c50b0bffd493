"""EXPERIMENTS.md quotes the accuracy figures' recorded headlines.

Each accuracy benchmark writes ``avg X% / max Y%`` into the first line
of its ``benchmarks/results`` file.  The EXPERIMENTS.md row for that
figure quotes the same two numbers by hand; this test fails as soon as
the quote and the record disagree.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

#: Accuracy figure -> the results file its bench records.
FIGURES = {
    "Fig. 7": "fig7_gatk4_model_accuracy.txt",
    "Fig. 8a": "fig8a_lr_small.txt",
    "Fig. 8b": "fig8b_lr_large.txt",
    "Fig. 9": "fig9_svm.txt",
    "Fig. 10": "fig10_pagerank.txt",
    "Fig. 11": "fig11_triangle_count.txt",
    "Fig. 12": "fig12_terasort.txt",
    "Fig. 14": "fig14_gcloud_validation.txt",
}

HEADLINE = re.compile(r"avg (\d+\.\d)% / max (\d+\.\d)%")
#: ``**avg %** (max %`` in a row, with an optional ``max`` inside the
#: parenthesis (the Fig. 14 row spells it out).
QUOTED = re.compile(r"\*\*(\d+\.\d) %\*\* \((?:max )?(\d+\.\d) %")


def _row(figure: str) -> str:
    prefix = f"| {figure} "
    rows = [
        line
        for line in (REPO / "EXPERIMENTS.md").read_text().splitlines()
        if line.startswith(prefix)
    ]
    assert len(rows) == 1, f"expected one EXPERIMENTS.md row for {figure}"
    return rows[0]


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_row_quotes_the_recorded_headline(figure):
    results = REPO / "benchmarks" / "results" / FIGURES[figure]
    recorded = HEADLINE.search(results.read_text().splitlines()[0])
    assert recorded is not None, f"{results.name} has no avg/max headline"
    quoted = QUOTED.search(_row(figure))
    assert quoted is not None, f"the {figure} row quotes no avg/max pair"
    assert quoted.groups() == recorded.groups(), (
        f"EXPERIMENTS.md quotes {figure} as avg {quoted[1]}% / max"
        f" {quoted[2]}%, but {results.name} records avg {recorded[1]}%"
        f" / max {recorded[2]}%"
    )
