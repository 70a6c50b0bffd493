"""EXPERIMENTS.md and README quote the recorded figure results.

Each accuracy benchmark writes ``avg X% / max Y%`` into the first line
of its ``benchmarks/results`` file, each Section-V gap benchmark writes
``-> G.Gx (paper: P.Px)``, and the Section-VI cost benchmarks write
their optimum, R1/R2 and savings rows into ``fig13_hdd_optimum.txt``
and ``fig15_headline.txt``.  The docs quote the same numbers by hand;
these tests fail as soon as a quote and its record disagree.
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


def _line(path: Path, prefix: str) -> str:
    """The one line of ``path`` that starts with ``prefix``."""
    lines = [
        line for line in path.read_text().splitlines()
        if line.startswith(prefix)
    ]
    assert len(lines) == 1, f"expected one {path.name} line for {prefix!r}"
    return lines[0]


def _row(figure: str) -> str:
    return _line(REPO / "EXPERIMENTS.md", f"| {figure} ")


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


RESULTS = REPO / "benchmarks" / "results"
DOLLARS = re.compile(r"\$(\d+\.\d\d)")
PERCENT = re.compile(r"(\d+)%")


def _recorded(name: str, label: str, pattern: re.Pattern) -> str:
    """The first ``pattern`` match on the results row starting ``label``.

    The reproduction's column comes before the paper's on every row.
    """
    found = pattern.search(_line(RESULTS / name, label))
    assert found is not None, f"{name}: no value on the {label!r} row"
    return found[1]


def _third_cell(path: Path, prefix: str) -> str:
    """A table row's third cell: this reproduction's column."""
    return _line(path, prefix).strip("|").split("|")[2].strip()


def _measured(figure: str) -> str:
    """The "measured here" cell of a Section-VI EXPERIMENTS.md row."""
    return _third_cell(REPO / "EXPERIMENTS.md", f"| {figure} ")


def _quoted(cell: str, pattern: str) -> tuple[str, ...]:
    found = re.search(pattern, cell)
    assert found is not None, f"no {pattern!r} in {cell!r}"
    return found.groups()


def test_fig13_row_quotes_the_recorded_costs_and_savings():
    name = "fig13_hdd_optimum.txt"
    cell = _measured("Fig. 13")
    assert _quoted(cell, r"\*\*\$(\d+\.\d\d)\*\*") == (
        _recorded(name, "model-chosen HDD optimum", DOLLARS),
    )
    assert _quoted(cell, r"R1 \$(\d+\.\d\d), R2 \$(\d+\.\d\d)") == (
        _recorded(name, "R1", DOLLARS), _recorded(name, "R2", DOLLARS),
    )
    assert _quoted(cell, r"(\d+) %/(\d+) % savings") == (
        _recorded(name, "savings vs R1", PERCENT),
        _recorded(name, "savings vs R2", PERCENT),
    )


def test_fig15_row_quotes_the_recorded_optimum_savings_and_ratio():
    name = "fig15_headline.txt"
    cell = _measured("Fig. 15")
    overall = _recorded(name, "overall optimum", DOLLARS)
    hdd = _recorded(name, "HDD-only optimum", DOLLARS)
    assert _quoted(cell, r"\*\*\$(\d+\.\d\d)\*\*") == (overall,)
    assert _quoted(cell, r"(\d+) %/(\d+) % below R1/R2") == (
        _recorded(name, "savings vs R1", PERCENT),
        _recorded(name, "savings vs R2", PERCENT),
    )
    # The SSD-local optimum's edge over the HDD-only one.
    assert _quoted(cell, r"beats HDD optimum (\d+\.\d\d)x") == (
        f"{float(hdd) / float(overall):.2f}",
    )


def test_readme_summary_quotes_the_recorded_cloud_results():
    name = "fig15_headline.txt"
    readme = REPO / "README.md"
    savings = _third_cell(readme, "| cloud savings vs R1 / R2 |")
    assert _quoted(savings, r"^(\d+) % / (\d+) %$") == (
        _recorded(name, "savings vs R1", PERCENT),
        _recorded(name, "savings vs R2", PERCENT),
    )
    disk = _third_cell(readme, "| cost-optimal local disk |")
    kind, size = _recorded(
        name, "overall optimum", re.compile(r"local=(pd-\S+ \d+)GB")
    ).split()
    assert _quoted(disk, r"^(\d+) GB (pd-\S+) \(\$(\d+\.\d\d)\)$") == (
        size, kind, _recorded(name, "overall optimum", DOLLARS),
    )


#: Section V figure -> the results file its HDD/SSD gap bench records.
GAPS = {
    "Fig. 8b": "fig8_lr_iteration_gap.txt",
    "Fig. 9": "fig9_svm_subtract_gap.txt",
    "Fig. 10": "fig10_pagerank_iteration_gap.txt",
    "Fig. 11": "fig11_tc_gap.txt",
    "Fig. 12": "fig12_terasort_gap.txt",
}
RECORDED_GAP = re.compile(r"-> (\d+\.\d)x \(paper: (\d+\.\d)x\)")


def _gap(name: str) -> tuple[str, ...]:
    """A gap file's (reproduced, paper) ratio pair."""
    found = RECORDED_GAP.search((RESULTS / name).read_text())
    assert found is not None, f"{name} records no gap"
    return found.groups()


def _avg(figure: str) -> str:
    """The average error an accuracy results file records."""
    results = RESULTS / FIGURES[figure]
    return HEADLINE.search(results.read_text().splitlines()[0])[1]


@pytest.mark.parametrize("figure", sorted(GAPS))
def test_gap_column_quotes_the_recorded_gap(figure):
    cell = _row(figure).strip("|").split("|")[3]
    assert _quoted(cell, r"(\d+\.\d)x \(paper (\d+\.\d)x\)") == _gap(GAPS[figure])


#: README summary row -> the gap file it quotes.
README_GAPS = {
    "| LR-large iteration HDD/SSD |": "fig8_lr_iteration_gap.txt",
    "| PageRank iteration HDD/SSD |": "fig10_pagerank_iteration_gap.txt",
    "| TriangleCount phase HDD/SSD |": "fig11_tc_gap.txt",
    "| SVM subtract HDD/SSD |": "fig9_svm_subtract_gap.txt",
}


@pytest.mark.parametrize("row", sorted(README_GAPS))
def test_readme_summary_quotes_the_recorded_gaps(row):
    readme = REPO / "README.md"
    ours, paper = _gap(README_GAPS[row])
    assert _quoted(_third_cell(readme, row), r"^(\d+\.\d)x\b") == (ours,)
    cells = _line(readme, row).strip("|").split("|")
    assert cells[1].strip() == f"{paper}x"


def test_readme_summary_quotes_the_recorded_errors():
    readme = REPO / "README.md"
    assert _quoted(
        _third_cell(readme, "| GATK4 model error (Fig. 7) |"), r"^(\d+\.\d) % avg$"
    ) == (_avg("Fig. 7"),)
    assert _quoted(
        _third_cell(readme, "| Fig. 14 cloud validation error |"),
        r"^(\d+\.\d) % avg$",
    ) == (_avg("Fig. 14"),)
    apps = _third_cell(readme, "| LR / SVM / PR / TC / TS error |")
    assert _quoted(apps, r"^(\S+) / (\S+) / (\S+) / (\S+) / (\S+) %$") == tuple(
        _avg(figure)
        for figure in ("Fig. 8a", "Fig. 9", "Fig. 10", "Fig. 11", "Fig. 12")
    )
