"""The ledger of the paper's claims: one cell per (regime, claim).

A cell names the tier-1 test that checks the claim, or the ROADMAP item
that owns the gap, and says where the code departs from the paper's
display.  The claims:

- rate: the deterministic rates v1(T), v2(T) as the paper states them
  (whether simulated residuals scale at them is ROADMAP item 16's);
- limit_law: simulated residuals follow `sample_limit`'s law (a KS bound);
- llr_label: the family of the log-likelihood ratio (LAN, DLAMN, ...);
- nlrr: the scalar random normalization the summary table gives, or none
  (its N(0, sigma^2) limit against simulation is not checked anywhere);
- dlamn_direction: in a DLAMN regime, d2 + p*d1 shrinks at e^{-pT}; in
  the others A_T has full rank, so no direction is degenerate.

The test below resolves every named test by import, so it holds under -k
or a one-file run, and checks a parametrize id against the function's
marks.  A named test must not be an xfail: that pins a gap, it checks nothing.
"""

import importlib
import itertools
import re
from pathlib import Path
from typing import NamedTuple

import pytest

from conftest import REGIME_POINTS

ROOT = Path(__file__).resolve().parents[1]
CLAIMS = ("rate", "limit_law", "llr_label", "nlrr", "dlamn_direction")


class Cell(NamedTuple):
    ref: str  # "tests/<file>.py::[Class::]test[id]", or "item <n>" of ROADMAP.md
    note: str = ""  # the scope of the check, or a departure from the paper's display


RATE = "tests/test_regimes.py::TestRateFunctions::"
SIM = "tests/test_limits.py::TestSamplersAgainstSimulation::"
LLR = "tests/test_regimes.py::test_llr_label_matches_information_spread"
NLRR = "tests/test_regimes.py::TestNlrr::"
DLAMN = "tests/test_regimes.py::test_dlamn_degenerate_direction_shrinks_at_rate_p"
A_T = "tests/test_regimes.py::TestScalingMatrix::"
FULL_RANK = "not DLAMN: A_T has full rank"

LEDGER = {
    "Ergodic": {
        "rate": Cell(RATE + "test_ergodic_rate"),
        "limit_law": Cell("tests/test_montecarlo.py::TestRunExperiment::test_ergodic_ks_reasonable"),
        "llr_label": Cell(LLR + "[Ergodic]"),
        "nlrr": Cell(NLRR + "test_ergodic_values"),
        "dlamn_direction": Cell(A_T + "test_ergodic_diagonal", FULL_RANK),
    },
    "OppositeSign": {
        "rate": Cell(RATE + "test_opposite_sign_rate"),
        "limit_law": Cell(SIM + "test_opposite_sign_normal_limit", "l1 only"),
        "llr_label": Cell(LLR + "[OppositeSign]"),
        "nlrr": Cell(NLRR + "test_projection_rate_formula"),
        "dlamn_direction": Cell(DLAMN + "[OppositeSign]"),
    },
    "DistinctPositive": {
        "rate": Cell(RATE + "test_distinct_positive_rate"),
        "limit_law": Cell("item 3", "the quadrature bias; strict xfail "
                                    "test_montecarlo.py::test_explosive_residuals_follow_their_limit_law"),
        "llr_label": Cell(LLR + "[DistinctPositive]"),
        "nlrr": Cell(NLRR + "test_availability_matches_table", "availability"),
        "dlamn_direction": Cell(DLAMN + "[DistinctPositive]"),
    },
    "PositiveDouble": {
        "rate": Cell(RATE + "test_positive_double_rate"),
        "limit_law": Cell(SIM + "test_positive_double_root",
                          "departs from the display: coefficient 4q, since the e^{qT}/(qT) "
                          "normalization picks up a same-order correction that halves the "
                          "variance (sample_limit); this KS test decided it"),
        "llr_label": Cell(LLR + "[PositiveDouble]"),
        "nlrr": Cell(NLRR + "test_availability_matches_table", "availability"),
        "dlamn_direction": Cell("item 13", "d2 + q*d1 at the double root q"),
    },
    "LargerRootZero": {
        "rate": Cell(RATE + "test_larger_root_zero_rates"),
        "limit_law": Cell("item 5"),
        "llr_label": Cell("item 13", "tr J_T tends to 1/4 + (1/4) int B^2, not a constant"),
        "nlrr": Cell(NLRR + "test_availability_matches_table", "theta1 only"),
        "dlamn_direction": Cell(A_T + "test_mixed_and_functional_diagonals", FULL_RANK),
    },
    "SmallerRootZero": {
        "rate": Cell(RATE + "test_smaller_root_zero_rates"),
        "limit_law": Cell(SIM + "test_smaller_root_zero_sign_convention"),
        "llr_label": Cell(LLR + "[SmallerRootZero]"),
        "nlrr": Cell(NLRR + "test_availability_matches_table", "none"),
        "dlamn_direction": Cell(DLAMN + "[SmallerRootZero]"),
    },
    "ZeroDouble": {
        "rate": Cell(RATE + "test_zero_double_rates"),
        "limit_law": Cell("item 5"),
        "llr_label": Cell(LLR + "[ZeroDouble]"),
        "nlrr": Cell(NLRR + "test_availability_matches_table", "none"),
        "dlamn_direction": Cell(A_T + "test_mixed_and_functional_diagonals", FULL_RANK),
    },
    "Harmonic": {
        "rate": Cell(RATE + "test_harmonic_and_unstable"),
        "limit_law": Cell("item 5", "departs from the display: numerator w1^2 + w2^2 - 2, from "
                                    "the proof-level limits; the theorem display has it flipped "
                                    "(sample_limit).  No simulation test has decided it yet"),
        "llr_label": Cell(LLR + "[Harmonic]"),
        "nlrr": Cell(NLRR + "test_availability_matches_table", "none"),
        "dlamn_direction": Cell(A_T + "test_mixed_and_functional_diagonals", FULL_RANK),
    },
    "UnstableOscillation": {
        "rate": Cell(RATE + "test_harmonic_and_unstable"),
        "limit_law": Cell(SIM + "test_unstable_oscillation_matrix_form", "the matrix form"),
        "llr_label": Cell(LLR + "[UnstableOscillation]"),
        "nlrr": Cell("tests/test_montecarlo.py::TestRunExperiment::"
                     "test_nlrr_rejected_before_simulating",
                     "the table's yes is the matrix form only: no scalar rate"),
        "dlamn_direction": Cell(A_T + "test_unstable_oscillation_matrix", FULL_RANK),
    },
}


def _parametrize_ids(function) -> list[str]:
    """The ids pytest gives the function's parametrize cases: one argument
    of string values, or explicit ids, per mark, joined innermost first."""
    per_mark = []
    for mark in getattr(function, "pytestmark", []):
        if mark.name != "parametrize":
            continue
        ids = mark.kwargs.get("ids", mark.args[2] if len(mark.args) > 2 else None)
        if ids is None:
            assert all(isinstance(value, str) for value in mark.args[1]), (
                f"{function.__name__}: name a test whose parametrize ids are its string values")
            ids = mark.args[1]
        per_mark.append([str(i) for i in ids])
    return ["-".join(ids) for ids in itertools.product(*per_mark)] if per_mark else []


def _resolve(ref: str):
    """The function a test reference names (its class's method, or a module
    function); raises if the module, the function or the parametrize id is
    missing."""
    match = re.fullmatch(r"tests/(test_\w+)\.py::((?:\w+::)?)(test_\w+)(?:\[(.+)\])?", ref)
    assert match, f"malformed test reference {ref!r}"
    module_name, cls, name, case = match.groups()
    owner = importlib.import_module(module_name)
    if cls:
        owner = getattr(owner, cls.rstrip(":"))
    function = getattr(owner, name)
    assert callable(function)
    ids = _parametrize_ids(function)
    assert (case is None) == (not ids), f"{ref}: give the parametrize case, and only then"
    assert case is None or case in ids, f"{ref}: no case {case!r} in {ids}"
    return function


def _roadmap_items() -> set[str]:
    text = (ROOT / "ROADMAP.md").read_text()
    return {f"item {n}" for n in re.findall(r"^(\d+)\. \*\*", text, flags=re.MULTILINE)}


def test_every_cell_is_filled():
    assert set(LEDGER) == set(REGIME_POINTS)
    for name, row in LEDGER.items():
        assert tuple(row) == CLAIMS, name
        for claim, cell in row.items():
            assert isinstance(cell, Cell) and cell.ref, (name, claim)


@pytest.mark.parametrize("name", sorted(LEDGER))
def test_every_named_test_resolves(name):
    items = _roadmap_items()
    for claim, cell in LEDGER[name].items():
        if cell.ref.startswith("item "):
            assert cell.ref in items, f"{name}/{claim}: ROADMAP.md has no {cell.ref}"
            continue
        function = _resolve(cell.ref)
        marks = {mark.name for mark in getattr(function, "pytestmark", [])}
        assert "xfail" not in marks and "skip" not in marks, f"{name}/{claim}: {cell.ref}"


def test_departures_from_the_display_are_marked():
    departures = {(name, claim) for name, row in LEDGER.items() for claim, cell in row.items()
                  if cell.note.startswith("departs from the display")}
    assert departures == {("PositiveDouble", "limit_law"), ("Harmonic", "limit_law")}


def test_resolver_rejects_what_is_not_there():
    _resolve(DLAMN + "[OppositeSign]")
    for ref in (DLAMN, DLAMN + "[Ergodic]", RATE + "test_no_such_rate",
                "tests/test_no_such_module.py::test_x", RATE + "test_ergodic_rate[x]"):
        with pytest.raises((AssertionError, AttributeError, ImportError)):
            _resolve(ref)
