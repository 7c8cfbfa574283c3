"""Output checks.  Each returns a list of problems; an empty list passes.

References frozen from a trusted commit (see make_refs.py) pin the
``curve.csv`` bytes and ``summary.json`` couplings, period and F floors of
the bundled config and of the default seed's ``param-scan`` configs, and
the ``verify.txt`` verdict lines.  Invariants hold for every seed:

* F_max and F_max_no_heterodyne are not below the reference, or else the
  maximum of the matching ``curve.csv`` column, by more than 1e-9 relative
  (one-sided, so a more accurate optimiser passes);
* fidelity_coherent(coeffs_analytic(c, nbar, t_star_s)) equals F_max;
* neff_min equals 1/F_max - 1;
* no output holds NaN or Inf.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

REL_COUPLINGS = 1e-12
REL_F_SLACK = 1e-9
REL_IDENTITY = 1e-12
COUPLING_KEYS = ("parametric_rad_per_s", "beam_splitter_rad_per_s", "oscillation_rad_per_s")
VERIFY_LINE = re.compile(r"^(PASS|FAIL) (\S+): defect (\S+) \(tolerance (\S+)\)$")
_NONFINITE = re.compile(r"(?i)(?<![a-z_])(nan|inf)")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else abs(a)


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


def nbar_key(nbar: float) -> str:
    """The per_nbar key the CLI writes for an occupation."""
    return f"{nbar:.12g}"


def couplings_stdout(text: str) -> list[str]:
    """The ``couplings`` report prints every rate, finite."""
    values = dict(
        line.split(" = ", 1) for line in text.splitlines() if " = " in line
    )
    problems = []
    for key in (*COUPLING_KEYS, "period_s"):
        try:
            if not math.isfinite(float(values[key])):
                problems.append(f"couplings: {key} is not finite")
        except (KeyError, ValueError):
            problems.append(f"couplings: {key} missing or unreadable")
    return problems


def curve_maxima(path: Path, nbars: list[float], rows: int) -> tuple[list[str], dict]:
    """Read a small curve.csv: shape, finiteness and each column's maximum."""
    try:
        text = path.read_text()
    except OSError as exc:
        return [f"curve.csv unreadable: {exc}"], {}
    lines = text.splitlines()
    header = "theta_t," + ",".join(f"F_nbar_{nbar_key(v)}" for v in nbars)
    problems = []
    if not lines or lines[0] != header:
        problems.append(f"curve.csv header {lines[:1]} != {header!r}")
    if len(lines) != rows + 1:
        problems.append(f"curve.csv has {len(lines) - 1} rows, expected {rows}")
    if _NONFINITE.search(text):
        problems.append("curve.csv contains NaN or Inf")
    if problems:
        return problems, {}
    cols = list(zip(*(map(float, line.split(",")) for line in lines[1:])))
    return [], {nbar_key(v): max(col) for v, col in zip(nbars, cols[1:])}


def summary(
    path: Path,
    nbars: list[float],
    mt,
    ref: dict | None = None,
    curve_max: dict | None = None,
    curve_field: str = "F_max",
) -> list[str]:
    """Check summary.json against ``ref`` (if given) and the invariants.

    Without ``ref`` the F floor is ``curve_max``, the column maxima of the
    matching curve.csv, which bounds ``curve_field`` only.
    """
    try:
        text = path.read_text()
        data = json.loads(text, parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        return [f"summary.json unreadable or non-finite: {exc}"]
    problems = []
    if _NONFINITE.search(text):
        problems.append("summary.json contains NaN or Inf")
    try:
        rates = [float(data["couplings"][k]) for k in COUPLING_KEYS]
        couplings = mt.Couplings(*rates)
        per_nbar = data["per_nbar"]
        if ref is not None:
            for key, value in zip(COUPLING_KEYS, rates):
                if _rel(value, ref["couplings"][key]) > REL_COUPLINGS:
                    problems.append(f"summary {key} {value!r} != reference {ref['couplings'][key]!r}")
            if _rel(data["period_s"], ref["period_s"]) > REL_COUPLINGS:
                problems.append(f"summary period_s {data['period_s']!r} != reference")
        expected_keys = sorted(nbar_key(v) for v in nbars)
        if sorted(per_nbar) != expected_keys:
            problems.append(f"summary per_nbar keys {sorted(per_nbar)} != {expected_keys}")
            return problems
        for nbar in nbars:
            key = nbar_key(nbar)
            entry = per_nbar[key]
            f_max = entry["F_max"]
            floors = {}
            if ref is not None:
                floors = ref["per_nbar"][key]
            elif curve_max is not None:
                floors = {curve_field: curve_max[key]}
            for field, floor in floors.items():
                if entry[field] < floor * (1.0 - REL_F_SLACK):
                    problems.append(f"nbar {key}: {field} {entry[field]!r} below {floor!r}")
            at_t = mt.fidelity_coherent(mt.coeffs_analytic(couplings, nbar, entry["t_star_s"]))
            if _rel(at_t, f_max) > REL_IDENTITY:
                problems.append(f"nbar {key}: F(t_star_s) {at_t!r} != F_max {f_max!r}")
            neff = 1.0 / f_max - 1.0
            if not math.isclose(entry["neff_min"], neff, rel_tol=REL_IDENTITY, abs_tol=1e-15):
                problems.append(f"nbar {key}: neff_min {entry['neff_min']!r} != 1/F_max - 1")
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        problems.append(f"summary.json check failed: {type(exc).__name__}: {exc}")
    return problems


def verify_report(path: Path, ref: dict) -> list[str]:
    """Gate names, verdicts, printed tolerances and final verdict match."""
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        return [f"verify.txt unreadable: {exc}"]
    problems = []
    gates = []
    for line in lines[:-1]:
        m = VERIFY_LINE.match(line)
        if not m:
            problems.append(f"verify.txt line not understood: {line!r}")
            continue
        status, name, defect, tolerance = m.groups()
        if not math.isfinite(float(defect)):
            problems.append(f"verify.txt gate {name}: defect {defect} not finite")
        gates.append([status, name, tolerance])
    if gates != ref["gates"]:
        problems.append(f"verify.txt gates {gates} != reference {ref['gates']}")
    if lines[-1:] != [ref["final"]]:
        problems.append(f"verify.txt final line {lines[-1:]} != {ref['final']!r}")
    return problems
