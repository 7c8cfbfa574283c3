"""Seeded config generator for the ``param-scan`` workload.

The rate ratio r = parametric/oscillation sets the optimiser's cost: the
dense scan has max(grid_points, 64 * ceil(r)) points, capped at 2,000,000
(r ~ 31,250).  r depends only on laser_freq/mirror_freq,
r^2 = (laser - mirror) / (2 mirror), so each config picks r first and then
derives the mirror frequency from a random optical laser frequency.  Power,
mass, bandwidths and incidence angle then move the absolute rates at that r.

How r is drawn: log-uniform over [R_MIN, R_MAX], stratified -- one draw in
each of N_CONFIGS equal slices of log r, uniform over the central half of
its slice.  Per-config cost grows about linearly in r, so a pass's time is
set by its few largest r, and wall_tail_s (about p90 of the per-config
times) by the fourth largest.  Independent draws made pass time swing by
tens of percent between seeds; full-slice draws still moved the fourth
largest r, and with it wall_tail_s, by +-12 %.  The central half keeps every
seed's r within +-6 % of the same log-spaced ladder, so seeds compare,
while the seed still moves every r and every other parameter.  R_MAX lies
past the 2M-point cap, so the top slice of every seed binds the cap.

No config is dropped or special-cased after it is drawn.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

N_CONFIGS = 32
R_MIN = 10.0
R_MAX = 4.0e4
NBAR_CHOICES = (0.0, 0.5, 3.0, 50.0, 1.0e4)
NBARS_PER_CONFIG = 2
TEMPERATURE_SHARE = 0.3
HBAR_OVER_K = 1.054571817e-34 / 1.380649e-23  # s K


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def generate(seed: int) -> list[dict]:
    """``N_CONFIGS`` configs, each ``{"name", "config", "no_heterodyne"}``."""
    rng = random.Random(seed)
    span = math.log(R_MAX / R_MIN)
    ratios = [
        R_MIN * math.exp(span * (i + 0.25 + 0.5 * rng.random()) / N_CONFIGS)
        for i in range(N_CONFIGS)
    ]
    rng.shuffle(ratios)
    n_temps = round(TEMPERATURE_SHARE * N_CONFIGS)
    use_temps = [i < n_temps for i in range(N_CONFIGS)]
    rng.shuffle(use_temps)
    no_het = [i < N_CONFIGS // 2 for i in range(N_CONFIGS)]
    rng.shuffle(no_het)

    jobs = []
    for i, r in enumerate(ratios):
        laser = _log_uniform(rng, 1.2e15, 5.0e15)  # optical, rad/s
        mirror = laser / (2.0 * r * r + 1.0)
        cfg = {
            "power_watts": _log_uniform(rng, 0.1, 100.0),
            "angular_frequencies": True,
            "laser_freq_rad_per_s": laser,
            "mirror_freq_rad_per_s": mirror,
            "det_bandwidth_hz": _log_uniform(rng, 1e5, 1e8),
            "mode_bandwidth_hz": _log_uniform(rng, 1e2, 1e5),
            "mass_kg": _log_uniform(rng, 1e-12, 1e-8),
            "incidence_angle_rad": rng.uniform(0.0, 1.2),
            "temperature_k": 0.0,
            "damping_hz": rng.uniform(0.0, 10.0),
            "grid_points": rng.randint(500, 4000),
            "periods": 1.0,
            "readout_times_count": 3,
        }
        if use_temps[i]:
            # temperatures between 0.1 and 1000 mirror quanta: nbar ~ 5e-5 .. 1e3
            quantum_k = HBAR_OVER_K * mirror
            cfg["temperatures_k"] = sorted(
                quantum_k * _log_uniform(rng, 0.1, 1e3) for _ in range(NBARS_PER_CONFIG)
            )
        else:
            cfg["nbar_values"] = sorted(rng.sample(NBAR_CHOICES, NBARS_PER_CONFIG))
        jobs.append({"name": f"cfg{i:02d}", "config": cfg, "no_heterodyne": no_het[i]})
    return jobs


def write(jobs: list[dict], directory: Path) -> list[Path]:
    """Write each config as ``<name>.json`` and return the paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for job in jobs:
        path = directory / f"{job['name']}.json"
        path.write_text(json.dumps(job["config"], indent=2, sort_keys=True) + "\n")
        paths.append(path)
    return paths
