"""Seed-pinned Monte Carlo goldens.

Every Monte Carlo path is run at a fixed seed and its output compared byte for
byte with a file under ``tests/golden/mc``: the CLI experiments through their
CSV and ``summary.txt``, the Ornstein-Uhlenbeck protocol runs and
``ensemble_average`` through SHA-256 digests of their results.  A change that
alters the draws, their layout or the order of a reduction fails here.  A
change that alters them on purpose regenerates the files and says why in
CHANGES.md:

    PYTHONPATH=src python tests/test_mc_golden.py
"""

import hashlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from zenosim.cli import run_experiment
from zenosim.config import parse_config
from zenosim.lindblad import DecoherenceParams
from zenosim.noise import NoiseModel, ensemble_average
from zenosim.qubit import plus_state
from zenosim.zeno import (EngineKind, NoiseReset, ProtocolConfig, ProtocolKind,
                          nonselective_run_mc, pn_persistent, selective_run_mc)

GOLDEN = Path(__file__).parent / "golden" / "mc"

# 5000 trajectories span three blocks, the last one partial; the long
# crossover grid is wider than one grid chunk
CLI_CASES = {
    "figure2_mc_resample": "experiment=figure2\nengine=mc\ntrajectories=5000\n",
    "figure2_mc_persistent": ("experiment=figure2\nengine=mc\ntrajectories=5000\n"
                              "noise_reset=persistent\n"),
    "figure2_mc_1e4": "experiment=figure2\nengine=mc\ntrajectories=10000\n",
    "crossover_scan": "experiment=crossover_scan\ntrajectories=2000\n",
    "crossover_scan_long": "experiment=crossover_scan\ntrajectories=5000\nt_end=80\n",
}

# criterion-9 noise (tau_c << t/N) with relaxation switched on
OU_TAU_C, OU_TIME = 0.2, 40.0
OU_NOISE = NoiseModel.ornstein_uhlenbeck(math.sqrt(0.12 / (4.0 * OU_TAU_C * OU_TIME)), OU_TAU_C)
OU_PARAMS = DecoherenceParams(1.0 / 200.0, 0.0)
OU_TRAJECTORIES = 5000
OU_SEED = 2024
OU_CASES = [(run, reset, n)
            for run in (selective_run_mc, nonselective_run_mc)
            for reset in NoiseReset
            for n in (1, 5, 20)]


def ou_label(run, reset, n) -> str:
    return f"{run.__name__}-{reset.value}-N{n}"


def ou_config(run, reset, n) -> ProtocolConfig:
    kind = ProtocolKind.SELECTIVE if run is selective_run_mc else ProtocolKind.NON_SELECTIVE
    return ProtocolConfig(OU_TIME, n, kind, EngineKind.MONTE_CARLO, OU_TRAJECTORIES,
                          OU_SEED, reset)


# ensemble_average under both noise models; the grids are wider than a chunk
ENSEMBLE_CASES = {
    "quasi-static": (NoiseModel.quasi_static(0.05), np.linspace(0.0, 50.0, 1001)),
    "ornstein-uhlenbeck": (NoiseModel.ornstein_uhlenbeck(0.1, 1.0), np.linspace(0.0, 10.0, 1001)),
}
ENSEMBLE_TRAJECTORIES = 5000
ENSEMBLE_SEED = 77


def ensemble_digest_lines() -> list[str]:
    lines = []
    for name, (model, grid) in ENSEMBLE_CASES.items():
        result = ensemble_average(plus_state(), model, grid, ENSEMBLE_TRAJECTORIES,
                                  ENSEMBLE_SEED, context=(3,))
        # the golden digests a (G, 2, 2) mean state and its per-entry stderr,
        # rebuilt here from the populations of plus_state() and the two columns
        rho0 = np.outer(plus_state().amplitudes, plus_state().amplitudes.conj())
        mean = np.empty((grid.size, 2, 2), dtype=complex)
        mean[:] = rho0
        mean[:, 0, 1], mean[:, 1, 0] = result.rho01, result.rho01.conj()
        stderr = np.zeros((grid.size, 2, 2))
        stderr[:, 0, 1] = stderr[:, 1, 0] = result.stderr
        digest = hashlib.sha256(mean.tobytes() + stderr.tobytes())
        lines.append(f"ensemble_average-{name} {digest.hexdigest()}\n")
    return lines


def result_digest(result) -> str:
    fields = (result.success_probability, result.success_stderr, result.survivors_per_step,
              result.coherence, result.coherence_stderr, result.trajectories)
    h = hashlib.sha256(repr(fields).encode())
    if result.final_rho is not None:
        h.update(result.final_rho.matrix.tobytes())
    return h.hexdigest()


def ou_digest_lines() -> list[str]:
    lines = []
    for run, reset, n in OU_CASES:
        result = run(OU_PARAMS, ou_config(run, reset, n), OU_NOISE, context=(n,))
        lines.append(f"{ou_label(run, reset, n)} {result_digest(result)}\n")
    return lines


def run_cli_case(name: str, out_dir: Path) -> dict:
    return run_experiment(parse_config(CLI_CASES[name]), out_dir=out_dir)


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_output_matches_golden(name, tmp_path):
    paths = run_cli_case(name, tmp_path)
    assert paths["csv"].read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
    assert paths["summary"].read_bytes() == (GOLDEN / f"{name}.summary.txt").read_bytes()


def test_persistent_golden_agrees_with_its_reference():
    # the P_analytic column is the resample closed form; persistent noise
    # has E[q(f0)^N] as its reference
    params = DecoherenceParams.from_times(1000.0, 20.0)     # the figure2 defaults
    lines = (GOLDEN / "figure2_mc_persistent.csv").read_text(encoding="utf-8").splitlines()
    z = [abs(float(p_mc) - pn_persistent(params, float(t), int(n))) / float(stderr)
         for t, n, _, p_mc, stderr in (line.split(",") for line in lines[1:])]
    assert len(z) == 80 and max(z) <= 3.0


def test_ou_protocol_digests_match_golden():
    expected = (GOLDEN / "ou_protocols.txt").read_text(encoding="utf-8").splitlines(True)
    assert ou_digest_lines() == expected


def test_ensemble_digests_match_golden():
    expected = (GOLDEN / "ensemble.txt").read_text(encoding="utf-8").splitlines(True)
    assert ensemble_digest_lines() == expected


def regenerate() -> None:
    import tempfile
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in sorted(CLI_CASES):
        with tempfile.TemporaryDirectory() as tmp:
            paths = run_cli_case(name, Path(tmp))
            (GOLDEN / f"{name}.csv").write_bytes(paths["csv"].read_bytes())
            (GOLDEN / f"{name}.summary.txt").write_bytes(paths["summary"].read_bytes())
    with open(GOLDEN / "ou_protocols.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(ou_digest_lines())
    with open(GOLDEN / "ensemble.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(ensemble_digest_lines())


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
