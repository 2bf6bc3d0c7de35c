"""Mutation audit: every listed mutant of the package must fail the test suite.

    python tests/mutants.py [NAME ...]

Copies the checkout, without ``.git`` and run outputs, into a temporary
directory (``TMPDIR`` chooses where) and checks that the unmutated copy
passes the suite. Then it applies each mutant not marked equivalent, one at
a time: the mutant's old text, which must occur exactly once in its file, is
replaced by the new text, ``python -m pytest -x -q`` runs in the copy with
the copy's ``src/`` first on the import path, and the file is restored. A
mutant is killed when the suite fails. Names on the command line select
mutants. Exits 1 if the unmutated copy fails, an old text is not found
exactly once, or a mutant marked killed survives.

This is a script, not a test module: pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KILLED = "killed"
IGNORED = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", ".benchmarks",
                                 "__pycache__", "*.egg-info", "build", "out")
SUITE_TIMEOUT_S = 900


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    verdict: str = KILLED   # or the reason the mutant is equivalent


# run_sweep's sensing of one (N, l_j), and the same block redone only when ``changed``
SENSE_BLOCK = """\
                rng = substream(scenario.seed, n, n_jam, 1)
                if targeted:
                    jam_sets = _draw_jam_sets(rng, trials, n, n_jam)
                    energies = sense_targeted(rng, jam_sets, n, k, variance)
                else:   # the unitary W keeps iid element jamming iid per mode
                    jam_sets = np.empty((trials, 0), dtype=int)   # iid jamming chooses no modes
                    energies = gamma_energies(rng, (trials, n), variance, k)
                flagged = energies >= config.energy_threshold_tx   # (trials, N)
                del energies
"""


def sensed_only_when(changed: str) -> str:
    return (f"                if 'sensed' not in locals() or {changed}:\n"
            "                    sensed = n, n_jam\n"
            + "".join("    " + line for line in SENSE_BLOCK.splitlines(True)))


MUTANTS = (
    # _check_magnitudes: each of the five grid-point bounds dropped in turn
    Mutant("magnitude-jam-variance", "src/oam_antijam/metrics.py",
           '(("jam_variance_tx", carrier_variance),',
           '(("jam_variance_tx", 0.0),'),
    Mutant("magnitude-top-gain", "src/oam_antijam/metrics.py",
           '(f"the top PGA gain {top:g} squared", top * top),',
           '(f"the top PGA gain {top:g} squared", 0.0),'),
    Mutant("magnitude-hypothesis-variance", "src/oam_antijam/metrics.py",
           '("the top hypothesis variance", reflected + floor),',
           '("the top hypothesis variance", floor),'),
    Mutant("magnitude-clean-snr", "src/oam_antijam/metrics.py",
           '("the clean-mode SNR bound", max(clean, clean / floor)),',
           '("the clean-mode SNR bound", clean),'),
    Mutant("magnitude-jammed-snr", "src/oam_antijam/metrics.py",
           '("the jammed-mode SNR bound", max(reflected, reflected / floor))):',
           '("the jammed-mode SNR bound", reflected)):'),
    # receiver_floor: the noise clamp removed
    Mutant("receiver-floor-clamp", "src/oam_antijam/config.py",
           "max(self.noise_variance_rx, NOISE_VARIANCE_FLOOR)",
           "self.noise_variance_rx"),
    # hypothesis_variance: the imaginary part of kappa dropped from |kappa|^2
    Mutant("hypothesis-variance-imaginary", "src/oam_antijam/backscatter.py",
           "kappa2 = link_gain.real * link_gain.real + link_gain.imag * link_gain.imag",
           "kappa2 = link_gain.real * link_gain.real"),
    # sense_targeted: clean modes carry a residue instead of exactly 0
    Mutant("sense-zero-scatter", "src/oam_antijam/metrics.py",
           "energies = np.zeros((len(jam_sets), n))",
           "energies = np.full((len(jam_sets), n), 1e-30)"),
    # simulate_backscatter_bits: only the first chunk of symbols is scaled by its variance
    Mutant("link-chunk-scale", "src/oam_antijam/backscatter.py",
           "energies *= variances / k",
           "energies[:step] *= variances[:step] / k"),
    # sense_targeted: every block after the first reuses the first block's samples
    Mutant("sense-block-reuses-samples", "src/oam_antijam/metrics.py",
           "samples = complex_gaussian(rng, jammed.shape + (k,), variance)",
           "samples = (complex_gaussian(rng, jammed.shape + (k,), variance) if not start\n"
           "                       else samples[:len(jammed)])"),
    # the preamble crossing: bit levels swapped, or the prior term dropped
    Mutant("preamble-levels-swapped", "src/oam_antijam/backscatter.py",
           "_crossing(energies, energies[0::2], energies[1::2],",
           "_crossing(energies, energies[1::2], energies[0::2],"),
    Mutant("crossing-prior-term", "src/oam_antijam/backscatter.py",
           "log_term = np.log(p0 / p1) + n_samples * np.log(q1 / q0)",
           "log_term = n_samples * np.log(q1 / q0)"),
    Mutant("crossing-fallback-midpoint", "src/oam_antijam/backscatter.py",
           "        return float(energies.mean())\n    p0",
           "        return float((q0 + q1) / 2)\n    p0"),
    # the stored point links: one set shared by every scenario, stale after a replace
    Mutant("links-stale-after-replace", "src/oam_antijam/metrics.py",
           'object.__setattr__(self, "_links", tuple(zip(points, links)))',
           'type(self)._links = getattr(type(self), "_links", None) or tuple(zip(points, links))'),
    # the per-sweep detector weights: p_u = 1 on iid sweeps too
    Mutant("iid-unflagged-weight", "src/oam_antijam/metrics.py",
           "p_u = 1.0 if targeted else p_u",
           "p_u = 1.0"),
    # complex_gaussian: each part scaled by the full variance
    Mutant("draw-scale-full-variance", "src/oam_antijam/jamming.py",
           "pairs *= np.sqrt(variance / 2.0)", "pairs *= np.sqrt(variance)"),
    # the point's substream key: -0.0 keyed apart from 0.0, or N and l_j swapped
    Mutant("snr-key-signed-zero", "src/oam_antijam/metrics.py",
           "float(snr_db) + 0.0", "float(snr_db)"),
    Mutant("point-key-swapped", "src/oam_antijam/metrics.py",
           "return n_elements, n_jammed, int(", "return n_jammed, n_elements, int("),
    # the BER probe drawing from the sensing stage's key instead of its own
    Mutant("probe-stage-key", "src/oam_antijam/metrics.py",
           "substream(scenario.seed, *_point_key(*point), 2), options)",
           "substream(scenario.seed, *_point_key(*point), 1), options)"),
    # the sensing of one (N, l_j): keyed by its first SNR too, kept for the next jammed
    # count of the ring size, or kept for the same jammed count of the next ring size
    Mutant("sense-key-snr", "src/oam_antijam/metrics.py",
           "substream(scenario.seed, n, n_jam, 1)",
           "substream(scenario.seed, n, n_jam, int(np.float64(points[0][2]).view(np.uint64)), 1)"),
    Mutant("sense-shared-across-jammed-counts", "src/oam_antijam/metrics.py",
           SENSE_BLOCK, sensed_only_when("sensed[0] != n")),
    Mutant("sense-kept-across-ring-sizes", "src/oam_antijam/metrics.py",
           SENSE_BLOCK, sensed_only_when("sensed[1] != n_jam")),
    # the gamma CDF's Poisson windows: the lower tail missing its first term i = K, or a
    # window of ceil(sqrt(K)) terms, too narrow by a factor 9 plus 30 terms
    Mutant("gamma-lower-window-from-k-plus-1", "src/oam_antijam/sensing.py",
           "i[split:], log_factorial[split:]", "i[split + 1:], log_factorial[split + 1:]"),
    Mutant("gamma-window-sqrt-k", "src/oam_antijam/sensing.py",
           "m = math.ceil(9.0 * math.sqrt(k)) + 30", "m = math.ceil(math.sqrt(k))"),
    # gamma_cdf passing an array with a nan or negative entry when any entry is fine
    Mutant("gamma-cdf-any-entry", "src/oam_antijam/sensing.py",
           "if not np.all(x >= 0.0):\n        raise ValueError(f\"gamma_cdf",
           "if not np.any(x >= 0.0):\n        raise ValueError(f\"gamma_cdf"),
    # one (N, l_j): the first SNR point's p_c reused for every SNR point of the pair
    Mutant("pair-first-snr-p-c", "src/oam_antijam/metrics.py",
           "p_c = average_correct_detection(q_th, k, sigma2_0, sigma2_1, config.pga_priors)",
           "p_c = average_correct_detection(q_th, k, sigma2_0, sigma2_1, config.pga_priors)"
           "[[0] * len(points)]"),
    # one SE call on a sequence of links: the first link's receiver floor used for every
    # link, or the pair's p_c rows passed in reverse against its links' floors
    Mutant("pair-first-snr-floor", "src/oam_antijam/metrics.py",
           "[[cfg.receiver_floor] for cfg in links]",
           "[[links[0].receiver_floor] for cfg in links]"),
    Mutant("pair-p-c-rows-reversed", "src/oam_antijam/metrics.py",
           "variance, p_j,\n                                           p_u, p_c)",
           "variance, p_j,\n                                           p_u, p_c[::-1])"),
    # the mask blocks of one clean count: only the first block cast, the rest left unset
    Mutant("se-first-mask-block-only", "src/oam_antijam/metrics.py",
           "for start in range(0, len(group), step)",
           "for start in range(0, min(len(group), step), step)"),
    # the per-count clean SNR table: the transmit total split over one mode more
    Mutant("clean-share-count-plus-one", "src/oam_antijam/metrics.py",
           "transmit_power / count if count", "transmit_power / (count + 1) if count"),
    # each input checked where it enters: the SE kernel's link gains and their reflected
    # powers, the PGA's level order
    Mutant("se-link-gain-check-dropped", "src/oam_antijam/metrics.py",
           "if not np.all(np.isfinite(reflected)):", "if False:"),
    Mutant("pga-order-check-dropped", "src/oam_antijam/config.py",
           "if gains[1] <= gains[0]:", "if False:"),
    # the gamma CDF's Poisson sum: only its first block of entries summed, the rest left unset
    Mutant("gamma-first-poisson-block-only", "src/oam_antijam/sensing.py",
           "for start in range(0, len(x), step)",
           "for start in range(0, min(len(x), step), step)"),
    Mutant("preamble-even-slice", "src/oam_antijam/backscatter.py",
           "energies[0::2]", "energies[::2]",
           "the same slice: a start of 0 is the default"),
    Mutant("detector-strict-flag", "src/oam_antijam/metrics.py",
           "flagged = energies >= config.energy_threshold_tx",
           "flagged = energies > config.energy_threshold_tx",
           "a jammed mode's energy is continuous and a clean one reads exactly 0 below a "
           "positive threshold, so the two differ only with probability 0"),
)


def run_suite(copy: Path) -> int:
    # no bytecode: a same-size edit within one mtime second would pass the pyc check
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), OPENBLAS_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                          cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, timeout=SUITE_TIMEOUT_S).returncode


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 1
    selected = [m for m in MUTANTS if not names or m.name in names]
    problems = 0
    with tempfile.TemporaryDirectory(prefix="oam-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        if run_suite(copy) != 0:
            print("FAIL the unmutated copy does not pass the suite")
            return 1
        for mutant in selected:
            path = copy / mutant.file
            text = path.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                print(f"FAIL {mutant.name}: old text found {text.count(mutant.old)} times "
                      f"in {mutant.file}")
                problems += 1
                continue
            if mutant.verdict != KILLED:
                print(f"equivalent {mutant.name}: {mutant.verdict}")
                continue
            start = time.perf_counter()
            path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
            try:
                code = run_suite(copy)
            finally:
                path.write_text(text, encoding="utf-8")
            seconds = time.perf_counter() - start
            if code == 0:
                print(f"FAIL {mutant.name} survived ({seconds:.1f} s)")
                problems += 1
            else:
                print(f"killed {mutant.name} (exit {code}, {seconds:.1f} s)")
    print(f"mutants: {'FAIL' if problems else 'PASS'} ({problems} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
