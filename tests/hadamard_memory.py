"""The Hadamard search's memory at the bench's default search and at the
4000-start cap, each run in its own process.

The default search is the bench's: depth 8, 3 starts, seed 1, the preset
device ratios. The cap is depth 3, 4000 starts, seed 0, maxiter 20, on the
ratios of test_synth's PROFILES: 60,000 members, where a chunk of members
is full for its first steps. Each child runs its search once untraced and
then once under tracemalloc, and prints one line: the case, the traced
peak in MiB, the untraced run's max RSS in MiB and seconds, and its nfev
and n_minimize. Run from the repo root (pytest does not collect this file):

    PYTHONPATH=src python tests/hadamard_memory.py [default|cap ...]

With no case given it runs both.
"""

import resource
import subprocess
import sys
import time
import tracemalloc

from globalspin import synth
from globalspin.device import (ANTIPARALLEL, PARALLEL, device_constants,
                               field_profile, twin_wire_preset)


def _preset_profiles() -> dict:
    geometry = twin_wire_preset(2)
    return {axis: device_constants(field_profile(geometry, config)).ratios
            for axis, config in (("z", PARALLEL), ("x", ANTIPARALLEL))}


CASES = {
    "default": lambda: synth.global_hadamard_search(
        _preset_profiles(), depth=8, tolerance=1e-6, starts=3, seed=1),
    "cap": lambda: synth.global_hadamard_search(
        {"z": (1.0, 0.75), "x": (1.0, 0.5)}, depth=3, tolerance=1e-6,
        starts=4000, seed=0, maxiter=20),
}


def run_case(name: str) -> str:
    """The case run untraced and then traced in this process, as one line."""
    t0 = time.perf_counter()
    report = CASES[name]()
    seconds = time.perf_counter() - t0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracemalloc.start()
    CASES[name]()
    peak = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    return (f"{name} traced_peak_mib={peak:.2f} max_rss_mib={rss:.1f} "
            f"s={seconds:.3f} nfev={report.nfev} "
            f"n_minimize={report.n_minimize}")


def main(argv: list) -> int:
    names = [a for a in argv[1:] if a[0] != "-"]
    if "--child" in argv:
        print(run_case(names[0]), flush=True)
        return 0
    for name in names or CASES:
        subprocess.run([sys.executable, __file__, "--child", name], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
