"""The rotation search's (length, exchange count) cells over the default
budget, each run at budget=10**12 in its own process.

A cell keeps the z_difference_rotation preset and changes only its length
and exchange count. Each child runs one search at seed 0 and prints one
line: the cell, its funnel (words, bystander survivors, pair candidates,
deduplicated, verified), each stage's seconds, the search's seconds and the
child's max RSS in MiB. With --trace the child also starts tracemalloc and
reports each scan's traced peak in MiB, what the search already held when
the scan began included; tracing slows the scans. Run from the repo root
(pytest does not collect this file):

    PYTHONPATH=src python tests/sweep_rotation.py [--trace] [length,exchange ...]

With no cells given it runs the six that the default budget refuses.
"""

import dataclasses
import resource
import subprocess
import sys
import tracemalloc

from globalspin import synth
from globalspin.grammar import preset_path

CELLS = ((10, 1), (10, 0), (11, 3), (11, 2), (11, 1), (11, 0))


def traced(scan, peaks: dict):
    """scan, recording its tracemalloc peak under its name in peaks."""
    def run(*args):
        tracemalloc.reset_peak()
        try:
            return scan(*args)
        finally:
            peaks[scan.__name__] = tracemalloc.get_traced_memory()[1] / 2**20
    return run


def run_cell(length: int, n_exchange: int, trace: bool) -> str:
    """One search of the cell in this process, as one printed line."""
    with open(preset_path("z_difference_rotation")) as fh:
        p = synth.problem_from_text(fh.read())
    p = dataclasses.replace(p, length=length, n_exchange=n_exchange)
    peaks = {}
    if trace:
        tracemalloc.start()
        for name in ("_bystander_scan", "_pair_scan"):
            setattr(synth, name, traced(getattr(synth, name), peaks))
    st = synth.enumerate_sequences(p, budget=10 ** 12, seed=0).stats
    funnel = (st.words_total, st.bystander_survivors, st.pair_candidates,
              st.deduplicated, st.verified)
    stages = " ".join(f"{s.name}={s.seconds:.2f}" for s in st.stages)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    line = (f"({length}, {n_exchange}) funnel={'/'.join(map(str, funnel))} "
            f"s={st.elapsed_s:.2f} {stages} max_rss_mib={rss:.0f}")
    return line + "".join(f" {name}_mib={mib:.1f}"
                          for name, mib in peaks.items())


def main(argv: list) -> int:
    trace = "--trace" in argv
    cells = [tuple(map(int, a.split(","))) for a in argv[1:] if a[0] != "-"]
    if "--child" in argv:
        print(run_cell(*cells[0], trace), flush=True)
        return 0
    for length, n_exchange in cells or CELLS:
        subprocess.run([sys.executable, __file__, "--child",
                        f"{length},{n_exchange}"] + ["--trace"] * trace,
                       check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
