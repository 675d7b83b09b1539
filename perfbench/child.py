"""One workload repetition in a fresh interpreter.

Times ``import pcrisk.cli`` (the set-up every CLI command pays), then runs the
given CLI stages in order through ``pcrisk.cli.main`` and writes one JSON
result: per-stage exit code, wall time and host-speed probe sums, peak
resident memory and the environment. With ``--spans`` the layers are traced
and the spans and derived per-layer metrics go into the result as well. With
no stages it only times the import.

Usage (normally started by run.py):
    python3 perfbench/child.py --config CFG --out-dir DIR --result OUT.json \
        [--stage build-dataset ...] [--spans SPANS.json]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

#: how often the speed probe samples the host while a repetition runs
PROBE_PERIOD_S = 0.05


class SpeedProbe:
    """Samples how fast the host runs this process right now.

    On a shared host a vCPU flips between a fast state and one about 45%
    slower, within seconds, and can stay in either for minutes. Every
    PROBE_PERIOD_S a SIGALRM handler times a fixed walk over Python floats
    scattered through about 10 MB, so that run.py can scale each measured
    interval to a fixed host speed. A memory-touching walk tracked the
    pipeline's slowdowns better than a register-bound loop. The handler runs
    between bytecodes and costs about 0.5% of the interval it samples; its
    lists add about 12 MB to the peak resident memory.
    """

    def __init__(self):
        self.samples: list[float] = []
        n = 300_000
        floats = [float(i) for i in range(n)]  # allocated in address order
        self._floats = [floats[i * 7919 % n] for i in range(n)]  # visited out of order

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        total = 0.0
        for x in self._floats[::97]:
            total += x
        self.samples.append(time.perf_counter() - t)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def since(self, mark: int) -> dict:
        """Sum and count of the samples taken after mark (a sample count)."""
        return {"probe_sum": sum(self.samples[mark:]), "probe_n": len(self.samples) - mark}


def _environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--stage", action="append", default=[], type=json.loads,
                    help="JSON list: a CLI command and its own flags")
    ap.add_argument("--spans", default=None, help="trace the layers; write spans here")
    args = ap.parse_args()

    probe = SpeedProbe()
    probe.start()
    t0 = time.perf_counter()
    import pcrisk.cli
    import_s = time.perf_counter() - t0
    setup = {"s": import_s, **probe.since(0)}

    tracer = None
    if args.spans:
        import layertrace

        tracer = layertrace.Tracer(run_id=f"{args.config}:{os.getpid()}")
        layertrace.install(tracer)

    stages = []
    for stage in args.stage:
        argv = stage + ["--config", args.config, "--out-dir", args.out_dir]
        if tracer is not None:
            tracer.stage = stage[0]
            tracer.open(f"cli.{stage[0]}")
        mark, t = len(probe.samples), time.perf_counter()
        try:
            rc = pcrisk.cli.main(argv)
        except Exception:  # a crash is a failed stage; report it and stop
            traceback.print_exc()
            rc = -1
        elapsed = time.perf_counter() - t
        if tracer is not None:
            tracer.close()
        stages.append({"command": stage[0], "rc": rc, "s": elapsed, **probe.since(mark)})
        if rc != 0:
            break

    probe.stop()
    result = {
        "setup": setup,
        "stages": stages,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pcrisk": pcrisk.cli.__file__,
        "env": _environment(),
    }
    if tracer is not None:
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(tracer.span_records(), fh)
        result["layers"] = layertrace.layer_metrics(tracer)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
