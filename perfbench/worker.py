"""One workload in a fresh interpreter; started by run.py.

Modes:
  setup  set up, then report when the first op would start;
  run    the timed closed loop for --seconds (whole blocks), checking each output;
  trace  a fixed op list, once untraced and once traced, reduced to layer metrics.

The last line of standard output is one JSON object with the result.

Times in setup and run mode are normalised to a nominal machine speed.
On a shared 2-core VM (Linux, Python 3.11) a fixed Fraction loop was
measured at 25 to 43 ms in successive 5-second windows: other tenants
change the machine's speed by up to a quarter within seconds, which no
affordable run length averages out.  A SIGALRM handler therefore times a
fixed reference kernel every PROBE_PERIOD_S while the program runs; each
op's wall time, minus the handler's own time, is scaled by
NOMINAL_KERNEL_S over the median kernel time measured during that op (or
just before it, for ops shorter than the period).  Raw wall times are
reported next to them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

PROBE_PERIOD_S = 0.05
NOMINAL_KERNEL_S = 0.00025


def _kernel_seconds() -> float:
    """Best of three timings of a fixed piece of small-object work: exact
    arithmetic on small fractions, tuple hashing and a sort, as the
    program does."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        seen = {}
        for i in range(16):
            a, b = Fraction(i % 7 - 3, i % 5 + 1), Fraction(3, i % 4 + 2)
            v = (a * b + a - b) / (b + 1)
            seen[(i, v)] = [v, a, b]
        sorted(seen, key=lambda key: key[1])
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedProbe:
    """Samples machine speed from a timer signal while the program runs."""

    def __init__(self):
        self.starts: list[float] = []  # perf_counter at each sample
        self.kernel: list[float] = []  # kernel seconds at each sample
        self.spent: list[float] = []  # handler seconds at each sample
        signal.signal(signal.SIGALRM, self._sample)
        for _ in range(3):
            self._sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        kernel = _kernel_seconds()
        self.starts.append(t0)
        self.kernel.append(kernel)
        self.spent.append(time.perf_counter() - t0)

    def normalise(self, t0: float, t1: float) -> tuple[float, float]:
        """(raw, normalised) seconds of the program's work in [t0, t1]."""
        i = len(self.starts)
        while i > 0 and self.starts[i - 1] >= t0:
            i -= 1
        inside = self.kernel[i:] or self.kernel[-3:]
        raw = t1 - t0 - sum(self.spent[i:])
        return raw, raw * NOMINAL_KERNEL_S / statistics.median(inside)


def _run_ops(wl, inputs, record, stop_after: float | None = None, min_ops: int = 0,
             probe: SpeedProbe | None = None) -> None:
    """Closed loop over the inputs, handing each (input, output, raw s,
    normalised s) to ``record``; with ``stop_after`` keep drawing blocks
    until that many seconds have passed and at least ``min_ops`` ops ran.
    A failed op has its exception as output."""
    first = time.monotonic()
    block = ops = 0
    while True:
        for inp in inputs:
            t0 = time.perf_counter()
            try:
                out = wl.op(inp)
            except Exception as exc:  # an op that raises is a failed op, not a crash
                out = exc
                traceback.print_exc(file=sys.stderr)
            t1 = time.perf_counter()
            record(inp, out, *(probe.normalise(t0, t1) if probe else (t1 - t0, t1 - t0)))
            ops += 1
        block += 1
        if stop_after is None or (time.monotonic() - first >= stop_after and ops >= min_ops):
            return
        inputs = wl.block(block)


class Outcome:
    """Latencies, failures and the output digest of a series of ops."""

    def __init__(self, wl, setup_bytes: bytes, digest_ops: int):
        self.wl = wl
        self.raw: list[float] = []
        self.norm: list[float] = []
        self.failures: list[str] = []
        self.outputs: list = []  # of the first digest_ops ops
        self.digest_ops = digest_ops
        self._hash = hashlib.sha256(setup_bytes)

    def record(self, inp, out, raw: float, norm: float) -> None:
        self.raw.append(raw)
        self.norm.append(norm)
        failed = isinstance(out, Exception)
        problem = f"raised {out!r}" if failed else self.wl.check(inp, out)
        if problem:
            self.failures.append(problem)
        if len(self.outputs) < self.digest_ops:
            self.outputs.append(out)
            self._hash.update(repr(out).encode() if failed else self.wl.output_bytes(out))

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spans", type=Path, help="trace mode: write the spans here")
    args = ap.parse_args()
    probe = SpeedProbe() if args.mode != "trace" else None

    src = Path(__file__).resolve().parent.parent / "src"
    import qlogic  # import time belongs to setup

    if Path(qlogic.__file__).resolve().parent.parent != src:
        print(f"qlogic imported from {qlogic.__file__}, not from {src}", file=sys.stderr)
        return 1
    from workloads import WORKLOADS

    args.workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _work(WORKLOADS[args.workload](args.seed, args.workdir), args, probe)
    finally:
        if probe:
            probe.stop()
        shutil.rmtree(args.workdir, ignore_errors=True)


def _work(wl, args, probe: SpeedProbe | None) -> int:
    setup_bytes = wl.setup()
    first_block = wl.block(0)
    digest_ops = wl.trace_blocks * len(first_block)
    if probe:
        ready = time.monotonic()
        setup = {"ready": ready, "setup_spent": sum(probe.spent),
                 "setup_factor": NOMINAL_KERNEL_S / statistics.median(probe.kernel)}
    if args.mode == "setup":
        print(json.dumps(setup))
        return 0
    if args.mode == "run":
        outcome = Outcome(wl, setup_bytes, digest_ops)
        _run_ops(wl, first_block, outcome.record, args.seconds, digest_ops, probe)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        probe.stop()
        norm_ms = [x * 1000 for x in outcome.norm]
        raw_ms = [x * 1000 for x in outcome.raw]
        print(json.dumps({
            **setup,
            "ops": len(norm_ms),
            "failed": len(outcome.failures),
            "failures": outcome.failures[:5],
            "ops_per_s": len(norm_ms) / sum(outcome.norm),
            "op_ms.p50": statistics.median(norm_ms),
            "op_ms.p90": statistics.quantiles(norm_ms, n=10, method="inclusive")[8],
            "peak_rss_mb": rss_mb,
            "raw": {"ops_per_s": len(raw_ms) / sum(outcome.raw),
                    "op_ms.p50": statistics.median(raw_ms),
                    "op_ms.p90": statistics.quantiles(raw_ms, n=10, method="inclusive")[8]},
            "digest_ops": digest_ops,
            "digest": outcome.digest,
        }))
        return 0

    from tracer import Tracer

    inputs = first_block + [inp for b in range(1, wl.trace_blocks) for inp in wl.block(b)]
    plain = Outcome(wl, setup_bytes, digest_ops)
    _run_ops(wl, inputs, plain.record)
    tracer = Tracer()
    tracer.install()
    results = []
    for i, inp in enumerate(inputs):
        tracer.op = i
        _run_ops(wl, [inp], lambda *result: results.append(result))
    tracer.op = -1
    metrics = tracer.reduce(len(inputs))
    traced = Outcome(wl, setup_bytes, digest_ops)
    for result in results:  # checked only now, so no check shows in the trace
        traced.record(*result)
    attempts = [wl.spec_attempts(out) for out in traced.outputs
                if hasattr(wl, "spec_attempts") and not isinstance(out, Exception)]
    metrics["generate.attempts_per_spec"] = sum(attempts) / len(attempts) if attempts else 0.0
    metrics["trace.overhead"] = sum(traced.raw) / sum(plain.raw)
    args.spans.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(args.spans)
    failures = plain.failures + traced.failures
    if traced.digest != plain.digest:
        failures.append("the traced pass produced other output than the untraced pass")
    print(json.dumps({"ops": 2 * len(inputs), "failed": len(failures), "failures": failures[:5],
                      "metrics": metrics, "digest_ops": digest_ops, "digest": plain.digest}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
