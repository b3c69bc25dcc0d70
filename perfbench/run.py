"""pvakit benchmark: one closed-loop client in one process and one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; pvakit is imported from ``src/``
next to this directory.  The run

1. sets up several times (fresh import of ``pvakit.cli``, seeded input
   generation with parse round-trip checks, a warm-up) and reports the
   median as ``setup_s``;
2. repeats passes over the workload's fixed op list for ``--seconds``
   seconds, timing each op, and checks every op's output after the pass,
   outside the timed region;
3. with ``--trace 0`` reports the end-to-end metrics; with ``--trace 1``
   it alternates untraced and traced passes and reports the per-layer
   metrics of the traced passes plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds ungated meta data.  Exit status is 2, with nothing printed on
standard output, when the pvakit sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPS = 7
# Times are scaled to a reference machine on which one calibration chunk
# takes CAL_REF_S; chunks run between ops, outside the timed region.
CAL_REF_S = 0.001
CAL_STEPS = 250
CAL_PER_PASS = 30  # at least this many chunks per pass
CAL_WINDOW = 5  # an op is scaled by the chunks this close before and after it
WORKLOADS = tuple(workloads.BUILDERS)


def fresh_import():
    """Drop every pvakit module and import ``pvakit.cli`` again."""
    for name in [n for n in sys.modules if n == "pvakit" or n.startswith("pvakit.")]:
        del sys.modules[name]
    cli = importlib.import_module("pvakit.cli")
    pk = sys.modules["pvakit"]
    if Path(pk.__file__).resolve().parent != SRC / "pvakit":
        raise RuntimeError("pvakit was imported from %s, not %s" % (pk.__file__, SRC))
    return pk, cli


def setup(name, seed, tiny):
    pk, cli = fresh_import()
    env = workloads.Env(pk, cli.main)
    workload = workloads.build(name, seed, env, tiny)
    workloads.warm_up(env)
    return env, workload


def calibration_chunk():
    """Fixed pure-Python work like pvakit's inner loops (small Fractions,
    tuple keys, dict stores); returns its duration in seconds."""
    t0 = perf_counter()
    table = {}
    for i in range(CAL_STEPS):
        q = Fraction(i % 13 + 1, i % 7 + 2)
        table[(i % 50, i % 7)] = q * q + q
    return perf_counter() - t0


def speed_scale(chunks):
    """Factor that turns this machine's seconds into reference seconds."""
    return CAL_REF_S / statistics.median(chunks)


def run_pass(env, ops, tracer=None):
    """Run every op once, with calibration chunks between ops.

    On a shared host the same pass can take 30% longer from one minute to
    the next, with no steal time visible to the guest.  Op times and
    calibration chunk times move together, so each op's time is scaled by
    the chunks run just before and after it.  Returns (reference seconds
    per op, output per op, median speed scale).
    """
    times = []
    outputs = []
    per_op = -(-CAL_PER_PASS // len(ops))
    chunks = [calibration_chunk() for _ in range(per_op)]
    for idx, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = idx
        gc.collect()  # each op starts with empty young generations
        t0 = perf_counter()
        try:
            out = op.run(env)
        except Exception as exc:  # an op that raises is a failed op
            out = exc
        times.append(perf_counter() - t0)
        outputs.append(out)
        chunks += [calibration_chunk() for _ in range(per_op)]
    scales = []
    for idx in range(len(ops)):
        mid = (idx + 1) * per_op  # first chunk after op idx
        scales.append(speed_scale(chunks[max(0, mid - CAL_WINDOW):mid + CAL_WINDOW]))
    return [t * k for t, k in zip(times, scales)], outputs, statistics.median(scales)


class Checker:
    """Checks each op's output; a repeat of the first pass's output gets
    the first pass's verdict."""

    def __init__(self, env, ops):
        self.env = env
        self.ops = ops
        self.first = [None] * len(ops)
        self.attempted = 0
        self.failures = []  # (op index, kind, why)

    def check_pass(self, outputs):
        for idx, (op, out) in enumerate(zip(self.ops, outputs)):
            self.attempted += 1
            seen = self.first[idx]
            if seen is not None and not isinstance(out, Exception) and seen[0] == out:
                verdict = seen[1]
            elif isinstance(out, Exception):
                verdict = ("error", "%s: %s" % (type(out).__name__, out))
            else:
                try:
                    verdict = op.check(self.env, out)
                except Exception as exc:  # a check that raises fails the op
                    verdict = ("error", "check raised %s: %s" % (type(exc).__name__, exc))
            if seen is None:
                self.first[idx] = (out, verdict)
            if verdict is not None:
                self.failures.append((idx, verdict[0], verdict[1]))

    @property
    def correct(self):
        """False when any failure is not a known defect of pvakit."""
        return all(kind == "known" for _, kind, _ in self.failures)


def end_to_end(workload, setups, passes):
    """Times of one pass, built from each op's median over the passes, so a
    burst of machine noise during one pass does not move them."""
    per_op = [statistics.median(col) for col in zip(*passes)]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(per_op), "s"),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(per_op, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for k, group in enumerate(workload.groups, 1):
        value = sum(t for t, op in zip(per_op, workload.ops) if op.group == group)
        metrics["group%d_s" % k] = (value, "s")
    return metrics


def per_layer(layer_passes, traced_walls, plain_walls):
    """Median over the traced passes; times scaled by each pass's speed."""
    metrics = {}
    for name in layer_passes[0][0]:
        if name.endswith(("calls", "pairings", "triples")):
            values = [layer[name] for layer, _ in layer_passes]
            metrics[name] = (statistics.median(values), "count")
        else:
            values = [layer[name] * scale for layer, scale in layer_passes]
            metrics[name] = (statistics.median(values), "s")
    overhead = statistics.median(traced_walls) / statistics.median(plain_walls) - 1
    metrics["trace.overhead_pct"] = (overhead * 100, "%")
    return metrics


def git_sha():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def run(name, seed, seconds, trace, tiny=False):
    """Set up, measure for ``seconds`` and check; return (result, meta)."""
    setups = []
    for _ in range(SETUP_REPS):
        gc.collect()
        before = [calibration_chunk() for _ in range(5)]
        t0 = perf_counter()
        env, workload = setup(name, seed, tiny)
        t1 = perf_counter()
        after = [calibration_chunk() for _ in range(5)]
        setups.append((t1 - t0) * speed_scale(before + after))
    ops = workload.ops
    checker = Checker(env, ops)
    plain, traced, layer_passes, scales = [], [], [], []
    plain_main = env.main
    tracer = tracing.Tracer()
    # set-up objects stay out of the collections that run inside ops
    gc.collect()
    gc.freeze()
    start = perf_counter()
    try:
        while not (plain and (traced or not trace)) or perf_counter() - start < seconds:
            if trace and len(traced) < len(plain):
                env.main = tracer.install(plain_main)
                tracer.reset()
                tracer.recording = not traced
                try:
                    times, outputs, scale = run_pass(env, ops, tracer)
                finally:
                    tracer.restore()
                    tracer.recording = False
                    env.main = plain_main
                traced.append(times)
                layer_passes.append((tracer.layer_metrics(), scale))
            else:
                times, outputs, scale = run_pass(env, ops)
                plain.append(times)
            scales.append(scale)
            checker.check_pass(outputs)
    finally:
        gc.unfreeze()
    if trace:
        metrics = per_layer(layer_passes, [sum(p) for p in traced], [sum(p) for p in plain])
        tracer.write_spans(OUT / ("spans-%s-seed%d.jsonl" % (name, seed)))
    else:
        metrics = end_to_end(workload, setups, plain)
    result = {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    meta = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines(),
        "ops_per_pass": len(ops),
        "passes": len(plain) + len(traced),
        "fail_frac": len(checker.failures) / checker.attempted,
        "speed_scale": statistics.median(scales),
        "groups": {"group%d_s" % k: g for k, g in enumerate(workload.groups, 1)},
        "setup_notes": workload.notes,
        "failures": sorted({"%s: %s" % (ops[i].label, why) for i, _, why in checker.failures}),
    }
    return result, meta


def report_lines(result, meta):
    """One line per metric, then the meta line, then the result line."""
    lines = [
        "%-32s %14.6f %s" % (key, m["value"], m["unit"])
        for key, m in result["metrics"].items()
    ]
    lines.append(json.dumps({"meta": meta}, sort_keys=True))
    lines.append(json.dumps(result))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pvakit" / "__init__.py").is_file():
        print("perfbench: no pvakit sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, meta = run(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(report_lines(result, meta)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
