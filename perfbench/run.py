"""Verdict benchmark for sepmult.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Workloads: ``certify``, ``refute`` and ``suite`` (see perfbench/README.md).
sepmult is imported from ``src/`` under the current directory.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Result and trace files go to
``perfbench/out/``.
"""

import os

# One BLAS thread: the load comes from this one process.  Set before numpy
# is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import statistics
import sys
import time

import spans
import workloads

#: verdict tail percentile; a run continues past --seconds until it holds
#: enough verdicts for ten to lie beyond it
TAIL_PERCENTILE = 90
MIN_VERDICTS = 10 * 100 // (100 - TAIL_PERCENTILE)

#: per-layer self times reported as "<name>.ms"
SELF_MS = ("classify.classify_fourier", "classify.classify_schur",
           "classify.separating_test", "classify.deterministic_probes",
           "classify.isometry_test", "classify.fourier_multiplier_map",
           "classify.schur_multiplier_map", "classify.random_disjoint_pair_matrix",
           "classify.yeadon_extract", "classify.positive_definite_test",
           "groups.builtin_group", "groups.enumerate_characters",
           "groups.fit_scalar_character", "schur.rank_one_unimodular_factor",
           "schur.herz_schur_symbol", "vna.random_disjoint_pair",
           "linalg.hermitian_eig", "linalg.schatten_norm", "linalg.singular_values")

#: per-layer call counts reported as "<name>.calls"
CALLS = ("cli.main", "classify.separating_test", "classify.isometry_test",
         "classify.random_disjoint_pair_matrix", "classify.yeadon_extract",
         "classify.positive_definite_test", "schur.herz_schur_symbol",
         "vna.random_disjoint_pair", "vna.random_projection_pair",
         "vna.disjointness_defect", "linalg.hermitian_eig", "linalg.schatten_norm",
         "linalg.singular_values", "linalg.svd", "linalg.frobenius")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must not be negative")
    return args


def import_path():
    """Put ./src first on sys.path; stop without a result if it is missing."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "sepmult", "__init__.py")):
        sys.exit("error: no sepmult sources at %s; run from the repository root" % src)
    sys.path.insert(0, src)


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with q% of values at or below."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pairs_hook(recorder, args, verdict):
    """Probes and trials separating_test evaluated, from its verdict."""
    t = args[0]
    if verdict.trials == 0:
        return
    if t.algebra == "group":
        probes = [t.group.names[s] for s in t.group.involutions()]
    else:
        n = t.matrix_dim
        probes = ["%d,%d" % (i, j) for i in range(n) for j in range(i + 1, n)]
    if verdict.witness is None:
        examined, trials = len(probes) + verdict.trials, verdict.trials
    else:
        label = verdict.witness.label
        if label.startswith("probe:"):
            examined, trials = probes.index(label.split(":", 2)[2]) + 1, 0
        else:
            trials = int(label.split(":")[1]) + 1
            examined = len(probes) + trials
    recorder.add("classify.pairs_examined", examined)
    recorder.add("classify.trial_lookups", trials)


def _map_hook(recorder, args, tmap):
    recorder.peak("classify.map_bytes_max", tmap.images.nbytes)


def new_recorder():
    recorder = spans.Recorder()
    recorder.hooks["classify.separating_test"] = _pairs_hook
    recorder.hooks["classify.fourier_multiplier_map"] = _map_hook
    recorder.hooks["classify.schur_multiplier_map"] = _map_hook
    return recorder


def layer_metrics(recorder, workload, setups, rounds):
    """Per-layer figures per set-up plus one round (see README)."""
    def unit(table, name):
        return recorder.per_unit(table, name, setups, rounds)

    out = {}
    for name in SELF_MS:
        out[name + ".ms"] = (unit(recorder.self_s, name) * 1e3, "ms")
    for name in CALLS:
        out[name + ".calls"] = (unit(recorder.calls, name), "count")
    out["classify.pairs_examined"] = (unit(recorder.values, "classify.pairs_examined"), "count")
    draws = unit(recorder.calls, "vna.random_disjoint_pair")
    splits = unit(recorder.calls, "vna.random_projection_pair")
    out["vna.pair_draw_yield"] = (draws / splits if splits else 0.0, "ratio")
    lookups = unit(recorder.values, "classify.trial_lookups")
    cold = draws + unit(recorder.calls, "classify.random_disjoint_pair_matrix")
    out["classify.pair_cache_hit_ratio"] = (1.0 - cold / lookups if lookups else 0.0, "ratio")
    out["classify.map_bytes_max"] = (recorder.maxima["classify.map_bytes_max"], "bytes")
    main = unit(recorder.total_s, "cli.main")
    suite = unit(recorder.total_s, "verify.run_suite")
    out["cli.overhead_ms"] = ((main - suite) * 1e3, "ms")
    reports = getattr(workload, "reports", [])
    for family in workloads.Suite.FAMILIES:
        total = sum(cell["wall_ms"] for report in reports for cell in report["cells"]
                    if cell["name"].startswith(family + "/") or cell["name"] == family)
        out["verify.%s.ms" % family.replace("/", "-")] = (
            total / len(reports) if reports else 0.0, "ms")
    return out


def run(args):
    # BENCHMARK.json names the metrics the result line carries; the traced
    # run computes more layers and writes them all to its trace file
    with open("BENCHMARK.json", "r", encoding="utf-8") as handle:
        declared = json.load(handle)

    recorder = new_recorder() if args.trace else None
    os.makedirs(workloads.OUT, exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    workload = cls(args.seed, recorder)

    setup_s = []

    def timed_setup():
        if recorder is not None:
            recorder.phase = "setup"
        start = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - start)
        if recorder is not None:
            recorder.phase = "round"

    if not cls.fresh_per_round:
        for _ in range(cls.setup_reps):
            timed_setup()

    verdict_s, round_verdict_s, round_s, failures, errors = [], [], [], {}, []
    failed = 0
    first_digest, rounds = None, 0
    start = time.perf_counter()
    while True:
        if cls.fresh_per_round:
            timed_setup()
        outcomes = workload.round()
        rounds += 1
        verdict_s.extend(o.seconds for o in outcomes)
        round_verdict_s.append([o.seconds for o in outcomes])
        round_s.append(workload.round_seconds)
        for o in outcomes:
            if o.errors:
                failures[o.name] = o.errors
                failed += 1
        round_digest = workloads.digest([o.digest_item for o in outcomes])
        if first_digest is None:
            first_digest = round_digest
        elif round_digest != first_digest:
            errors.append("round %d digest %s differs from round 0 (%s)"
                          % (rounds - 1, round_digest, first_digest))
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and len(verdict_s) >= MIN_VERDICTS and (
                len(setup_s) >= cls.setup_reps):
            break

    unexpected = {k: v for k, v in failures.items() if k not in cls.FAULTS}
    for name, errs in sorted(failures.items()):
        tag = "known fault (%s)" % cls.FAULTS[name] if name in cls.FAULTS else "FAILED"
        print("%s: %s: %s" % (tag, name, "; ".join(errs)))
    for line in errors:
        print("FAILED: %s" % line)
    correct = not unexpected and not errors
    end_to_end = {
        "setup_s": (statistics.median(setup_s), "s"),
        "verdicts_per_s": (len(verdict_s) / sum(round_s), "1/s"),
        "verdict_ms_p50": (percentile(verdict_s, 50) * 1e3, "ms"),
        "verdict_ms_tail": (percentile(verdict_s, TAIL_PERCENTILE) * 1e3, "ms"),
        "suite_s": (statistics.median(round_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    print("digest %s %s" % (args.workload, first_digest))
    print("%d rounds, %d verdicts, %d set-ups, %.1f s measured"
          % (rounds, len(verdict_s), len(setup_s), time.perf_counter() - start))
    if recorder is None:
        metrics = end_to_end
        names = [m["name"] for m in declared["end_to_end"]]
    else:
        print("traced end-to-end: %s" % json.dumps(
            {k: round(v, 6) for k, (v, _) in end_to_end.items()}))
        metrics = layer_metrics(recorder, workload, len(setup_s), rounds)
        for name, (value, unit) in metrics.items():
            print("layer %-40s %16.6f %s" % (name, value, unit))
        path = os.path.join(workloads.OUT, "trace-%s-%d.json" % (args.workload, args.seed))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(dict(recorder.dump(), workload=args.workload, seed=args.seed,
                           metrics={k: v for k, (v, _) in metrics.items()}), handle)
        names = [m["name"] for m in declared["per_layer"]]
    result = {
        "correct": correct,
        "attempted": len(verdict_s),
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in names},
    }
    path = os.path.join(workloads.OUT, "result-%s-%d-%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(dict(result, samples={"setup_s": setup_s, "round_s": round_s,
                                        "verdict_s": round_verdict_s}), handle)
    print(json.dumps(result))


def main(argv=None):
    args = parse_args(argv)
    import_path()
    run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
