#!/usr/bin/env python3
"""The simulator benchmark: host cost per simulated packet, and a per-layer ledger.

Run from the repository root:

    python3 perfbench/run.py --workload bulk-dumbbell --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload bulk-dumbbell --seed 7 --seconds 30 --trace 1
    python3 perfbench/run.py --selftest

It builds perfbench/perfbench.exe with dune, then starts one fresh process
per measurement until --seconds have passed.  Processes given the same input
seed must print the same simulated outputs; a process whose outputs differ,
whose sanity checks fail or that crashes counts as failed.

--trace 0 measures with observability off, round-robin over eight input
seeds derived from --seed, and reports the end-to-end metrics.
--trace 1 alternates untraced and traced (Obs.Prof spans on) processes on the
first of those inputs, adds one run of the window as a single Engine.run, and
reports the per-layer ledger.  The last line of standard output is always one JSON object with the
keys correct, attempted, failed and metrics.  See perfbench/README.md.
"""

import argparse
import collections
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")

# Their simulated shapes (warm-up, window, slice) live in perfbench.ml.
WORKLOADS = ["bulk-dumbbell", "websearch-leafspine", "bulk-observed"]

# Input sets per --trace 0 run (see inputs()); each runs at least twice.
FAMILY = 8
PROCESS_TIMEOUT_S = 60
# Stop starting measurements this long after the build, whatever --seconds
# says, so a run with hung processes still ends well inside three minutes.
GIVE_UP_S = 150
STARTED = None  # set once the build is done

# Figs. 11-12 in the paper's terms: OVS runs above TSO, so AC/DC works once
# per 64 KB segment; at 10 Gb/s that is this many segments per second.
TSO_SEGS_PER_S = 10e9 / 8 / 65536


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def child_env():
    env = dict(os.environ)
    # Measure the default event queue and GC settings, and keep dune's
    # build cache inside the checkout.
    env.pop("ACDC_SCHED", None)
    env.pop("OCAMLRUNPARAM", None)
    env["DUNE_CACHE"] = "disabled"
    return env


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("run from the repository root: no dune-project or lib/ here")
    if shutil.which("dune") is None:
        die("dune is not on PATH")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if proc.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(proc.stdout)
        die("build failed", 1)


def provenance():
    def tool(args):
        try:
            out = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            return out.stdout.strip()
        except OSError:
            return ""

    version = tool(["ocamlopt", "-version"]) or "unknown"
    flambda = tool(["ocamlopt", "-config-var", "flambda"]) or "unknown"
    return "provenance: nproc=%d ocaml=%s flambda=%s python=%s" % (
        os.cpu_count() or 0,
        version,
        flambda,
        sys.version.split()[0],
    )


def measure(workload, seed, traced=False, single=False):
    """One fresh process; returns its record, or an error string."""
    args = [EXE, "--workload", workload, "--seed", str(seed)]
    if traced:
        args.append("--traced")
    if single:
        args.append("--single")
    timeout = min(PROCESS_TIMEOUT_S, max(1.0, STARTED + GIVE_UP_S - time.monotonic()))
    try:
        proc = subprocess.run(
            args,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return "timed out after %.0f s" % timeout
    if proc.returncode != 0:
        return "exit %d: %s" % (proc.returncode, proc.stderr.strip()[-400:])
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return "unparseable output"


def judge(records):
    """Split records into good ones and failure reasons.

    A record fails if its process failed, its own sanity checks failed, or
    its simulated outputs differ from those most records of the input agree
    on.  Returns (good, failures, reference_sim)."""
    sims = collections.Counter(
        json.dumps(r["sim"], sort_keys=True) for r in records if isinstance(r, dict)
    )
    reference = json.loads(sims.most_common(1)[0][0]) if sims else None
    good, failures = [], []
    for r in records:
        if not isinstance(r, dict):
            failures.append(r)
        elif r["checks"]:
            failures.append("; ".join(r["checks"]))
        elif r["sim"] != reference:
            failures.append("sim outputs differ: %s vs %s" % (r["sim"]["sim.digest"], reference["sim.digest"]))
        else:
            good.append(r)
    return good, failures, reference


def loop(seconds, steps, min_rounds):
    """Call steps() (one round of measurements) until the time is up."""
    start = time.monotonic()
    rounds = 0
    while (rounds < min_rounds or time.monotonic() - start < seconds) and (
        time.monotonic() - STARTED < GIVE_UP_S
    ):
        steps()
        rounds += 1


def pkts(r):
    return int(r["sim"]["sim.pkts_forwarded"])


def ns_per_pkt(r):
    return r["window_ns"] / pkts(r)


median = statistics.median


def spread(values):
    if len(values) < 2:
        return "n=%d" % len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return "n=%d q1=%.6g q3=%.6g min=%.6g max=%.6g" % (len(values), q1, q3, min(values), max(values))


def print_sim(reference):
    for key in sorted(reference):
        print("%-24s %s" % (key, reference[key]))


def print_metric(name, value, unit, note=""):
    print("%-32s %14.6g %-6s %s" % (name, value, unit, note))


def report_failures(attempted, failures):
    for reason in failures:
        print("FAILED: " + reason)
    share = len(failures) / attempted if attempted else 1.0
    print("failure share: %d/%d = %.4f" % (len(failures), attempted, share))


def finish(attempted, failures, metrics):
    report_failures(attempted, failures)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics, observability off


def inputs(seed):
    """The input sets of one run: FAMILY seeds derived from --seed.

    A run's figures are medians over several traffic realisations, so that
    one seed's flow mix (it moves slice times and heap size by ~10% on
    websearch-leafspine) does not decide them."""
    return [seed * FAMILY + k for k in range(FAMILY)]


def end_to_end(workload, seed, seconds):
    seeds = inputs(seed)
    records = {s: [] for s in seeds}

    def round_():
        # Round-robin over the inputs, so a slow spell of the machine hits
        # every input alike.
        for s in seeds:
            records[s].append(measure(workload, s))

    loop(seconds, round_, 2)
    attempted, failures, good = 0, [], {}
    for s in seeds:
        ok, bad, reference = judge(records[s])
        attempted += len(records[s])
        failures += ["input %d: %s" % (s, reason) for reason in bad]
        if ok:
            good[s] = (ok, reference)
    if not good:
        report_failures(attempted, failures)
        sys.exit(1)
    first, reference = next(iter(good.values()))
    r = first[0]
    print(
        "window: %g ms simulated after %g ms warm-up, %d slices per process; "
        "%d inputs (seeds %d..%d), %d good processes"
        % (
            r["window_sim_ns"] / 1e6,
            r["warmup_ns"] / 1e6,
            r["slices"],
            len(seeds),
            seeds[0],
            seeds[-1],
            sum(len(ok) for ok, _ in good.values()),
        )
    )
    print("input %d:" % next(iter(good)))
    print_sim(reference)
    print("sim.digest by input: " + " ".join("%d=%s" % (s, ref["sim.digest"]) for s, (_, ref) in good.items()))
    series = {
        "ns_per_pkt": (ns_per_pkt, "ns"),
        "slice_p50_ms": (lambda r: r["slice_p50_ns"] / 1e6, "ms"),
        "slice_p99_ms": (lambda r: r["slice_p99_ns"] / 1e6, "ms"),
        "minor_words_per_pkt": (lambda r: r["minor_words"] / pkts(r), "words"),
        "top_heap_mb": (lambda r: r["top_heap_words"] * 8 / 1e6, "MB"),
        "setup_s": (lambda r: r["setup_ns"] / 1e9, "s"),
    }
    metrics = {}
    for name, (f, unit) in series.items():
        # Median over inputs of each input's median over its processes.
        values = [median([f(r) for r in ok]) for ok, _ in good.values()]
        metrics[name] = (median(values), unit)
        print_metric(name, metrics[name][0], unit, spread(values))
    finish(attempted, failures, metrics)


# ---------------------------------------------------------------------------
# --trace 1: the per-layer ledger

# Obs.Prof sites by layer.
SWITCH = ["switch.forward"]
TXQ = ["txq.enqueue", "txq.dequeue"]
VSWITCH = ["vswitch.rx", "vswitch.tx"]
ACDC = ["acdc.sender", "acdc.receiver"]
TCP = ["tcp.endpoint"]
DISPATCH = ["engine.callback", "engine.timer", "heap.pop"]


def self_words(prof):
    """Minor words allocated at each site outside its child spans.

    Obs.Prof keeps allocation per site inclusively and time per span path.
    Each site's words are spread over the paths it occurs on in proportion
    to the path's inclusive time, then every path gives up its children's
    share.  Leaf sites (heap.push, acdc.*) come out exact."""
    incl_ns = collections.defaultdict(int)
    for path, ns in prof["folded"].items():
        parts = path.split(";")
        for i in range(1, len(parts) + 1):
            incl_ns[";".join(parts[:i])] += ns
    site_ns = collections.defaultdict(int)
    for path, ns in incl_ns.items():
        site_ns[path.rsplit(";", 1)[-1]] += ns
    own = collections.defaultdict(float)
    for path, ns in incl_ns.items():
        site = path.rsplit(";", 1)[-1]
        if not site_ns[site]:
            continue
        words = prof["sites"][site]["minor_words"] * ns / site_ns[site]
        own[site] += words
        if ";" in path:
            own[path.rsplit(";", 2)[-2]] -= words
    return own


def traced_ledger(r, segs):
    """Per-layer figures of one traced process."""
    sites = r["prof"]["sites"]
    ns = dict.fromkeys(sites, 0)  # self ns: folded stacks by their leaf site
    for path, self_ns in r["prof"]["folded"].items():
        ns[path.rsplit(";", 1)[-1]] += self_ns
    words = self_words(r["prof"])
    pk = pkts(r)
    events = int(r["sim"]["sim.events"])
    pushes = sites["heap.push"]["count"]

    def per(group, table, denom):
        return sum(table[s] for s in group) / denom if denom else 0.0

    named = sum(v for s, v in ns.items() if s != "engine.callback")
    return {
        "eventsim.fired_per_push": events / pushes if pushes else 0.0,
        "eventsim.dispatch_ns_per_event": per(DISPATCH, ns, events),
        "eventsim.push_ns": per(["heap.push"], ns, pushes),
        "eventsim.words_per_push": per(["heap.push"], words, pushes),
        "netsim.switch_ns_per_pkt": per(SWITCH, ns, pk),
        "netsim.switch_words_per_pkt": per(SWITCH, words, pk),
        "netsim.txq_ns_per_pkt": per(TXQ, ns, pk),
        "netsim.txq_words_per_pkt": per(TXQ, words, pk),
        "vswitch.ns_per_pkt": per(VSWITCH, ns, pk),
        "vswitch.words_per_pkt": per(VSWITCH, words, pk),
        "acdc.sender_ns_per_seg": per(["acdc.sender"], ns, segs),
        "acdc.receiver_ns_per_seg": per(["acdc.receiver"], ns, segs),
        "acdc.words_per_pkt": per(ACDC, words, pk),
        "tcp.ns_per_pkt": per(TCP, ns, pk),
        "tcp.words_per_pkt": per(TCP, words, pk),
        "prof.coverage": named / r["window_ns"],
        "traced_ns_per_pkt": ns_per_pkt(r),
    }


LEDGER_UNITS = {
    "eventsim.events_per_pkt": "events",
    "eventsim.events_per_s": "1/s",
    "eventsim.pending_max": "count",
    "eventsim.fired_per_push": "ratio",
    "eventsim.dispatch_ns_per_event": "ns",
    "eventsim.push_ns": "ns",
    "eventsim.words_per_push": "words",
    "netsim.switch_ns_per_pkt": "ns",
    "netsim.switch_words_per_pkt": "words",
    "netsim.txq_ns_per_pkt": "ns",
    "netsim.txq_words_per_pkt": "words",
    "netsim.drops": "count",
    "netsim.ce_marks": "count",
    "vswitch.ns_per_pkt": "ns",
    "vswitch.words_per_pkt": "words",
    "vswitch.flow_inserts": "count",
    "vswitch.flow_gc_removals": "count",
    "vswitch.flows_live_max": "count",
    "acdc.sender_ns_per_seg": "ns",
    "acdc.receiver_ns_per_seg": "ns",
    "acdc.words_per_pkt": "words",
    "acdc.rwnd_rewrites": "count",
    "acdc.pack_frac": "ratio",
    "acdc.core_pct_10g_tso": "%",
    "tcp.ns_per_pkt": "ns",
    "tcp.words_per_pkt": "words",
    "tcp.retransmissions": "count",
    "tcp.timeouts": "count",
    "fabric.establish_us_p50": "us",
    "fabric.establish_us_p99": "us",
    "fabric.build_s": "s",
    "obs.marginal_ns_per_pkt": "ns",
    "obs.marginal_words_per_pkt": "words",
    "prof.coverage": "ratio",
    "prof.overhead": "ratio",
}


def ledger(workload, seed, seconds):
    seed = inputs(seed)[0]  # the first input set of the --trace 0 run
    untraced, traced, single, bypass = [], [], [], []
    observed = workload == "bulk-observed"

    def round_():
        untraced.append(measure(workload, seed))
        traced.append(measure(workload, seed, traced=True))
        if observed:
            # The same seed with every sink off: obs.marginal_* is the
            # difference, per forwarded packet (INT changes the event count).
            bypass.append(measure("bulk-dumbbell", seed))

    single.append(measure(workload, seed, single=True))
    loop(seconds, round_, 2)
    good, failures, reference = judge(untraced + traced + single)
    good_bypass, bypass_failures, _ = judge(bypass)
    failures += bypass_failures
    attempted = len(untraced) + len(traced) + len(single) + len(bypass)
    good_untraced = [r for r in good if not r["traced"] and not r["single"]]
    good_traced = [r for r in good if r["traced"]]
    if not good_untraced or not good_traced or (observed and not good_bypass):
        report_failures(attempted, failures)
        sys.exit(1)
    print(
        "ledger: %d untraced, %d traced, %d single-run processes; sim.digest %s in all three modes"
        % (len(good_untraced), len(good_traced), len([r for r in good if r["single"]]), reference["sim.digest"])
    )
    print_sim(reference)
    base = good_untraced[0]
    counts = base["counts"]
    pk = pkts(base)
    events = int(reference["sim.events"])
    segs = base["data_segs"]
    rows = [traced_ledger(r, segs) for r in good_traced]
    m = {k: median([row[k] for row in rows]) for k in rows[0]}
    untraced_ns = median([ns_per_pkt(r) for r in good_untraced])
    m["eventsim.events_per_pkt"] = events / pk
    m["eventsim.events_per_s"] = median([events / (r["window_ns"] / 1e9) for r in good_untraced])
    m["eventsim.pending_max"] = good_traced[0]["prof"]["heap_depth_max"]
    m["netsim.drops"] = int(reference["sim.switch_drops"])
    m["netsim.ce_marks"] = counts["ce_marks"]
    m["vswitch.flow_inserts"] = counts["flow_inserts"]
    m["vswitch.flow_gc_removals"] = counts["flow_gc_removals"]
    m["vswitch.flows_live_max"] = counts["flows_live_max"]
    m["acdc.rwnd_rewrites"] = counts["rwnd_rewrites"]
    feedback = counts["packs"] + counts["facks"]
    m["acdc.pack_frac"] = counts["packs"] / feedback if feedback else 0.0
    m["acdc.core_pct_10g_tso"] = (
        (m["acdc.sender_ns_per_seg"] + m["acdc.receiver_ns_per_seg"]) * TSO_SEGS_PER_S / 1e9 * 100
    )
    m["tcp.retransmissions"] = counts["retransmissions"]
    m["tcp.timeouts"] = counts["timeouts"]
    m["fabric.establish_us_p50"] = median([r["establish_p50_ns"] / 1e3 for r in good_untraced])
    m["fabric.establish_us_p99"] = median([r["establish_p99_ns"] / 1e3 for r in good_untraced])
    m["fabric.build_s"] = median([r["build_ns"] / 1e9 for r in good_untraced])
    if observed:
        m["obs.marginal_ns_per_pkt"] = untraced_ns - median([ns_per_pkt(r) for r in good_bypass])
        b = good_bypass[0]
        m["obs.marginal_words_per_pkt"] = base["minor_words"] / pk - b["minor_words"] / pkts(b)
    else:
        # Every sink is off in this workload: nothing to charge.
        m["obs.marginal_ns_per_pkt"] = 0.0
        m["obs.marginal_words_per_pkt"] = 0.0
    m["prof.overhead"] = m.pop("traced_ns_per_pkt") / untraced_ns
    for name, unit in LEDGER_UNITS.items():
        print_metric(name, m[name], unit)
    for side in ("sender", "receiver"):
        v = m["acdc.%s_ns_per_seg" % side]
        print(
            "Figs 11-12 re-check: acdc.%s_ns_per_seg %.1f ns = %.3f%% of one core at 10 Gb/s with 64 KB TSO segments"
            % (side, v, v * TSO_SEGS_PER_S / 1e9 * 100)
        )
    print("Figs 11-12 reference quoted in the project notes: +548 ns/segment, 1.04% of one core")
    finish(attempted, failures, {k: (m[k], u) for k, u in LEDGER_UNITS.items()})


# ---------------------------------------------------------------------------
# --selftest: the purity and slicing claims, on every workload


def selftest(seed):
    ok = True
    for workload in WORKLOADS:
        modes = {
            "sliced": measure(workload, seed),
            "sliced again": measure(workload, seed),
            "single Engine.run": measure(workload, seed, single=True),
            "traced": measure(workload, seed, traced=True),
        }
        digests = {
            mode: (r["sim"]["sim.digest"] if isinstance(r, dict) and not r["checks"] else "FAILED: %s" % r)
            for mode, r in modes.items()
        }
        same = len(set(digests.values())) == 1
        ok = ok and same
        print("%s %-20s %s" % ("PASS" if same else "FAIL", workload, digests))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        die("--workload is required")
    build()
    global STARTED
    STARTED = time.monotonic()
    print(provenance())
    if args.selftest:
        sys.exit(0 if selftest(args.seed) else 1)
    print(
        "perfbench: workload=%s seed=%d seconds=%g trace=%d"
        % (args.workload, args.seed, args.seconds, args.trace)
    )
    if args.trace:
        ledger(args.workload, args.seed, args.seconds)
    else:
        end_to_end(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    main()
