#!/usr/bin/env python3
"""Collects and compares request-benchmark runs. Standard library only.

Collect one set of runs (one run per workload and seed, end-to-end mode,
BENCHMARK.json's run_seconds) and append it to a results file:

    python3 reqbench/compare.py collect results.json --seeds 1-10

Compare, for each workload and end-to-end metric, the median and quartiles
of two sets and give a verdict against the metric's bound:

    python3 reqbench/compare.py compare base.json new.json
    python3 reqbench/compare.py compare results.json

With two files the last set of each is compared. With one file its first two
sets are compared, which shows whether one commit agrees with itself.

Verdicts: `ok` when the new median is no worse than the base median by more
than the bound; `REGRESSED` when it is; `unresolved` when either side's
spread (quartile distance over median) exceeds the bound, unless every new
run beats every base run (`better`). More failed requests is `REGRESSED`.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(out.stdout.rstrip("\n").split("\n")[-1])
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    result["seed"] = seed
    return result


def collect(args):
    path = Path(args.file)
    doc = json.loads(path.read_text()) if path.exists() else {"sets": []}
    workloads = [w["name"] for w in SPEC["workloads"]]
    runs = {w: [] for w in workloads}
    for seed in seed_range(args.seeds):
        for w in workloads:
            r = run_once(w, seed)
            runs[w].append(r)
            print(f"{w:12} seed {seed:3}: {r['attempted']} requests, "
                  f"{r['failed']} failed", file=sys.stderr)
    doc["sets"].append({"label": args.label, "seeds": args.seeds,
                        "run_seconds": SPEC["run_seconds"], "runs": runs})
    path.write_text(json.dumps(doc, indent=1) + "\n")


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def verdict(metric, base, new):
    lower = metric["better"] == "lower"
    bmed, _, _, bspread = summary(base)
    nmed, _, _, nspread = summary(new)
    worse = (nmed - bmed) / bmed if lower else (bmed - nmed) / bmed
    if max(bspread, nspread) > metric["bound"]:
        beats = max(new) < min(base) if lower else min(new) > max(base)
        return worse, "better" if beats else "unresolved"
    return worse, "REGRESSED" if worse > metric["bound"] else "ok"


def compare(args):
    docs = [json.loads(Path(f).read_text()) for f in args.files]
    if len(docs) > 2 or (len(docs) == 1 and len(docs[0]["sets"]) < 2):
        sys.exit("compare takes two files, or one file holding two sets")
    if len(docs) == 1:
        base, new = docs[0]["sets"][0], docs[0]["sets"][1]
    else:
        base, new = docs[0]["sets"][-1], docs[1]["sets"][-1]
    print(f"base: {base['label']} (seeds {base['seeds']})   "
          f"new: {new['label']} (seeds {new['seeds']})")
    print(f"{'workload':12} {'metric':14} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'spread b/n':>13} {'bound':>6} "
          f"{'change':>8}  verdict")
    regressed = False
    for w in base["runs"]:
        b_runs, n_runs = base["runs"][w], new["runs"].get(w, [])
        if not n_runs:
            print(f"{w:12} missing from the new set")
            regressed = True
            continue
        for m in SPEC["end_to_end"]:
            b = [r["metrics"][m["name"]] for r in b_runs]
            n = [r["metrics"][m["name"]] for r in n_runs]
            bs, ns = summary(b), summary(n)
            worse, v = verdict(m, b, n)
            regressed |= v == "REGRESSED"
            print(f"{w:12} {m['name']:14} "
                  f"{bs[0]:10.5g} [{bs[1]:9.5g}, {bs[2]:9.5g}] "
                  f"{ns[0]:10.5g} [{ns[1]:9.5g}, {ns[2]:9.5g}] "
                  f"{bs[3]:6.1%}/{ns[3]:6.1%} {m['bound']:6.0%} "
                  f"{worse:+8.1%}  {v}")
        b_failed = sum(r["failed"] for r in b_runs)
        n_failed = sum(r["failed"] for r in n_runs)
        v = "REGRESSED" if n_failed > b_failed else "ok"
        regressed |= v == "REGRESSED"
        print(f"{w:12} {'failed':14} {b_failed:>34} {n_failed:>34} "
              f"{'':13} {'':6} {'':8}  {v}")
    return 1 if regressed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run the benchmark, append a set")
    c.add_argument("file")
    c.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 2")
    c.add_argument("--label", default="")
    k = sub.add_parser("compare", help="compare two sets")
    k.add_argument("files", nargs="+")
    args = p.parse_args()
    if args.cmd == "collect":
        collect(args)
        return 0
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
