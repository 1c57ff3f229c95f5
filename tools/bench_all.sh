#!/usr/bin/env sh
# The standing sweep bench gate: a pinned parallel-sweep preset timed at
# several worker counts. Kernel micro benches are separate: run
# build/bench/bench_micro_core directly (docs/kernel.md).
#
#   ./tools/bench_all.sh [options]
#
#   --build-dir DIR     build tree with bench + tools binaries (default: build)
#   --out DIR           output directory (default: bench-out)
#   --preset NAME       aria_sweep preset to scale (default: table2-smoke)
#   --seeds N           seeds per preset row (default: 2)
#   --workers-list "W.."  worker counts for the scaling curve (default: "1 2 4 8")
#   --baseline FILE     previous BENCH_sweep_scaling.json; gate wall-clock
#                       against it
#   --max-regress PCT   fail when current wall exceeds baseline by more than
#                       PCT percent (default: 10)
#   --quick             CI smoke profile: quick preset, 1 seed, workers "1 2"
#   --gate-only CURRENT BASELINE
#                       run only the regression check between two scaling JSONs
#
# Emits $OUT/BENCH_sweep_scaling.json (the 1/2/4/..-worker wall-clock
# curve; its machine block is measured, never typed). Independently of timing, the
# merged sweep reports of every worker count are byte-compared — a
# worker-count-dependent report fails the gate even when it is fast. See
# docs/sweep.md.
set -eu

BUILD_DIR="build"
OUT="bench-out"
PRESET="table2-smoke"
SEEDS=2
WORKERS_LIST="1 2 4 8"
BASELINE=""
MAX_REGRESS=10
GATE_CURRENT=""
GATE_BASELINE=""

while [ $# -gt 0 ]; do
  case "$1" in
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --out) OUT="$2"; shift 2 ;;
    --preset) PRESET="$2"; shift 2 ;;
    --seeds) SEEDS="$2"; shift 2 ;;
    --workers-list) WORKERS_LIST="$2"; shift 2 ;;
    --baseline) BASELINE="$2"; shift 2 ;;
    --max-regress) MAX_REGRESS="$2"; shift 2 ;;
    --quick)
      PRESET="quick"; SEEDS=1; WORKERS_LIST="1 2"; shift ;;
    --gate-only)
      [ $# -ge 3 ] || { echo "error: --gate-only CURRENT BASELINE" >&2; exit 2; }
      GATE_CURRENT="$2"; GATE_BASELINE="$3"; shift 3 ;;
    *) echo "error: unknown option $1" >&2; exit 2 ;;
  esac
done

gate() {
  # gate CURRENT BASELINE MAX_REGRESS_PCT: compare wall-clock per worker count.
  python3 - "$1" "$2" "$3" <<'EOF'
import json, sys
current = json.load(open(sys.argv[1]))
baseline = json.load(open(sys.argv[2]))
limit = float(sys.argv[3])
base_by_workers = {e["workers"]: e for e in baseline["workers"]}
failed = False
for entry in current["workers"]:
    base = base_by_workers.get(entry["workers"])
    if base is None:
        continue
    regress = 100.0 * (entry["wall_ms"] - base["wall_ms"]) / base["wall_ms"]
    verdict = "FAIL" if regress > limit else "ok"
    if regress > limit:
        failed = True
    print(f"  gate[{entry['workers']}w]: {base['wall_ms']} -> "
          f"{entry['wall_ms']} ms ({regress:+.1f}%, limit +{limit:.0f}%) {verdict}")
print("bench gate:", "FAILED" if failed else "passed")
sys.exit(1 if failed else 0)
EOF
}

if [ -n "$GATE_CURRENT" ]; then
  gate "$GATE_CURRENT" "$GATE_BASELINE" "$MAX_REGRESS"
  exit $?
fi

SWEEP="$BUILD_DIR/tools/aria_sweep"
if [ ! -x "$SWEEP" ]; then
  echo "error: $SWEEP not found -- build the tools first" >&2
  exit 1
fi

mkdir -p "$OUT"

echo "== sweep scaling: preset $PRESET, $SEEDS seed(s), workers: $WORKERS_LIST =="
TIMINGS=""
FIRST_DIR=""
for W in $WORKERS_LIST; do
  DIR="$OUT/sweep-w$W"
  rm -rf "$DIR"
  start=$(date +%s%N)
  "$SWEEP" --preset "$PRESET" --seeds "$SEEDS" --workers "$W" \
    --out "$DIR" --quiet 2>/dev/null
  end=$(date +%s%N)
  ms=$(( (end - start) / 1000000 ))
  echo "  $W worker(s): $ms ms"
  TIMINGS="$TIMINGS $W:$ms"
  if [ -z "$FIRST_DIR" ]; then
    FIRST_DIR="$DIR"
  else
    # Determinism gate: merged reports must not depend on the worker count.
    for f in summary.json summary.csv runs.csv; do
      cmp -s "$FIRST_DIR/$f" "$DIR/$f" || {
        echo "error: $DIR/$f differs from $FIRST_DIR/$f -- merged reports" \
             "must be byte-identical for every worker count" >&2
        exit 1
      }
    done
  fi
done
echo "  merged reports byte-identical across worker counts: OK"

RUNS=$(( $(wc -l < "$FIRST_DIR/runs.csv") - 1 ))
python3 - "$OUT/BENCH_sweep_scaling.json" "$PRESET" "$SEEDS" "$RUNS" $TIMINGS <<'EOF'
import datetime, json, os, sys
out, preset, seeds, runs = sys.argv[1:5]
entries = []
for pair in sys.argv[5:]:
    workers, ms = pair.split(":")
    entries.append({"workers": int(workers), "wall_ms": int(ms)})
base = entries[0]["wall_ms"]
for e in entries:
    e["speedup_vs_1w"] = round(base / e["wall_ms"], 2) if e["wall_ms"] else None
cpu = ""
try:
    for line in open("/proc/cpuinfo"):
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
except OSError:
    pass
doc = {
    "schema": "aria-sweep-scaling-v1",
    "captured_utc": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
    "machine": {"cpus": os.cpu_count(), "cpu_model": cpu},
    "preset": preset,
    "seeds": int(seeds),
    "runs": int(runs),
    "workers": entries,
}
json.dump(doc, open(out, "w"), indent=2)
open(out, "a").write("\n")
print(f"scaling curve written to {out}")
EOF

if [ -n "$BASELINE" ]; then
  echo "== regression gate vs $BASELINE (max +$MAX_REGRESS%) =="
  gate "$OUT/BENCH_sweep_scaling.json" "$BASELINE" "$MAX_REGRESS"
fi
