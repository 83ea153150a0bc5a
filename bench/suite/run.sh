#!/usr/bin/env bash
# Build and run the repo benchmark (tqt_bench). Run from anywhere; it works
# in the checkout that contains it and writes only under .bench_build/.
#
#   run.sh --workload NAME --seed N [--seconds S] [--trace 0|1]
#       One run of one workload. Prints "<workload> <metric> <value> <unit>"
#       lines, then the result JSON as the last line; exits with the
#       benchmark's status.
#   run.sh --all [--seed N] [--seconds S] [--trace 0|1] [--repeat K]
#       Every workload, each in its own process (so setup_s and peak_rss_mb
#       belong to one workload), K times over.
#   run.sh --smoke [--bin PATH]
#       About two seconds per workload, untraced and traced; fails unless
#       every metric BENCHMARK.json names is printed and outputs are correct.
#
# --out DIR puts the per-run records (<workload>-seed<N>-trace<T>-<time>.json)
# somewhere other than .bench_build/results; traced runs also leave a
# chrome://tracing file beside theirs.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
workloads=(offline_w8a8 offline_w4a8_pc gateway_sweep tenants_hotswap)

mode="" workload="" seed=1 seconds=10 trace=0 repeat=1 bin="" out="$root/.bench_build/results"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) mode=one; workload="$2"; shift 2 ;;
    --all) mode=all; shift ;;
    --smoke) mode=smoke; shift ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --repeat) repeat="$2"; shift 2 ;;
    --bin) bin="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
[[ -n "$mode" ]] || { echo "run.sh: give --workload NAME, --all or --smoke" >&2; exit 2; }

if [[ -z "$bin" ]]; then
  build="$root/.bench_build/suite"
  if [[ ! -f "$build/cmake_install.cmake" ]]; then  # written only by a successful configure
    generator=()
    command -v ninja >/dev/null && generator=(-G Ninja)
    cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
  fi
  cmake --build "$build" --target tqt_bench -j 4 >&2
  bin="$build/tqt_bench"
fi
mkdir -p "$out"
# The checkout may not be a git repository; never look above it for one.
rev="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" \
       git -C "$root" describe --always --dirty --abbrev=12 2>/dev/null || echo unknown)"

run_one() {  # workload trace [extra args...]
  local w="$1" t="$2" stamp
  shift 2
  stamp="$(date +%s%N)"
  local args=(--workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t" --rev "$rev"
              --record "$out/$w-seed$seed-trace$t-$stamp.json")
  [[ "$t" == 1 ]] && args+=(--chrome "$out/$w-seed$seed-trace$t-$stamp.trace.json")
  (cd "$root" && "$bin" "${args[@]}" "$@")
}

case "$mode" in
  one) run_one "$workload" "$trace" ;;
  all)
    for ((k = 0; k < repeat; k++)); do
      for w in "${workloads[@]}"; do run_one "$w" "$trace"; done
    done ;;
  smoke)
    seconds=2
    status=0
    for w in "${workloads[@]}"; do
      for t in 0 1; do
        if ! result="$(run_one "$w" "$t" --smoke | tail -n 1)"; then
          echo "run.sh: $w trace=$t failed" >&2
          status=1
          continue
        fi
        python3 - "$root/BENCHMARK.json" "$w" "$t" "$result" <<'EOF' || status=1
import json, sys
spec, workload, trace, line = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4]
names = [m["name"] for m in json.load(open(spec))["end_to_end" if trace == "0" else "per_layer"]]
result = json.loads(line)
missing = [n for n in names if n not in result["metrics"]]
extra = [n for n in result["metrics"] if n not in names]
ok = result["correct"] and not missing and not extra
print(f"{workload} trace={trace}: {len(result['metrics'])} metrics, correct={result['correct']}"
      + (f", missing {missing}" if missing else "") + (f", unlisted {extra}" if extra else ""),
      file=sys.stderr)
sys.exit(0 if ok else 1)
EOF
      done
    done
    exit "$status" ;;
esac
