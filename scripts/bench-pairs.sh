#!/usr/bin/env bash
# The pairing rule for a performance claim, as a script:
#
#   scripts/bench-pairs.sh <workload> <first-seed> <pairs> <parent-checkout> <change-checkout>
#
# runs `bash benchmark/run.sh --workload W --seed S --seconds 30 --trace 0`
# once in each checkout for seeds first-seed .. first-seed+pairs-1,
# alternating which side goes first, keeps every result line in
# $PAIRS_OUT (default bench-out/pairs), and prints, per end-to-end metric of
# BENCHMARK.json: each side's median and quartiles, in how many pairs the
# change read better (ties count for neither), and whether the medians are
# further apart than the parent's own runs spread (its interquartile
# distance). A gain is claimed on wins >= 9/10 of the pairs AND "beyond
# parent IQR"; everything else is "no change shown".
#
#   scripts/bench-pairs.sh --summary <file>...
#
# prints the same table for result files kept by earlier runs (pairs made in
# several sittings add up). Only the result line BENCHMARK.json describes is
# read: the last line of the run's standard output.
set -eu

here=$(cd "$(dirname "$0")/.." && pwd)
spec="$here/BENCHMARK.json"

# metrics prints "name better" for every end-to-end metric of BENCHMARK.json.
metrics() {
  awk '
    /"end_to_end"/ { on = 1; next }
    on && /^  \]/  { exit }
    on && /"name"/   { gsub(/[",]/, ""); name = $2 }
    on && /"better"/ { gsub(/[",]/, ""); print name, $2 }
  ' "$spec"
}

# values <metric> turns "seed result-line" rows on standard input into
# "seed value" rows for one metric.
values() {
  sed -n "s/^\\([0-9]*\\) .*\"$1\":{\"value\":\\([-+0-9.eE]*\\).*/\\1 \\2/p"
}

# quartiles prints "q1 median q3" of the numbers on standard input (linear
# interpolation between order statistics).
quartiles() {
  sort -g | awk '
    { v[NR] = $1 }
    function q(p,   h, lo) {
      h = (NR - 1) * p + 1; lo = int(h)
      if (lo >= NR) return v[NR]
      return v[lo] + (h - lo) * (v[lo + 1] - v[lo])
    }
    END { if (NR) printf "%.4g %.4g %.4g\n", q(0.25), q(0.5), q(0.75) }'
}

# summary prints the table for result files of "side seed line" rows.
summary() {
  cat "$@" | awk '$1 == "parent" || $1 == "change"' > "$tmp/rows"
  pairs=$(awk '$1 == "parent"' "$tmp/rows" | wc -l)
  bad=$(grep -c -v '"correct":true,"attempted":[0-9]*,"failed":0,' "$tmp/rows" || true)
  printf '%d pairs; %d runs incorrect or with failed calls\n' "$pairs" "$bad"
  printf '%-16s %-30s %-30s %-7s %s\n' metric 'parent median [q1 q3]' 'change median [q1 q3]' wins verdict
  metrics | while read -r name better; do
    for side in parent change; do
      awk -v s="$side" '$1 == s { print $2, $3 }' "$tmp/rows" | values "$name" | sort -n > "$tmp/$side"
    done
    read -r pq1 pmed pq3 < <(cut -d' ' -f2 "$tmp/parent" | quartiles)
    read -r cq1 cmed cq3 < <(cut -d' ' -f2 "$tmp/change" | quartiles)
    join "$tmp/parent" "$tmp/change" | awk -v better="$better" -v name="$name" \
      -v pmed="$pmed" -v pq1="$pq1" -v pq3="$pq3" -v cmed="$cmed" -v cq1="$cq1" -v cq3="$cq3" '
      { if (better == "lower" ? $3 < $2 : $3 > $2) wins++; n++ }
      END {
        gain = better == "lower" ? pmed - cmed : cmed - pmed
        iqr = pq3 - pq1
        verdict = gain > iqr ? "better, beyond parent IQR" : (gain < -iqr ? "WORSE, beyond parent IQR" : "within parent IQR")
        printf "%-16s %-30s %-30s %-7s %s (%+.1f%%)\n", name,
          sprintf("%s [%s %s]", pmed, pq1, pq3), sprintf("%s [%s %s]", cmed, cq1, cq3),
          wins + 0 "/" n, verdict, pmed ? 100 * (cmed - pmed) / pmed : 0
      }'
  done
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

if [ "${1:-}" = "--summary" ]; then
  shift
  [ $# -ge 1 ] || { echo "usage: $0 --summary <file>..." >&2; exit 2; }
  summary "$@"
  exit 0
fi
[ $# -eq 5 ] || { echo "usage: $0 <workload> <first-seed> <pairs> <parent-checkout> <change-checkout>" >&2; exit 2; }
workload=$1 first=$2 pairs=$3 parent=$(cd "$4" && pwd) change=$(cd "$5" && pwd)
out=${PAIRS_OUT:-$here/bench-out/pairs}
mkdir -p "$out"
file="$out/${workload}_${first}_${pairs}.txt"
: > "$file"

# run <side> <checkout> <seed> appends "side seed result-line" to the file.
run() {
  line=$(cd "$2" && bash benchmark/run.sh --workload "$workload" --seed "$3" --seconds 30 --trace 0 | tail -n 1)
  case $line in
    '{"correct":'*) printf '%s %s %s\n' "$1" "$3" "$line" >> "$file" ;;
    *) echo "$1 seed $3: no result line (got: $line)" >&2; exit 1 ;;
  esac
  echo "$1 seed $3: $(printf '%s' "$line" | cut -c1-60)..." >&2
}

for i in $(seq 0 $((pairs - 1))); do
  seed=$((first + i))
  if [ $((i % 2)) -eq 0 ]; then
    run parent "$parent" "$seed"; run change "$change" "$seed"
  else
    run change "$change" "$seed"; run parent "$parent" "$seed"
  fi
done
echo "$workload, seeds $first..$((first + pairs - 1)), results kept in $file"
summary "$file"
