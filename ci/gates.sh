#!/usr/bin/env bash
# The end-to-end gates of a release `tf-cli`: detection verdicts, byte
# identity across reruns, resumes and the process boundary, chaos
# robustness, the coordinator, and closed output pipes.
#
#   cargo build --release -p tf-cli && ci/gates.sh target/release/tf-cli
#
# Every run happens in ci/work/ (git-ignored), which is emptied first.
# The first failing command fails the script and names its line.
set -eEuo pipefail

CLI=$(realpath "$1")
cd "$(dirname "$0")"
rm -rf work
mkdir work
cd work
trap 'echo "gates: failed at line $LINENO: $BASH_COMMAND" >&2' ERR

MUTANTS=(b2 imm fflags csrmask btrunc ldsext)

# expect ARGS...: the exit status of `fuzz ARGS` (its `--expect`) is the
# verdict.
expect() {
    "$CLI" fuzz "$@"
}

# refused ARGS...: `fuzz ARGS` must fail.
refused() {
    if "$CLI" fuzz "$@"; then
        echo "gates: tf-cli fuzz $* was not refused" >&2
        return 1
    fi
}

# same A B [SUFFIX...] -- ARGS-A... -- ARGS-B...: `fuzz ARGS-A` prints
# A.out and `fuzz ARGS-B` prints B.out. Both stdouts must be
# byte-identical, and so must A.SUFFIX and B.SUFFIX for each SUFFIX.
same() {
    local a=$1 b=$2 suffixes=() first=()
    shift 2
    while [ "$1" != -- ]; do
        suffixes+=("$1")
        shift
    done
    shift
    while [ "$1" != -- ]; do
        first+=("$1")
        shift
    done
    shift
    "$CLI" fuzz "${first[@]}" > "$a.out"
    "$CLI" fuzz "$@" > "$b.out"
    cmp "$a.out" "$b.out"
    for suffix in "${suffixes[@]}"; do
        cmp "$a.$suffix" "$b.$suffix"
    done
}

# resumed NAME FULL HALF ARGS...: `fuzz ARGS` over FULL instructions
# against a HALF-instruction run resumed from its corpus file to FULL.
# Stdout minus its `throughput:` line and the saved corpus must be
# byte-identical.
resumed() {
    local name=$1 full=$2 half=$3
    shift 3
    "$CLI" fuzz "$@" --steps "$full" --corpus "$name-full.tfc" > "$name-full.out"
    "$CLI" fuzz "$@" --steps "$half" --corpus "$name-half.tfc" > /dev/null
    "$CLI" fuzz "$@" --steps "$full" --corpus "$name-half.tfc" --resume > "$name-resumed.out"
    grep -v throughput: "$name-full.out" > "$name-full.flt"
    grep -v throughput: "$name-resumed.out" > "$name-resumed.flt"
    cmp "$name-full.flt" "$name-resumed.flt"
    cmp "$name-full.tfc" "$name-half.tfc"
}

# twin NAME ARGS...: `fuzz ARGS --corpus NAME.tfc` once in NAME-a/ and
# once in NAME-b/, so the logged corpus path is the same. Stdout minus
# its `throughput:` line, stderr and the saved corpus must be
# byte-identical.
twin() {
    local name=$1 run
    shift
    for run in "$name-a" "$name-b"; do
        mkdir "$run"
        (cd "$run" && "$CLI" fuzz "$@" --corpus "$name.tfc" > "$name.out" 2> "$name.err")
        grep -v throughput: "$run/$name.out" > "$run.flt"
    done
    cmp "$name-a.flt" "$name-b.flt"
    cmp "$name-a/$name.err" "$name-b/$name.err"
    cmp "$name-a/$name.tfc" "$name-b/$name.tfc"
}

# Detection: every planted scenario is found, in process and sharded,
# and the golden hart stays clean.
expect --seed 1 --steps 1000 --mutant b2 --expect divergence
for m in imm fflags csrmask btrunc ldsext; do
    expect --seed 1 --steps 3000 --mutant "$m" --expect divergence
done
expect --seed 1 --steps 10000 --expect clean
for m in "${MUTANTS[@]}"; do
    expect --seed 1 --steps 12000 --jobs 4 --mutant "$m" --expect divergence
done
expect --seed 1 --steps 12000 --jobs 4 --expect clean

# Interrupted and resumed equals uninterrupted, under every schedule.
# explore moves a seed's energy on almost every draw, so its 40k
# instructions (~1,000 seeds) drive the energy index's update path.
resumed uniform 6000 3000 --seed 7 --len 24
resumed fast 6000 3000 --seed 7 --len 24 --schedule fast
"$CLI" corpus info fast-full.tfc > /dev/null
resumed explore 40000 20000 --seed 7 --schedule explore

# Corpus verbs over two runs, then campaigns seeded from the merge.
"$CLI" fuzz --seed 1 --steps 2000 --corpus run-a.tfc
"$CLI" fuzz --seed 2 --steps 2000 --corpus run-b.tfc
"$CLI" corpus merge merged.tfc run-a.tfc run-b.tfc
"$CLI" corpus info merged.tfc
"$CLI" corpus minimize merged.tfc --out minimized.tfc
"$CLI" corpus info minimized.tfc
expect --seed 3 --steps 2000 --corpus merged.tfc --expect clean
expect --seed 4 --steps 4000 --jobs 2 --corpus merged.tfc --expect clean

# Over the wire (one run frame per program, plus one replay frame when
# its run mismatches), every mutant prints the bytes it prints in
# process. A device that refuses every program the reference loads
# diverges at step 0 rather than running nothing.
for m in "${MUTANTS[@]}"; do
    same "inproc-$m" "remote-$m" \
        -- --seed 1 --steps 3000 --mutant "$m" --corpus "inproc-$m.tfc" --expect divergence \
        -- --seed 1 --steps 3000 --dut "cmd:$CLI serve --mutant $m" \
        --corpus "remote-$m.tfc" --expect divergence
done
expect --seed 1 --steps 5000 --dut "cmd:$CLI serve" --expect clean
expect --seed 1 --steps 3000 --dut "cmd:$CLI serve --mem 64" --expect divergence

# Chaos: a crash, a hang past the supervisor deadline and a garbled
# answer, each fired at a program's run frame, are found and survived;
# crashes rerun and resume exactly.
crash=(--seed 2 --steps 3000 --dut "cmd:$CLI serve --chaos-crash-after 2" --expect crash)
same crash-1 crash-2 -- "${crash[@]}" -- "${crash[@]}"
grep -q "dut crash" crash-1.out
expect --seed 2 --steps 2000 --dut "cmd:$CLI serve --chaos-hang-after 1" --expect hang > hang.out
grep -q "dut hang" hang.out
expect --seed 2 --steps 2000 --dut "cmd:$CLI serve --chaos-garble-after 1" > garble.out
grep -q "dut desync" garble.out
resumed chaos 6000 3000 --seed 2 --dut "cmd:$CLI serve --chaos-crash-after 3"
grep -q "dut crash" chaos-full.out

# The coordinator: reruns are identical at jobs 1, 4, and 3 (whose
# workers finish in different rounds), live stats stream to stderr.
same coord-a coord-b tfc \
    -- --seed 11 --steps 6000 --corpus coord-a.tfc \
    -- --seed 11 --steps 6000 --corpus coord-b.tfc
twin det --seed 11 --steps 12000 --jobs 4 --stats-every 1
grep -q "stats: batch" det-a/det.err
grep -q "foreign" det-a/det.err
twin sit --seed 5 --jobs 3 --steps 6145 --stats-every 1

# Kill and resume: SIGKILL an unbounded campaign once its first atomic
# autosave lands; resuming that autosave must print the bytes, and save
# the file, of an uninterrupted run at the same budget and cadence.
"$CLI" fuzz --seed 12 --steps 50000000 --corpus killed.tfc --autosave-every 1 &
campaign=$!
for _ in $(seq 1 600); do
    [ -f killed.tfc ] && break
    sleep 0.1
done
kill -9 "$campaign" || true
wait "$campaign" || true
test -f killed.tfc
"$CLI" corpus info killed.tfc
same killed fresh tfc \
    -- --seed 12 --steps 1000000 --corpus killed.tfc --autosave-every 1 --resume \
    -- --seed 12 --steps 1000000 --corpus fresh.tfc --autosave-every 1

# jobs 4 resumes exactly from a round boundary (three whole
# 1024-instruction rounds per worker), and refuses a mid-round stop.
resumed jobs4 24576 12288 --seed 7 --schedule fast --jobs 4
"$CLI" fuzz --seed 7 --schedule fast --jobs 4 --steps 12000 --corpus jobs4-mid.tfc > /dev/null
refused --seed 7 --schedule fast --jobs 4 --steps 24000 --corpus jobs4-mid.tfc --resume

# A reader that closes stderr after one line costs neither the campaign
# nor its exit status.
expect --seed 1 --steps 200000 --stats-every 1 --corpus closed.tfc 2>&1 > /dev/null | head -1
"$CLI" corpus info closed.tfc > closed.info
grep -q "checkpoint: [0-9]* instructions" closed.info

echo "gates: all passed"
