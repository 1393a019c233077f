#!/usr/bin/env sh
# Rust line counts per crate: sources under src/, integration tests
# under tests/, everything else (benches/) as "other", and the crate
# total; the last row sums every crate. Run from the repository root.
set -eu

lines() {
    if [ -d "$1" ]; then
        find "$1" -name '*.rs' -exec cat {} + | wc -l
    else
        echo 0
    fi
}

row() {
    printf '%-12s %8s %8s %8s %8s\n' "$1" "$2" "$3" "$4" "$5"
}

row crate src tests other total
src_sum=0
tests_sum=0
all_sum=0
for dir in crates/*/; do
    name=$(basename "$dir")
    src=$(($(lines "${dir}src")))
    tests=$(($(lines "${dir}tests")))
    all=$(($(lines "$dir")))
    row "$name" "$src" "$tests" $((all - src - tests)) "$all"
    src_sum=$((src_sum + src))
    tests_sum=$((tests_sum + tests))
    all_sum=$((all_sum + all))
done
row total "$src_sum" "$tests_sum" $((all_sum - src_sum - tests_sum)) "$all_sum"
