#!/bin/sh
# persist-smoke: durable-cache end-to-end gate (make persist-smoke).
#
# Runs the real qualcheck binary twice against the same -cache-dir over a
# generated corpus and asserts the durability contract:
#
#   1. Run 2 is served (almost) entirely from the disk cache — every
#      function a disk hit, zero re-walks — with byte-identical diagnostics
#      to run 1.
#   2. A deliberately corrupted record is detected on the next cold start,
#      evicted, and re-proved: diagnostics still byte-identical, corrupt
#      eviction counted, never a wrong or missing verdict.
set -eu

N=${PERSIST_SMOKE_FILES:-120}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/qualcheck" ./cmd/qualcheck
go run ./cmd/gentree -o "$tmp/corpus" -n "$N" -seed 1 >/dev/null

# run <outfile>: qualcheck -r with the shared cache dir; -cache-stats lines
# land in the stats file, diagnostics in the out file. Exit 1 (warnings) is
# the expected verdict on this corpus; >=2 is a real failure.
run() {
	rc=0
	"$tmp/qualcheck" -r "$tmp/corpus" -cache-dir "$tmp/cache" -cache-stats >"$tmp/raw" 2>"$tmp/err" || rc=$?
	if [ "$rc" -gt 1 ]; then
		echo "persist-smoke: qualcheck failed (exit $rc):" >&2
		cat "$tmp/err" >&2
		exit 1
	fi
	grep -v '^function cache (memory):\|^disk cache:\|^'"$tmp"'/corpus:' "$tmp/raw" >"$1" || true
	grep '^disk cache:' "$tmp/raw"
}

stats1=$(run "$tmp/out1.txt")
stats2=$(run "$tmp/out2.txt")

if ! cmp -s "$tmp/out1.txt" "$tmp/out2.txt"; then
	echo "persist-smoke: FAIL: cold and disk-warm diagnostics differ:" >&2
	diff "$tmp/out1.txt" "$tmp/out2.txt" | head -20 >&2
	exit 1
fi

# Run 1 must have written records; run 2 must have read them back with no
# misses (every function served from disk) and no corruption.
puts1=$(echo "$stats1" | sed -n 's/.* \([0-9]*\) puts.*/\1/p')
hits2=$(echo "$stats2" | sed -n 's/disk cache: \([0-9]*\) hits.*/\1/p')
misses2=$(echo "$stats2" | sed -n 's/.* \([0-9]*\) misses.*/\1/p')
if [ "${puts1:-0}" -eq 0 ]; then
	echo "persist-smoke: FAIL: run 1 persisted nothing ($stats1)" >&2
	exit 1
fi
if [ "${hits2:-0}" -eq 0 ] || [ "${misses2:-1}" -ne 0 ]; then
	echo "persist-smoke: FAIL: run 2 not fully disk-warm ($stats2)" >&2
	exit 1
fi

# Corrupt one committed record (truncate to half), then prove the next cold
# start self-heals: the record is evicted and re-proved, diagnostics
# byte-identical to the clean runs.
victim=$(ls "$tmp/cache/func/"*.qc | head -1)
size=$(wc -c <"$victim")
truncate_to=$((size / 2))
dd if="$victim" of="$victim.cut" bs=1 count="$truncate_to" 2>/dev/null
mv "$victim.cut" "$victim"

stats3=$(run "$tmp/out3.txt")
if ! cmp -s "$tmp/out1.txt" "$tmp/out3.txt"; then
	echo "persist-smoke: FAIL: post-corruption diagnostics differ:" >&2
	diff "$tmp/out1.txt" "$tmp/out3.txt" | head -20 >&2
	exit 1
fi
corrupt3=$(echo "$stats3" | sed -n 's/.* \([0-9]*\) corrupt evicted.*/\1/p')
if [ "${corrupt3:-0}" -eq 0 ]; then
	echo "persist-smoke: FAIL: corrupted record was not detected ($stats3)" >&2
	exit 1
fi

echo "persist-smoke: OK: $N files; run2 fully disk-warm ($stats2); corrupted record evicted and re-proved ($stats3)"
