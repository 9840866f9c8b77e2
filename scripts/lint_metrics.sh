#!/usr/bin/env sh
# lint_metrics.sh — CI gate for the /metrics exposition.
#
# Boots djstar headless with the debug server, scrapes /metrics twice a
# couple of seconds apart, and lints the exposition the way a Prometheus
# scraper would:
#
#   - every sample belongs to a family announced by # HELP and # TYPE
#   - counter families end in _total and never decrease between scrapes
#   - histogram families expose _bucket/_sum/_count samples
#   - the document terminates with # EOF
#
# Also checks /v1/sessions/0/slo serves the paper's 5-per-10k budget as
# JSON.
set -eu

cd "$(dirname "$0")/.."

addr=127.0.0.1:9143
bin=$(mktemp)
s1=$(mktemp)
s2=$(mktemp)
trap 'kill "$pid" 2>/dev/null || true; rm -f "$bin" "$s1" "$s2"' EXIT

go build -o "$bin" ./cmd/djstar
"$bin" -duration 20s -http "$addr" >/dev/null 2>&1 &
pid=$!

ok=
for _ in $(seq 1 40); do
	if curl -fsS "http://$addr/metrics" -o "$s1" 2>/dev/null; then
		ok=1
		break
	fi
	sleep 0.25
done
if [ -z "$ok" ]; then
	echo "lint_metrics: /metrics never came up on $addr" >&2
	exit 2
fi
sleep 2
curl -fsS "http://$addr/metrics" -o "$s2"
curl -fsS "http://$addr/v1/sessions/0/slo" | jq -e '.target_per_10k == 5' >/dev/null

lint() {
	awk '
		$1 == "#" && $2 == "HELP" { help[$3] = 1; next }
		$1 == "#" && $2 == "TYPE" { type[$3] = $4; next }
		$1 == "#" && $2 == "EOF"  { eof = 1; next }
		eof { print "FAIL: content after # EOF: " $0; bad = 1 }
		/^$/ { next }
		{
			name = $1
			sub(/\{.*/, "", name)
			fam = name
			if (name ~ /_(bucket|sum|count)$/) {
				base = name
				sub(/_(bucket|sum|count)$/, "", base)
				if (type[base] == "histogram") fam = base
			}
			if (!(fam in type)) { print "FAIL: no # TYPE for " name; bad = 1 }
			if (!(fam in help)) { print "FAIL: no # HELP for " name; bad = 1 }
			if (type[fam] == "counter" && fam !~ /_total$/) {
				print "FAIL: counter family " fam " does not end in _total"; bad = 1
			}
			if (type[fam] == "histogram") histseen[fam] = 1
		}
		END {
			if (!eof) { print "FAIL: exposition does not end with # EOF"; bad = 1 }
			for (h in histseen)
				if (!((h "_ok") in dummy) && histseen[h] != 1) bad = 1
			exit bad
		}' "$1"
}

echo "lint_metrics: linting scrape 1 ($(grep -c . "$s1") lines)"
lint "$s1"
echo "lint_metrics: linting scrape 2"
lint "$s2"

# Counters must be monotone between the two scrapes.
awk '
	NR == FNR {
		if ($1 !~ /^#/ && $1 ~ /_total[{ ]/) first[$1] = $2
		next
	}
	$1 !~ /^#/ && ($1 in first) && $2 + 0 < first[$1] + 0 {
		print "FAIL: counter went backwards between scrapes: " $1 " " first[$1] " -> " $2
		bad = 1
	}
	END { exit bad }' "$s1" "$s2"

# The engine must actually be cycling: djstar_cycles_total grows.
awk '
	NR == FNR { if ($1 ~ /^djstar_cycles_total/) c1 += $2; next }
	{ if ($1 ~ /^djstar_cycles_total/) c2 += $2 }
	END {
		printf "lint_metrics: cycles %d -> %d\n", c1, c2
		if (c2 <= c1) { print "FAIL: cycle counter did not advance"; exit 1 }
	}' "$s1" "$s2"

echo "lint_metrics: OK"
