#!/usr/bin/env bash
# check_openmetrics.sh — lint Metrics::ToOpenMetrics() output (PR 9).
#
# Feeds ariesh a short scripted workload ending in `.metrics` (or reads a
# file passed as $1) and checks the exposition's structural invariants:
#   * ends with a single terminal "# EOF" line
#   * every sample line belongs to a family announced by a "# TYPE" line,
#     and every family has a "# HELP" line
#   * counter families expose exactly one sample, suffixed "_total"
#   * gauge families expose exactly one unsuffixed sample
#   * histogram families expose _bucket series with strictly increasing
#     "le" values, non-decreasing cumulative counts, a "+Inf" bucket whose
#     value equals _count, plus _sum and _count
#
# Usage:
#   tools/check_openmetrics.sh                  # builds input via ariesh
#   tools/check_openmetrics.sh exposition.txt   # lint an existing dump
#   ARIESH=path tools/check_openmetrics.sh      # explicit binary location
set -u

cd "$(dirname "$0")/.."

INPUT=""
if [ $# -ge 1 ] && [ -f "$1" ]; then
  INPUT="$1"
else
  SHELL_BIN="${ARIESH:-build/examples/ariesh}"
  if [ ! -x "$SHELL_BIN" ]; then
    echo "check_openmetrics: $SHELL_BIN not built (cmake --build build)" >&2
    exit 1
  fi
  INPUT=$(mktemp /tmp/openmetrics.XXXXXX)
  DB_DIR=$(mktemp -d /tmp/openmetrics_db.XXXXXX)
  trap 'rm -rf "$INPUT" "$INPUT.raw" "$DB_DIR"' EXIT
  # A few committed transactions through a table + index so the commit
  # breakdown, WAL, lock and latch families all have observations. The
  # shell prints its prompt before each command; strip the prompts and keep
  # the exposition, "# TYPE" through "# EOF".
  SCRIPT="create table t 2
create index t_k on t 0 unique"
  for i in $(seq 1 20); do SCRIPT="$SCRIPT
insert t k$i v"; done
  SCRIPT="$SCRIPT
get t t_k k7
.metrics
quit"
  if ! printf '%s\n' "$SCRIPT" | "$SHELL_BIN" "$DB_DIR" > "$INPUT.raw"; then
    echo "check_openmetrics: ariesh session failed" >&2
    exit 1
  fi
  sed -e 's/^\(\(aries\|txn\)> \)*//' "$INPUT.raw" |
    sed -n '/^# TYPE /,/^# EOF$/p' > "$INPUT"
fi

awk '
function fail(msg) { printf("FAIL line %d: %s\n", NR, msg); bad = 1 }

# --- comment lines -----------------------------------------------------------
/^# EOF$/ { saw_eof = 1; eof_line = NR; next }
/^# TYPE / {
  if (NF != 4) fail("malformed TYPE line")
  fam = $3; type[fam] = $4
  if ($4 != "counter" && $4 != "gauge" && $4 != "histogram")
    fail("unknown type " $4)
  next
}
/^# HELP / { help[$3] = 1; next }
/^# UNIT / { unit[$3] = 1; next }
/^#/ { fail("unrecognized comment line: " $0); next }

# --- sample lines ------------------------------------------------------------
{
  if (saw_eof) fail("sample after # EOF")
  name = $1; value = $2
  sub(/\{.*/, "", name)          # strip the label set for family lookup
  base = name
  sub(/_total$/, "", base)
  sub(/_bucket$/, "", base)
  sub(/_sum$/, "", base)
  sub(/_count$/, "", base)
  if (!(base in type)) { fail("sample for unannounced family: " $1); next }
  t = type[base]
  samples[base]++
  if (t == "counter") {
    if (name != base "_total") fail("counter sample must end _total: " $1)
    if (value + 0 < 0) fail("negative counter " $1)
  } else if (t == "gauge") {
    if (name != base) fail("gauge sample must be unsuffixed: " $1)
  } else if (t == "histogram") {
    if (name == base "_bucket") {
      le = $1
      sub(/.*le="/, "", le); sub(/".*/, "", le)
      if (le == "+Inf") {
        inf[base] = value + 0
        saw_inf[base] = 1
      } else {
        if (saw_inf[base]) fail("bucket after +Inf in " base)
        if (prev_le_set[base] && le + 0 <= prev_le[base])
          fail("le not strictly increasing in " base ": " le)
        if (prev_cnt_set[base] && value + 0 < prev_cnt[base])
          fail("cumulative bucket count decreased in " base)
        prev_le[base] = le + 0; prev_le_set[base] = 1
        prev_cnt[base] = value + 0; prev_cnt_set[base] = 1
      }
    } else if (name == base "_sum") {
      saw_sum[base] = 1
      if (value + 0 < 0) fail("negative _sum for " base)
    } else if (name == base "_count") {
      cnt[base] = value + 0
      saw_cnt[base] = 1
    } else {
      fail("unexpected histogram sample " $1)
    }
  }
}

END {
  if (!saw_eof) { printf("FAIL: missing terminal # EOF\n"); bad = 1 }
  for (fam in type) {
    if (!(fam in help)) { printf("FAIL: family %s has no HELP\n", fam); bad = 1 }
    if (!(fam in samples)) { printf("FAIL: family %s has no samples\n", fam); bad = 1 }
    if (type[fam] == "histogram") {
      if (!saw_inf[fam]) { printf("FAIL: %s has no +Inf bucket\n", fam); bad = 1 }
      if (!saw_sum[fam]) { printf("FAIL: %s has no _sum\n", fam); bad = 1 }
      if (!saw_cnt[fam]) { printf("FAIL: %s has no _count\n", fam); bad = 1 }
      if (saw_inf[fam] && saw_cnt[fam] && inf[fam] != cnt[fam]) {
        printf("FAIL: %s +Inf bucket (%d) != _count (%d)\n", fam, inf[fam], cnt[fam]); bad = 1
      }
      if (prev_cnt_set[fam] && saw_inf[fam] && prev_cnt[fam] > inf[fam]) {
        printf("FAIL: %s last finite bucket exceeds +Inf\n", fam); bad = 1
      }
      if (!(fam in unit)) { printf("FAIL: histogram %s has no UNIT\n", fam); bad = 1 }
    }
    fams++
  }
  if (fams == 0) { printf("FAIL: no families found\n"); bad = 1 }
  if (bad) exit 1
  printf("check_openmetrics: OK (%d families)\n", fams)
}
' "$INPUT"
exit $?
