#!/usr/bin/env bash
# Net line counts of the working tree against a base revision, per area:
#
#   tools/net_lines.sh <base-rev>
#
# For src/, tests/, tools/ and docs (docs/ plus the *.md files at the
# root) it prints the lines added, removed and net, then the same counts
# for code lines only: blank lines and comment-only lines are left out
# (// and /* */ lines in C++ sources; # lines in shell, Python and CMake
# files). Docs have no code column. Untracked files (not ignored) count as
# added in full. Run from anywhere inside the checkout.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <base-rev>" >&2
  exit 2
fi
base=$1
cd "$(git rev-parse --show-toplevel)"
git rev-parse --verify --quiet "$base^{commit}" > /dev/null ||
  { echo "$0: unknown revision: $base" >&2; exit 2; }

# Reads "<sign> <path> <text>" lines; prints "added removed code_added
# code_removed".
count() {
  awk '
    function is_code(path, text,   t) {
      t = text
      sub(/^[ \t]+/, "", t)
      if (t == "") return 0
      if (path ~ /\.(h|hpp|cc|cpp)$/) return t !~ /^(\/\/|\/\*|\*)/
      if (path ~ /(\.sh|\.py|CMakeLists\.txt|\.cmake)$/) return t !~ /^#/
      return 1
    }
    {
      sign = substr($0, 1, 1)
      rest = substr($0, 3)
      path = rest; sub(/ .*/, "", path)
      text = substr(rest, length(path) + 2)
      code = is_code(path, text)
      if (sign == "+") { a++; ca += code } else { r++; cr += code }
    }
    END { printf "%d %d %d %d\n", a, r, ca, cr }'
}

# Changed lines of tracked files under the given pathspecs, then every line
# of untracked ones, as "<sign> <path> <text>".
changes() {
  git diff --no-color --no-ext-diff -U0 "$base" -- "$@" | awk '
    /^\+\+\+ / { path = substr($0, 5); sub(/^b\//, "", path); next }
    /^--- / { next }
    /^\+/ { print "+ " path " " substr($0, 2); next }
    /^-/ { print "- " path " " substr($0, 2) }'
  git ls-files --others --exclude-standard -z -- "$@" |
    while IFS= read -r -d '' f; do
      sed "s|^|+ $f |" "$f"
    done
}

printf '%-6s %8s %8s %8s %10s %10s %10s\n' area added removed net \
  code_added code_removed code_net
tot=(0 0 0 0)
for area in src tests tools docs; do
  if [[ $area == docs ]]; then
    specs=(docs ':(glob)*.md')
  else
    specs=("$area")
  fi
  read -r a r ca cr < <(changes "${specs[@]}" | count)
  tot=($((tot[0] + a)) $((tot[1] + r)) $((tot[2] + ca)) $((tot[3] + cr)))
  if [[ $area == docs ]]; then
    printf '%-6s %8d %8d %+8d %10s %10s %10s\n' "$area" "$a" "$r" \
      $((a - r)) - - -
  else
    printf '%-6s %8d %8d %+8d %10d %10d %+10d\n' "$area" "$a" "$r" \
      $((a - r)) "$ca" "$cr" $((ca - cr))
  fi
done
printf '%-6s %8d %8d %+8d\n' total "${tot[0]}" "${tot[1]}" \
  $((tot[0] - tot[1]))
