#!/usr/bin/env bash
# Docs lint (wired into ctest as `docs_lint`): every observability name the
# code exports must be documented in OBSERVABILITY.md, every metric the
# catalogue documents must be registered by the code, and every binary the
# docs name must exist.
#
# Checked surfaces:
#   * metric names registered in src/ or bench/ — matched by their namespaced
#     quoted form ("smr.x", "ordering.x", "frontend.x", "consensus.x",
#     "sim.x", "runtime.x", "runner.x", "transport.x", "storage.x"), which
#     survives line-wrapped registry calls. Test-only fake names (tests/) are
#     deliberately out of scope. Each must equal the name of an
#     OBSERVABILITY.md catalogue row (a table row whose first cell is a
#     namespaced name in backticks), or start with the text before the first
#     `<placeholder>` of a pattern row: the prefix-registered
#     "transport.send_dropped_to_" matches the row
#     transport.send_dropped_to_<host>_<port>.
#   * the other direction: every catalogue row must name one of those
#     registered names. Pattern rows are skipped.
#   * the eight trace stage names from obs::trace_stage_name.
#   * every bench binary (`bench_x`, also the brace form `bench_{a,b}`) and
#     every example binary (`build/examples/x`) that README.md, DESIGN.md,
#     EXPERIMENTS.md or OBSERVABILITY.md names must be built by
#     bench/CMakeLists.txt or examples/CMakeLists.txt. Names with a file
#     extension (`bench_micro_crypto.py`, `bench_output.txt`) are files, not
#     binaries.
#
# Exits nonzero listing every undocumented name.
set -u

repo="$(cd "$(dirname "$0")/.." && pwd)"
doc="$repo/OBSERVABILITY.md"
fail=0

if [ ! -f "$doc" ]; then
  echo "docs_lint: $doc is missing"
  exit 1
fi

names="$(grep -rhoE '"(smr|ordering|frontend|consensus|sim|runtime|runner|transport|storage)\.[a-z0-9_]+"' \
  "$repo/src" "$repo/bench" | tr -d '"' | sort -u)"
if [ -z "$names" ]; then
  echo "docs_lint: found no registered metric names under src/ or bench/"
  exit 1
fi

rows="$(grep -oE '^\| `(smr|ordering|frontend|consensus|sim|runtime|runner|transport|storage)\.[^`]+`' \
  "$doc" | sed 's/^| `//; s/`$//' | sort -u)"
catalogued="$(echo "$rows" | grep -v '<')"
pattern_prefixes="$(echo "$rows" | grep '<' | sed 's/<.*//')"

checked=0
for name in $names; do
  checked=$((checked + 1))
  echo "$catalogued" | grep -qxF "$name" && continue
  documented=0
  for prefix in $pattern_prefixes; do
    case "$name" in "$prefix"*) documented=1 ;; esac
  done
  if [ "$documented" -eq 0 ]; then
    echo "docs_lint: metric '$name' is registered in code but has no OBSERVABILITY.md catalogue row"
    fail=1
  fi
done

catalogued_checked=0
for name in $catalogued; do
  catalogued_checked=$((catalogued_checked + 1))
  if ! echo "$names" | grep -qxF "$name"; then
    echo "docs_lint: OBSERVABILITY.md catalogues metric '$name', which nothing in src/ or bench/ registers"
    fail=1
  fi
done

for stage in submit propose write_quorum accept blockcut sign push frontend_accept; do
  if ! grep -qE "(^|[^a-z_])$stage([^a-z_]|$)" "$doc"; then
    echo "docs_lint: trace stage '$stage' missing from OBSERVABILITY.md"
    fail=1
  fi
done

docs="$repo/README.md $repo/DESIGN.md $repo/EXPERIMENTS.md $repo/OBSERVABILITY.md"
built="$(grep -hoE '(bft_add_bench|bft_add_example|add_executable)\([a-z0-9_]+' \
  "$repo/bench/CMakeLists.txt" "$repo/examples/CMakeLists.txt" | sed 's/.*(//' | sort -u)"
# shellcheck disable=SC2086  # $docs is a list of paths without spaces
binaries="$( {
  grep -hoE '\bbench_[a-z0-9_]*(\{[a-z0-9_,]+\}|[a-z0-9_])(\.[a-z]+)?' $docs |
    grep -vE '\.[a-z]+$' |
    while read -r ref; do
      case "$ref" in
        *'{'*)
          prefix="${ref%%\{*}"
          alternatives="${ref#*\{}"
          for alt in $(echo "${alternatives%\}}" | tr ',' ' '); do
            echo "$prefix$alt"
          done ;;
        *) echo "$ref" ;;
      esac
    done
  grep -hoE 'build/examples/[a-z0-9_]+(\.[a-z]+)?' $docs |
    grep -vE '\.[a-z]+$' | sed 's|.*/||'
} | sort -u)"
binaries_checked=0
for binary in $binaries; do
  binaries_checked=$((binaries_checked + 1))
  if ! echo "$built" | grep -qxF "$binary"; then
    echo "docs_lint: the docs name '$binary', which bench/ and examples/ do not build"
    fail=1
  fi
done

if [ "$fail" -eq 0 ]; then
  echo "docs_lint: $checked metric names + 8 trace stages documented;" \
    "$catalogued_checked catalogued names registered;" \
    "$binaries_checked named binaries are built"
fi
exit "$fail"
