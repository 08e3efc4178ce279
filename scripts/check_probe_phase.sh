#!/usr/bin/env bash
# Checks that perfbench's host probe keeps its 64-byte phase across a change.
#
#   ./scripts/check_probe_phase.sh PARENT_BIN CHANGE_BIN [PARENT_SERVE CHANGE_SERVE]
#
# Each argument is an ips_perfbench binary (by default perfbench builds it
# at .bench_build/perfbench/ips_perfbench). The probe kernel's speed has a
# 64-byte period in its start address, and GNU ld places every object's
# cold and start-up code ahead of perfbench's own .text, so a change
# anywhere in src/ can move it and shift every host-normalised metric.
# Prints both `perfbench::HostProbeSeconds()` addresses from `nm -C` and
# exits 1 when they differ modulo 64 (2 on a usage error or a missing
# symbol).
#
# For each binary it also prints the slack in front of `main`, the first
# start-up function and so the first of perfbench's own code: the gap
# between the end of the last sized symbol before `main` (from `nm -n -S`)
# and `main` itself. `main` is 16-byte aligned, so the library's cold and
# start-up code may grow by up to the gap, or shrink by up to 15 minus the
# gap, before perfbench's code moves by 16 bytes.
#
# The library's hot functions have a 64-byte phase of their own, which moves
# whenever an object linked ahead of them changes size. For information the
# script also lists, for ips_perfbench and (when given) the ips_serve
# binaries PARENT_SERVE and CHANGE_SERVE (perfbench builds them at
# .bench_build/perfbench/ips/serve/ips_serve), each hot function's address
# modulo 64 in parent and change, once per SIMD backend where the function
# is a kernel template, and marks the ones whose phase moved. That report
# never changes the exit status.

set -euo pipefail

if [[ $# -ne 2 && $# -ne 4 ]]; then
  echo "usage: $0 PARENT_BIN CHANGE_BIN [PARENT_SERVE CHANGE_SERVE]" >&2
  exit 2
fi

# The library functions whose speed the benchmark follows: the SIMD
# kernels of the join and the transform, the transform row and the SVM.
HOT_FUNCTIONS="SlidingDotsBlockT ZNormMinT StompRowDistancesT StompRowMinsT QtRowAdvanceT StompRowFusedZNormT SlidingMinGroupEntryT TransformOne TrainBinary"

probe_address() {
  local addr
  addr=$(nm -C "$1" | awk '!found && / perfbench::HostProbeSeconds\(\)$/ { print $1; found = 1 }')
  if [[ -z "$addr" ]]; then
    echo "no perfbench::HostProbeSeconds() in $1" >&2
    exit 2
  fi
  echo "$addr"
}

# "  main 0x...; the symbol before it ends at 0x...: gap N bytes".
main_slack() {
  local before main
  # Whole-input awk programs: an early exit would fail the pipe under
  # pipefail when nm is still writing.
  before=$(nm -n -S "$1" | awk 'NF == 4 && $4 == "main" { done = 1 } !done && NF == 4 { last = $0 } END { print last }')
  main=$(nm -n -S "$1" | awk '!main && NF == 4 && $4 == "main" { main = $1 } END { print main }')
  if [[ -z "$main" || -z "$before" ]]; then
    echo "  no sized symbol before main in $1"
    return
  fi
  local end=$((16#${before%% *} + 16#$(echo "$before" | awk '{ print $2 }')))
  local gap=$((16#$main - end))
  printf '  main 0x%x; the symbol before it ends at 0x%x: gap %d bytes (grow <= %d, shrink <= %d)\n' \
    $((16#$main)) "$end" "$gap" "$gap" $((gap < 15 ? 15 - gap : 0))
}

# "LABEL ADDRESS" per hot function of a binary; a kernel template's label
# names its backend (its first template argument), e.g. ZNormMinT<Avx512Ops>.
# Cold clones are skipped.
hot_symbols() {
  nm -C "$1" | awk -v hot="$HOT_FUNCTIONS" '
    BEGIN { n = split(hot, names, " ") }
    ($2 == "t" || $2 == "T" || $2 == "W" || $2 == "w") && !/\[clone/ {
      name = substr($0, index($0, $3))
      for (k = 1; k <= n; ++k) {
        h = names[k]
        at = index(name, "::" h "<")
        if (at == 0) at = index(name, "::" h "(")
        if (at == 0) continue
        label = h
        if (index(name, "::" h "<") != 0) {
          ops = substr(name, at + length(h) + 3)
          sub(/>.*/, "", ops)
          sub(/,.*/, "", ops)
          sub(/.*::/, "", ops)
          label = h "<" ops ">"
        }
        print label, $1
      }
    }' | sort
}

# Prints each hot function's phase in both binaries, marking moves.
hot_report() {
  echo "hot functions, address mod 64 (parent -> change): $1 vs $2"
  join -a 1 -a 2 -e none -o 0,1.2,2.2 <(hot_symbols "$1") <(hot_symbols "$2") |
    while read -r label before after; do
      local p="  -" c="  -" mark=""
      [[ $before != none ]] && p=$(printf '0x%02x' $((16#$before % 64)))
      [[ $after != none ]] && c=$(printf '0x%02x' $((16#$after % 64)))
      [[ $p != "$c" ]] && mark="  moved"
      printf '  %-34s %s -> %s%s\n' "$label" "$p" "$c" "$mark"
    done
}

parent=$(probe_address "$1")
change=$(probe_address "$2")
parent_phase=$((16#$parent % 64))
change_phase=$((16#$change % 64))
printf 'parent  0x%s  phase 0x%02x  %s\n' "$parent" "$parent_phase" "$1"
main_slack "$1"
printf 'change  0x%s  phase 0x%02x  %s\n' "$change" "$change_phase" "$2"
main_slack "$2"
hot_report "$1" "$2"
if [[ $# -eq 4 ]]; then
  hot_report "$3" "$4"
fi
if [[ $parent_phase -ne $change_phase ]]; then
  echo "FAIL: the host probe moved to a different 64-byte phase" >&2
  exit 1
fi
echo "OK: same 64-byte phase"
