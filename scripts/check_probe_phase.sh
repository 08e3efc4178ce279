#!/usr/bin/env bash
# Checks that perfbench's host probe keeps its 64-byte phase across a change.
#
#   ./scripts/check_probe_phase.sh PARENT_BIN CHANGE_BIN
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

set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 PARENT_BIN CHANGE_BIN" >&2
  exit 2
fi

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

parent=$(probe_address "$1")
change=$(probe_address "$2")
parent_phase=$((16#$parent % 64))
change_phase=$((16#$change % 64))
printf 'parent  0x%s  phase 0x%02x  %s\n' "$parent" "$parent_phase" "$1"
main_slack "$1"
printf 'change  0x%s  phase 0x%02x  %s\n' "$change" "$change_phase" "$2"
main_slack "$2"
if [[ $parent_phase -ne $change_phase ]]; then
  echo "FAIL: the host probe moved to a different 64-byte phase" >&2
  exit 1
fi
echo "OK: same 64-byte phase"
