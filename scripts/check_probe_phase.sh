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

set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 PARENT_BIN CHANGE_BIN" >&2
  exit 2
fi

probe_address() {
  local addr
  addr=$(nm -C "$1" | awk '/ perfbench::HostProbeSeconds\(\)$/ { print $1; exit }')
  if [[ -z "$addr" ]]; then
    echo "no perfbench::HostProbeSeconds() in $1" >&2
    exit 2
  fi
  echo "$addr"
}

parent=$(probe_address "$1")
change=$(probe_address "$2")
parent_phase=$((16#$parent % 64))
change_phase=$((16#$change % 64))
printf 'parent  0x%s  phase 0x%02x  %s\n' "$parent" "$parent_phase" "$1"
printf 'change  0x%s  phase 0x%02x  %s\n' "$change" "$change_phase" "$2"
if [[ $parent_phase -ne $change_phase ]]; then
  echo "FAIL: the host probe moved to a different 64-byte phase" >&2
  exit 1
fi
echo "OK: same 64-byte phase"
