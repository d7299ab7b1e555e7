#!/bin/sh
# The whole CI gate in one command, run from anywhere inside the repo:
#
#   tools/ci.sh            build + tests + formatting + virtual-time bench gate
#   CI_FULL=1 tools/ci.sh  also re-measures the fleet scenario (slower)
#
# Stages:
#   0. transport seam       — grep: the protocol libraries (uhttp, smtp,
#                             baseline, monitor, lb, orchestrator, ssh,
#                             xmpp, storage/memcache) name no concrete
#                             netstack transport (Netstack.Tcp/Udp/Stack,
#                             Flow_reader); they reach the network only
#                             through Device_sig functors
#   1. world builder        — grep: no hypervisor world (Hypervisor.create)
#                             and no static_ip helper is defined in lib,
#                             bin, bench, test or examples outside
#                             lib/core/world.ml; every simulated host
#                             comes from Core.World
#   2. dune build           — the tree compiles
#   3. unused exports       — `dune build @check`, then
#                             tools/unused_exports.exe reads the .cmt/.cmti
#                             files: fails on any lib/ .mli value no other
#                             unit references (section a) or any unused
#                             `libraries` entry in lib/*/dune (section c);
#                             prints the test-only values (section b) in
#                             full without failing. No allowlist.
#   4. dune runtest         — unit/golden tests plus `bench obs-guard`
#                             (every disabled probe site against its
#                             budget, figure-8 invariance with all
#                             observability planes on at once)
#   5. bench obs-planes     — figure-8 invariance one observability plane
#                             at a time (metrics, prof, dpath, flight,
#                             capture), so a difference names its plane
#   6. tools/check_fmt.sh   — dune + ocamlformat formatting gate
#   7. tools/bench_gate.sh  — fresh `bench --out` run of the deterministic
#                             virtual-time experiments (dpath, bootstorm,
#                             capture) against the committed BENCH_micro.json
#                             snapshot; every gated metric prints its
#                             delta even on pass
#   8. paper gate           — fresh `bench --out` run of every paper figure
#                             and table except fig9, diffed against the
#                             committed BENCH_paper.json at zero tolerance
#                             (virtual time is deterministic per seed)
set -eu
cd "$(git rev-parse --show-toplevel)"

echo "== ci: transport seam =="
if grep -rnE 'Netstack\.(Tcp|Udp|Stack)|Flow_reader' \
  lib/uhttp lib/smtp lib/baseline lib/monitor lib/lb lib/orchestrator lib/ssh lib/xmpp \
  lib/storage/memcache.ml lib/storage/memcache.mli; then
  echo "ci: protocol libraries must use Device_sig, not the netstack (matches above)" >&2
  exit 1
fi

echo "== ci: world builder =="
if grep -rnE 'Hypervisor\.create([^_]|$)|let static_ip' lib bin bench test examples |
  grep -v '^lib/core/world\.ml:'; then
  echo "ci: build simulated hosts with Core.World, not by hand (matches above)" >&2
  exit 1
fi

echo "== ci: dune build =="
dune build

echo "== ci: unused exports =="
dune build @check
dune exec tools/unused_exports.exe

echo "== ci: dune runtest =="
dune runtest

echo "== ci: observability planes, one at a time =="
dune exec bench/main.exe -- obs-planes

echo "== ci: formatting =="
tools/check_fmt.sh

echo "== ci: bench gate (virtual-time metrics) =="
out=$(mktemp /tmp/ci-bench-XXXXXX.json)
trap 'rm -f "$out"' EXIT
dune exec bench/main.exe -- dpath bootstorm capture --out "$out" >/dev/null
tools/bench_gate.sh BENCH_micro.json "$out"

# fig9 is left out: it peaks at about 6.5 GB of heap until the disk model
# gets sparse backing. Its parameters stay as the paper has them.
echo "== ci: paper gate (virtual-time figures and tables) =="
dune exec bench/main.exe -- --out "$out" fig5 fig6 fig7a fig7b fig8 fig10 fig11 fig12 fig13 \
  table1 table2 fig14 sealing >/dev/null
if ! diff -u BENCH_paper.json "$out"; then
  echo "ci: paper figures drifted from BENCH_paper.json (diff above)" >&2
  exit 1
fi

if [ "${CI_FULL:-0}" = 1 ]; then
  echo "== ci: bench gate (fleet scenario) =="
  dune exec bench/main.exe -- fleet --out "$out" >/dev/null
  tools/bench_gate.sh BENCH_fleet.json "$out"
fi

echo "== ci: OK =="
