#!/usr/bin/env bash
# Matrix-style smoke driver for CI: one script, one suite per argument,
# replacing the per-backend / per-kernel / ingest / multilevel loops that
# used to be copy-pasted across ci.yml steps.
#
#   tools/ci/smoke.sh BUILD_DIR SUITE [SUITE...]
#
# Suites:
#   backends    every registered backend: bench smoke + partitioned CLI run
#   kernels     every backend x every update kernel, scalar-vs-simd cmp
#   ingest      GFA -> .pgg cache -> byte-identical partitioned layout
#   multilevel  --multilevel reaches flat stress in less SGD wall-clock
#   telemetry   --trace writes valid JSON with nonzero engine counters
#
# The listing contract is strict on purpose: an empty or failing
# `--list-backends` / `--list-kernels` fails the suite, never silently
# runs zero iterations. Workdir defaults to /tmp (override with WORKDIR).
set -euo pipefail

if [ $# -lt 2 ]; then
    echo "usage: $0 BUILD_DIR SUITE [SUITE...]" >&2
    echo "suites: backends kernels ingest multilevel telemetry" >&2
    exit 2
fi

BUILD="$1"
shift
WORKDIR="${WORKDIR:-/tmp}"
mkdir -p "${WORKDIR}"
PGL="${BUILD}/pgl_layout"
GENOME="${WORKDIR}/whole_genome.gfa"

list_backends() {
    local out
    out="$("${PGL}" --list-backends)"
    test -n "${out}"
    echo "${out}"
}

list_kernels() {
    local out
    out="$("${PGL}" --list-kernels)"
    test -n "${out}"
    echo "${out}"
}

# Multi-component GFA shared by the backends/kernels/ingest suites;
# generated once per script run.
ensure_genome() {
    if [ ! -f "${GENOME}" ]; then
        "${BUILD}/whole_genome_layout" "${WORKDIR}" 3 0.0002 cpu-soa
    fi
}

suite_backends() {
    ensure_genome
    local backends
    backends="$(list_backends)"
    echo "registered backends:" ${backends}
    for backend in ${backends}; do
        echo "::group::${backend}"
        "${BUILD}/bench_backends" --quick --backend "${backend}"
        "${PGL}" -i "${GENOME}" -o "${WORKDIR}/${backend}.lay" \
            --partition --backend "${backend}" --component-workers 2 \
            --iters 3 --factor 0.5 --timing
        echo "::endgroup::"
    done
}

suite_kernels() {
    ensure_genome
    local backends kernels
    backends="$(list_backends)"
    kernels="$(list_kernels)"
    echo "registered kernels:" ${kernels}
    for backend in ${backends}; do
        echo "::group::${backend} kernels"
        # Every backend must accept every registered update kernel; scalar
        # and simd runs of the same backend must agree byte for byte (the
        # kernel-equivalence contract, checked end to end through the CLI).
        for kernel in ${kernels}; do
            "${PGL}" -i "${GENOME}" \
                -o "${WORKDIR}/${backend}.${kernel}.lay" \
                --backend "${backend}" --kernel "${kernel}" \
                --iters 3 --factor 0.5 --threads 2
        done
        # The Hogwild cpu-soa engine is nondeterministic with threads > 1,
        # so the byte contract is asserted on the deterministic backends.
        if [ "${backend}" != "cpu-soa" ]; then
            cmp "${WORKDIR}/${backend}.scalar.lay" \
                "${WORKDIR}/${backend}.simd.lay"
        fi
        echo "::endgroup::"
    done
}

suite_ingest() {
    ensure_genome
    "${PGL}" -i "${GENOME}" --save-graph "${WORKDIR}/whole_genome.pgg"
    "${PGL}" -i "${GENOME}" -o "${WORKDIR}/from_gfa.lay" \
        --partition --iters 3 --factor 0.5
    "${PGL}" --load-graph "${WORKDIR}/whole_genome.pgg" \
        -o "${WORKDIR}/from_pgg.lay" --partition --iters 3 --factor 0.5
    cmp "${WORKDIR}/from_gfa.lay" "${WORKDIR}/from_pgg.lay"
    echo "GFA and .pgg partitioned layouts are byte-identical"
}

suite_multilevel() {
    # End-to-end CLI comparison on a segmentation-refined (sub=4)
    # whole-genome GFA: --multilevel must reach the flat run's final
    # sampled path stress within 5% while spending strictly less SGD
    # wall-clock (coarsen + layout + interpolate + refine vs flat layout).
    local mldir="${WORKDIR}/multilevel_smoke"
    mkdir -p "${mldir}"
    "${BUILD}/whole_genome_layout" "${mldir}" 1 0.001 cpu-soa 4
    local common="-i ${mldir}/whole_genome.gfa --backend cpu-pipelined \
                  --iters 6 --stress --timing"
    "${PGL}" ${common} -o "${mldir}/flat.lay" \
        > "${mldir}/flat.out" 2> "${mldir}/flat.log"
    "${PGL}" ${common} -o "${mldir}/ml.lay" --multilevel \
        > "${mldir}/ml.out" 2> "${mldir}/ml.log"
    cat "${mldir}/flat.out" "${mldir}/ml.out"
    grep '^timing:' "${mldir}/flat.log" "${mldir}/ml.log"
    MLDIR="${mldir}" python3 - <<'EOF'
import os
import re

mldir = os.environ["MLDIR"]

def stress(path):
    text = open(path).read()
    return float(re.search(r"sampled path stress: ([0-9.eE+-]+)", text)[1])

def stages(path):
    return {m[1]: float(m[2])
            for m in re.finditer(r"timing: (\S+) ([0-9.eE+-]+) s",
                                 open(path).read())}

flat_q = stress(f"{mldir}/flat.out")
ml_q = stress(f"{mldir}/ml.out")
flat_t = stages(f"{mldir}/flat.log")
ml_t = stages(f"{mldir}/ml.log")
flat_wall = flat_t["layout"]
ml_wall = sum(ml_t[s] for s in ("coarsen", "layout", "interpolate", "refine"))
print(f"stress: flat {flat_q:.4g}  multilevel {ml_q:.4g} "
      f"({ml_q / flat_q:.3f}x)")
print(f"sgd wall: flat {flat_wall:.3f} s  multilevel {ml_wall:.3f} s "
      f"({ml_wall / flat_wall:.3f}x)")
assert ml_q <= flat_q * 1.05, "multilevel stress >5% above flat"
assert ml_wall < flat_wall, "multilevel SGD wall not below flat"
EOF
}

suite_telemetry() {
    # The observability contract end to end: a partitioned multilevel run
    # with --trace must emit parseable Chrome-trace JSON whose embedded
    # registry snapshot shows the engines actually counted work, and the
    # trace must not perturb the layout (byte-compared against a run
    # without --trace).
    ensure_genome
    "${PGL}" -i "${GENOME}" -o "${WORKDIR}/telemetry_plain.lay" \
        --partition --component-workers 2 --multilevel \
        --iters 3 --factor 0.5
    "${PGL}" -i "${GENOME}" -o "${WORKDIR}/telemetry_traced.lay" \
        --partition --component-workers 2 --multilevel \
        --iters 3 --factor 0.5 --timing --trace "${WORKDIR}/telemetry.json"
    cmp "${WORKDIR}/telemetry_plain.lay" "${WORKDIR}/telemetry_traced.lay"
    echo "--trace does not perturb the layout (byte-identical)"
    TRACE="${WORKDIR}/telemetry.json" python3 - <<'EOF'
import json
import os

doc = json.load(open(os.environ["TRACE"]))
events = doc["traceEvents"]
assert doc.get("telemetryEnabled", False), "telemetry compiled out in CI build"
assert events, "trace has no events"
counters = doc["telemetry"]["counters"]
for name in ("engine.runs", "engine.updates", "partition.components"):
    assert counters.get(name, 0) > 0, f"counter {name} is zero"
names = {e.get("name") for e in events}
for span in ("parse", "coarsen", "layout", "interpolate", "refine", "render"):
    assert span in names, f"missing span {span!r}"
print(f"{len(events)} trace events, "
      f"{counters['engine.updates']} engine updates OK")
EOF
}

for suite in "$@"; do
    case "${suite}" in
        backends) suite_backends ;;
        kernels) suite_kernels ;;
        ingest) suite_ingest ;;
        multilevel) suite_multilevel ;;
        telemetry) suite_telemetry ;;
        *)
            echo "unknown suite: ${suite}" >&2
            exit 2
            ;;
    esac
done
