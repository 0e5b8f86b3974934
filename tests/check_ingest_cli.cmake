# CLI-level ingestion contract, run as a ctest:
#
#   1. Checked numeric option parsing: garbage / out-of-range values for
#      --iters, --threads, --component-workers, and non-finite --factor
#      values, must exit non-zero with a diagnostic naming the flag
#      (std::atoi silently made them 0; from_chars accepts nan and inf).
#   2. Graph-cache byte equivalence: laying out a whole-genome GFA and
#      laying out its .pgg cache (--save-graph / --load-graph) must produce
#      byte-identical .lay files, with and without --partition.
#   3. A W-record-only, CRLF-terminated GFA (tests/data/walks_crlf.gfa)
#      must ingest and lay out end-to-end.
#
# Expects -DTOOL=<pgl_layout> -DGENERATOR=<whole_genome_layout>
#         -DDATA=<tests/data dir> -DWORKDIR=<scratch dir>
foreach(var TOOL GENERATOR DATA WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_ingest_cli.cmake needs -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

# --- 1. numeric option error paths -----------------------------------------
foreach(bad_args
    "--iters|banana"
    "--iters|-3"
    "--iters|99999999999999999999"
    "--threads|2x"
    "--component-workers|many"
    "--factor|fast"
    "--factor|nan"
    "--factor|inf"
    "--seed|0xg")
  string(REPLACE "|" ";" bad_list "${bad_args}")
  list(GET bad_list 0 flag)
  execute_process(
    COMMAND ${TOOL} -i in.gfa -o out.lay --partition ${bad_list}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "pgl_layout accepted bad value for ${flag}: ${bad_args}")
  endif()
  if(NOT err MATCHES "${flag}")
    message(FATAL_ERROR
        "diagnostic for ${bad_args} does not name the flag; stderr: ${err}")
  endif()
endforeach()
message(STATUS "numeric option error paths OK")

# --- 2. GFA vs .pgg cache byte equivalence ---------------------------------
execute_process(
  COMMAND ${GENERATOR} ${WORKDIR} 3 0.0002 cpu-soa
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "whole_genome_layout failed: ${err}")
endif()
set(gfa "${WORKDIR}/whole_genome.gfa")

# Convert-only mode: --save-graph without -o writes the cache and exits.
execute_process(
  COMMAND ${TOOL} -i ${gfa} --save-graph ${WORKDIR}/genome.pgg
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--save-graph convert run failed: ${err}")
endif()

set(common --iters 3 --factor 0.5 --seed 42)
foreach(mode plain partition)
  if(mode STREQUAL "partition")
    set(extra --partition --component-workers 2)
  else()
    set(extra "")
  endif()
  execute_process(
    COMMAND ${TOOL} -i ${gfa} -o ${WORKDIR}/${mode}_gfa.lay ${common} ${extra}
    RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "GFA ${mode} run failed: ${err}")
  endif()
  execute_process(
    COMMAND ${TOOL} --load-graph ${WORKDIR}/genome.pgg
            -o ${WORKDIR}/${mode}_pgg.lay ${common} ${extra}
    RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR ".pgg ${mode} run failed: ${err}")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORKDIR}/${mode}_gfa.lay ${WORKDIR}/${mode}_pgg.lay
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "${mode}: layout from .pgg cache differs from layout from GFA")
  endif()
  message(STATUS "${mode}: GFA and .pgg layouts are byte-identical")
endforeach()

# Auto-detect by extension: -i genome.pgg must load the cache too.
execute_process(
  COMMAND ${TOOL} -i ${WORKDIR}/genome.pgg -o ${WORKDIR}/auto_pgg.lay ${common}
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "-i with .pgg extension failed: ${err}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORKDIR}/auto_pgg.lay ${WORKDIR}/plain_gfa.lay
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "-i auto-detected .pgg layout differs")
endif()

# --- 3. W-record-only CRLF GFA lays out end-to-end -------------------------
execute_process(
  COMMAND ${TOOL} -i ${DATA}/walks_crlf.gfa -o ${WORKDIR}/walks.lay
          --iters 3 --factor 2 --stress
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "W-only CRLF GFA failed to lay out: ${err}")
endif()
if(NOT EXISTS "${WORKDIR}/walks.lay")
  message(FATAL_ERROR "W-only run produced no layout file")
endif()
message(STATUS "W-record-only CRLF GFA laid out end-to-end")
