# Partitioned-execution contract, run as a ctest:
#
#   1. Worker-count byte parity: `--partition` output must be
#      byte-identical at --component-workers 1/2/4, for cpu-soa and
#      cpu-pipelined — every component is laid out with the same mixed
#      per-component seed whichever pool worker takes it.
#   2. Removed execution flags fail cleanly: `--processes` and `--numa`
#      exit 2 with "unknown option".
#
# Expects -DTOOL=<pgl_layout> -DGENERATOR=<whole_genome_layout>
#         -DWORKDIR=<scratch dir>
foreach(var TOOL GENERATOR WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_partition_cli.cmake needs -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

execute_process(
  COMMAND ${GENERATOR} ${WORKDIR} 3 0.0002 cpu-soa
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "whole_genome_layout failed: ${err}")
endif()
set(gfa "${WORKDIR}/whole_genome.gfa")
set(common --iters 3 --factor 0.5 --seed 42 --partition)

# --- 1. worker-count byte parity -------------------------------------------
foreach(backend cpu-soa cpu-pipelined)
  set(ref "${WORKDIR}/${backend}_ref.lay")
  execute_process(
    COMMAND ${TOOL} -i ${gfa} -o ${ref} ${common} --backend ${backend}
    RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${backend} reference run failed: ${err}")
  endif()
  foreach(n 1 2 4)
    set(out "${WORKDIR}/${backend}_${n}.lay")
    execute_process(
      COMMAND ${TOOL} -i ${gfa} -o ${out} ${common} --backend ${backend}
              --component-workers ${n}
      RESULT_VARIABLE rc ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${backend} x${n} run failed: ${err}")
    endif()
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files ${ref} ${out}
      RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR
          "${backend}: ${n} component workers are not byte-identical to "
          "the single-worker run")
    endif()
  endforeach()
  message(STATUS "${backend}: component workers 1/2/4 all byte-identical")
endforeach()

# --- 2. removed execution flags --------------------------------------------
foreach(removed "--processes|2" "--numa|auto")
  string(REPLACE "|" ";" removed_args "${removed}")
  list(GET removed_args 0 flag)
  execute_process(
    COMMAND ${TOOL} -i ${gfa} -o ${WORKDIR}/removed.lay ${common}
            ${removed_args}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${flag} exited ${rc}, expected 2; stderr: ${err}")
  endif()
  if(NOT err MATCHES "unknown option: ${flag}")
    message(FATAL_ERROR
        "${flag} diagnostic does not say unknown option; stderr: ${err}")
  endif()
endforeach()
if(EXISTS ${WORKDIR}/removed.lay)
  message(FATAL_ERROR "a rejected invocation published a layout")
endif()
message(STATUS "removed flags --processes/--numa rejected as unknown options")
