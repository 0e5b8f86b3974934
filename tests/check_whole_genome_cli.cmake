# Asserts the `whole_genome_layout` command-line contract:
#
#   1. `-h` / `--help` print the usage line on stdout and exit 0.
#   2. An unknown backend (e.g. a deleted one) exits 1 — not an abort —
#      with the registry's "unknown layout engine" message on stderr.
#
# Expects -DGENERATOR=<whole_genome_layout> -DWORKDIR=<scratch dir>
foreach(var GENERATOR WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_whole_genome_cli.cmake needs -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

foreach(flag -h --help)
  execute_process(
    COMMAND ${GENERATOR} ${flag}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${flag} exited ${rc} (expected 0); stderr: ${err}")
  endif()
  if(NOT out MATCHES "^usage: ")
    message(FATAL_ERROR "${flag} did not print the usage line: [${out}]")
  endif()
endforeach()

execute_process(
  COMMAND ${GENERATOR} ${WORKDIR} 1 0.0002 cpu-batched
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "unknown backend exited ${rc} (expected 1); stderr: ${err}")
endif()
if(NOT err MATCHES "unknown layout engine")
  message(FATAL_ERROR "unknown backend stderr lacks the message: [${err}]")
endif()

message(STATUS "whole_genome_layout CLI contract OK")
