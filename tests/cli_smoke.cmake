# End-to-end smoke test for hidap_cli: generate a small design, place
# it, write the placement as DEF, then evaluate the DEF against the
# same netlist. Run as `cmake -DHIDAP_CLI=... -DWORK_DIR=... -P cli_smoke.cmake`.

foreach(var HIDAP_CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_smoke: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_cli step)
  execute_process(
    COMMAND ${HIDAP_CLI} ${ARGN}
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE rv
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  message(STATUS "cli_smoke ${step}: ${out}")
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "cli_smoke ${step} failed (exit ${rv}):\n${out}\n${err}")
  endif()
  set(LAST_OUTPUT "${out}" PARENT_SCOPE)
endfunction()

function(require_file path)
  if(NOT EXISTS "${WORK_DIR}/${path}")
    message(FATAL_ERROR "cli_smoke: expected output file ${path} was not written")
  endif()
endfunction()

run_cli(gen gen -o smoke.v --cells 1200 --macros 6 --seed 7)
require_file(smoke.v)

# A malformed numeric flag is bad usage (exit 2), never read as 0.
execute_process(
  COMMAND ${HIDAP_CLI} gen -o malformed.v --cells 12x --macros 6
  WORKING_DIRECTORY ${WORK_DIR}
  RESULT_VARIABLE rv
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rv EQUAL 2 OR NOT err MATCHES "usage:" OR EXISTS "${WORK_DIR}/malformed.v")
  message(FATAL_ERROR "cli_smoke: --cells 12x should exit 2 with usage (exit ${rv}):\n${err}")
endif()

run_cli(place place -i smoke.v -o smoke.def --effort 0.05 --seed 7 --svg smoke.svg)
require_file(smoke.def)
require_file(smoke.svg)

file(READ "${WORK_DIR}/smoke.def" def_text)
if(NOT def_text MATCHES "COMPONENTS")
  message(FATAL_ERROR "cli_smoke: smoke.def has no COMPONENTS section")
endif()

run_cli(eval eval -i smoke.v -p smoke.def)
if(NOT LAST_OUTPUT MATCHES "WL")
  message(FATAL_ERROR "cli_smoke: eval printed no WL metric:\n${LAST_OUTPUT}")
endif()

message(STATUS "cli_smoke: gen -> place -> eval round-trip OK")
