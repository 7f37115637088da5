# End-to-end smoke test for the placement service: generate a design
# with hidap_cli, then drive hidap_serve over the JSON line protocol --
# a completed job, a warm repeat of it (cache hits), a job with a tiny
# deadline, and stats -- and check the hidap_cli --timeout-s exit-code
# contract. Run as
#   cmake -DHIDAP_CLI=... -DHIDAP_SERVE=... -DWORK_DIR=... -P serve_smoke.cmake

foreach(var HIDAP_CLI HIDAP_SERVE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "serve_smoke: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
  COMMAND ${HIDAP_CLI} gen -o serve.v --cells 1200 --macros 6 --seed 7
  WORKING_DIRECTORY ${WORK_DIR}
  RESULT_VARIABLE rv OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "serve_smoke gen failed (exit ${rv}):\n${out}\n${err}")
endif()

# One request per line; EOF after the quit. The warm job repeats the
# cold job's key fields exactly, so every artifact must come from cache;
# the drain between them sequences the donation (jobs are concurrent by
# default).
set(requests "")
string(APPEND requests "{\"op\":\"place\",\"id\":\"cold\",\"verilog\":\"serve.v\",\"out\":\"cold.def\",\"seed\":7,\"effort\":0.05}\n")
string(APPEND requests "{\"op\":\"drain\"}\n")
string(APPEND requests "{\"op\":\"place\",\"id\":\"warm\",\"verilog\":\"serve.v\",\"out\":\"warm.def\",\"seed\":7,\"effort\":0.05}\n")
string(APPEND requests "{\"op\":\"place\",\"id\":\"rushed\",\"verilog\":\"serve.v\",\"out\":\"rushed.def\",\"seed\":8,\"effort\":0.05,\"timeout_s\":0.0001}\n")
string(APPEND requests "{\"op\":\"place\",\"id\":\"hostile\",\"verilog\":\"serve.v\",\"out\":\"hostile.def\",\"seed\":-1e300}\n")
string(APPEND requests "{\"op\":\"drain\"}\n")
string(APPEND requests "{\"op\":\"stats\"}\n")
string(APPEND requests "{\"op\":\"metrics\"}\n")
string(APPEND requests "{\"op\":\"quit\"}\n")
file(WRITE "${WORK_DIR}/requests.jsonl" "${requests}")

execute_process(
  COMMAND ${HIDAP_SERVE}
  WORKING_DIRECTORY ${WORK_DIR}
  INPUT_FILE ${WORK_DIR}/requests.jsonl
  RESULT_VARIABLE rv OUTPUT_VARIABLE events ERROR_VARIABLE err
  TIMEOUT 300)
message(STATUS "serve_smoke events:\n${events}")
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "serve_smoke: hidap_serve failed (exit ${rv}):\n${err}")
endif()

function(require_event pattern what)
  if(NOT events MATCHES "${pattern}")
    message(FATAL_ERROR "serve_smoke: missing ${what} in events:\n${events}")
  endif()
endfunction()

require_event("\"event\":\"accepted\",\"id\":\"cold\"" "cold acceptance")
require_event("\"event\":\"done\",\"id\":\"cold\",\"status\":\"completed\"" "cold completion")
require_event("\"event\":\"done\",\"id\":\"warm\",\"status\":\"completed\"" "warm completion")
require_event("\"event\":\"error\",\"id\":\"hostile\",\"code\":\"invalid_request\"" "out-of-range seed -> invalid_request")
require_event("\"id\":\"warm\"[^\n]*\"design_cached\":true" "warm design cache hit")
require_event("\"id\":\"warm\"[^\n]*\"curves_cached\":true" "warm curve cache hit")
require_event("\"id\":\"warm\"[^\n]*\"plan_cached\":true" "warm plan cache hit")
require_event("\"event\":\"done\",\"id\":\"rushed\",\"status\":\"deadline_expired\"" "deadline expiry")
require_event("\"event\":\"drained\"" "drain acknowledgement")
require_event("\"event\":\"stats\"" "stats event")
require_event("\"event\":\"bye\"" "shutdown event")

# Per-job phase breakdown rides on every successful done event.
require_event("\"id\":\"cold\"[^\n]*\"phase_recursion_s\":" "cold phase breakdown")

# Job-status counters in stats: cold + warm completed, rushed expired.
require_event("\"event\":\"stats\"[^\n]*\"jobs_completed\":2" "jobs_completed count")
require_event("\"event\":\"stats\"[^\n]*\"jobs_deadline_expired\":1" "jobs_deadline_expired count")
require_event("\"event\":\"stats\"[^\n]*\"jobs_cancelled\":0" "jobs_cancelled count")
require_event("\"event\":\"stats\"[^\n]*\"design_waits\":" "design_waits field")
require_event("\"event\":\"stats\"[^\n]*\"context_waits\":" "context_waits field")

# The metrics verb returns the flat registry snapshot; three placements
# ran in this server, so SA totals must be present and nonzero.
require_event("\"event\":\"metrics\"[^\n]*\"sa\\.runs\":[1-9]" "metrics sa.runs")
require_event("\"event\":\"metrics\"[^\n]*\"sa\\.moves_proposed\":[1-9]" "metrics sa.moves_proposed")
require_event("\"event\":\"metrics\"[^\n]*\"jobs\\.completed\":2" "metrics jobs.completed")

foreach(def cold.def warm.def rushed.def)
  if(NOT EXISTS "${WORK_DIR}/${def}")
    message(FATAL_ERROR "serve_smoke: ${def} was not written")
  endif()
endforeach()

# Warm-vs-cold byte identity: the cached artifacts must reproduce the
# cold job's DEF exactly.
file(READ "${WORK_DIR}/cold.def" cold_def)
file(READ "${WORK_DIR}/warm.def" warm_def)
if(NOT cold_def STREQUAL warm_def)
  message(FATAL_ERROR "serve_smoke: warm DEF differs from cold DEF")
endif()

# The partial (deadline-expired) DEF is still a full component list.
file(READ "${WORK_DIR}/rushed.def" rushed_def)
if(NOT rushed_def MATCHES "COMPONENTS")
  message(FATAL_ERROR "serve_smoke: rushed.def has no COMPONENTS section")
endif()

# --- Robustness round (ISSUE 9): a second server instance with fail
# points armed through HIDAP_FAILPOINTS, admission control at
# --max-jobs 1 and a tight request-line limit. The daemon must survive
# an injected job-thread exception, a missing input file, a shed
# request and an oversized line, then still complete a healthy job.
set(requests2 "")
# serve.job:throw@once fires inside this job's worker thread; the
# catch-all at the thread boundary turns it into a failed done event.
string(APPEND requests2 "{\"op\":\"place\",\"id\":\"faulted\",\"verilog\":\"serve.v\",\"out\":\"faulted.def\",\"seed\":7,\"effort\":0.05}\n")
string(APPEND requests2 "{\"op\":\"drain\"}\n")
# Missing input: typed io_error after bounded retries. The armed
# session.run:delay keeps this job in flight while the next request
# arrives, so the shed below is deterministic at --max-jobs 1.
string(APPEND requests2 "{\"op\":\"place\",\"id\":\"doomed\",\"verilog\":\"missing.v\",\"out\":\"doomed.def\",\"seed\":7,\"effort\":0.05}\n")
string(APPEND requests2 "{\"op\":\"place\",\"id\":\"shed\",\"verilog\":\"serve.v\",\"out\":\"shed.def\",\"seed\":7,\"effort\":0.05}\n")
string(APPEND requests2 "{\"op\":\"place\",\"id\":\"toolong\",\"verilog\":\"serve.v\",\"out\":\"PAD.def\",\"seed\":7,\"effort\":0.05}\n")
string(APPEND requests2 "{\"op\":\"drain\"}\n")
string(APPEND requests2 "{\"op\":\"place\",\"id\":\"healthy\",\"verilog\":\"serve.v\",\"out\":\"healthy.def\",\"seed\":7,\"effort\":0.05}\n")
string(APPEND requests2 "{\"op\":\"drain\"}\n")
string(APPEND requests2 "{\"op\":\"stats\"}\n")
string(APPEND requests2 "{\"op\":\"quit\"}\n")
# Inflate the toolong line past --max-line-bytes 400.
string(REPEAT "x" 500 pad)
string(REPLACE "PAD" "${pad}" requests2 "${requests2}")
file(WRITE "${WORK_DIR}/requests2.jsonl" "${requests2}")

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env
    "HIDAP_FAILPOINTS=serve.job:throw@once,session.run:delay(1500)@once"
    "HIDAP_IO_BACKOFF_MS=0"
    ${HIDAP_SERVE} --max-jobs 1 --max-line-bytes 400
  WORKING_DIRECTORY ${WORK_DIR}
  INPUT_FILE ${WORK_DIR}/requests2.jsonl
  RESULT_VARIABLE rv OUTPUT_VARIABLE events2 ERROR_VARIABLE err
  TIMEOUT 300)
message(STATUS "serve_smoke robustness events:\n${events2}")
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "serve_smoke: hardened hidap_serve failed (exit ${rv}):\n${err}")
endif()

function(require_event2 pattern what)
  if(NOT events2 MATCHES "${pattern}")
    message(FATAL_ERROR "serve_smoke: missing ${what} in robustness events:\n${events2}")
  endif()
endfunction()

# Injected job-thread exception: failed done event with a typed code,
# not a dead daemon.
require_event2("\"event\":\"done\",\"id\":\"faulted\",\"status\":\"failed\",\"code\":\"internal\"" "injected job fault -> typed failed done")
# Missing file: typed io_error after the bounded retries.
require_event2("\"event\":\"done\",\"id\":\"doomed\",\"status\":\"failed\",\"code\":\"io_error\"" "missing input -> typed io_error")
# Admission control at --max-jobs 1 while doomed is still in flight.
require_event2("\"event\":\"error\",\"id\":\"shed\",\"code\":\"resource_exhausted\"" "shed request -> resource_exhausted")
# Oversized request line refused before parsing.
require_event2("\"event\":\"error\",\"code\":\"invalid_request\",\"message\":\"request line of [0-9]+ bytes" "oversized line -> invalid_request")
# The daemon served a healthy job after all of the above.
require_event2("\"event\":\"done\",\"id\":\"healthy\",\"status\":\"completed\"" "healthy job after faults")
require_event2("\"event\":\"stats\"[^\n]*\"jobs_completed\":1" "robustness jobs_completed count")
require_event2("\"event\":\"stats\"[^\n]*\"jobs_failed\":1" "robustness jobs_failed count")
require_event2("\"event\":\"stats\"[^\n]*\"jobs_shed\":1" "robustness jobs_shed count")
if(NOT EXISTS "${WORK_DIR}/healthy.def")
  message(FATAL_ERROR "serve_smoke: healthy.def was not written after the fault round")
endif()
# The healthy job ran with every fail point present (armed ones all
# consumed); its DEF must match the never-faulted cold run exactly.
file(READ "${WORK_DIR}/healthy.def" healthy_def)
if(NOT cold_def STREQUAL healthy_def)
  message(FATAL_ERROR "serve_smoke: healthy DEF differs from cold DEF after faults")
endif()

# CLI parse-failure contract: malformed netlist exits 5 with the line
# number in the message.
file(WRITE "${WORK_DIR}/bad.v" "module top(\n  !!!\n")
execute_process(
  COMMAND ${HIDAP_CLI} place -i bad.v -o bad.def --effort 0.05
  WORKING_DIRECTORY ${WORK_DIR}
  RESULT_VARIABLE rv OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rv EQUAL 5)
  message(FATAL_ERROR "serve_smoke: expected exit 5 for a malformed netlist, got ${rv}:\n${out}\n${err}")
endif()
if(NOT err MATCHES "parse_error")
  message(FATAL_ERROR "serve_smoke: exit-5 stderr should name parse_error:\n${err}")
endif()

# CLI deadline contract: --timeout-s expiry exits 4, still writes DEF.
execute_process(
  COMMAND ${HIDAP_CLI} place -i serve.v -o cli_rushed.def --effort 0.05 --timeout-s 0.0001
  WORKING_DIRECTORY ${WORK_DIR}
  RESULT_VARIABLE rv OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rv EQUAL 4)
  message(FATAL_ERROR "serve_smoke: expected exit 4 for an expired --timeout-s, got ${rv}:\n${out}\n${err}")
endif()
if(NOT EXISTS "${WORK_DIR}/cli_rushed.def")
  message(FATAL_ERROR "serve_smoke: cli_rushed.def was not written on deadline expiry")
endif()

# And a comfortable deadline completes with exit 0.
execute_process(
  COMMAND ${HIDAP_CLI} place -i serve.v -o cli_ok.def --effort 0.05 --timeout-s 600
  WORKING_DIRECTORY ${WORK_DIR}
  RESULT_VARIABLE rv OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "serve_smoke: --timeout-s 600 run should complete with exit 0, got ${rv}:\n${out}\n${err}")
endif()

message(STATUS "serve_smoke: protocol round-trip, cache identity and deadline contract OK")
