# CLI identity smoke for the streamed pipeline: every command that
# takes --stream must print (or write) exactly what its materialized
# form does, and the removed --window-weeks flag must be refused.
#
# Run as: cmake -DNEVERMIND=<path to nevermind> -DWORK_DIR=<scratch dir>
#               -P cli_stream_identity.cmake

if(NOT NEVERMIND OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DNEVERMIND=... -DWORK_DIR=... -P "
                      "cli_stream_identity.cmake")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs nevermind with ARGN; fails unless it exits 0. Stdout lands in
# the variable named by `out_var`.
function(run_cli out_var)
  execute_process(COMMAND "${NEVERMIND}" ${ARGN}
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "nevermind ${ARGN} exited ${rc}:\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

foreach(cmd predict serve locate)
  run_cli(materialized ${cmd} --lines 2000 --threads 2)
  run_cli(streamed ${cmd} --lines 2000 --threads 2 --stream)
  if(materialized STREQUAL "")
    message(FATAL_ERROR "${cmd} printed nothing")
  endif()
  if(NOT materialized STREQUAL streamed)
    message(FATAL_ERROR "${cmd} --stream stdout differs from ${cmd}:\n"
                        "--- materialized\n${materialized}\n"
                        "--- streamed\n${streamed}")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}/materialized" "${WORK_DIR}/streamed")
run_cli(ignored simulate --lines 800 --threads 2
        --out "${WORK_DIR}/materialized")
run_cli(ignored simulate --lines 800 --threads 2 --stream
        --out "${WORK_DIR}/streamed")
foreach(csv measurements notes outages profiles tickets)
  set(a "${WORK_DIR}/materialized/${csv}.csv")
  set(b "${WORK_DIR}/streamed/${csv}.csv")
  if(NOT EXISTS "${a}" OR NOT EXISTS "${b}")
    message(FATAL_ERROR "simulate did not write ${csv}.csv")
  endif()
  file(SHA256 "${a}" want)
  file(SHA256 "${b}" got)
  if(NOT want STREQUAL got)
    message(FATAL_ERROR "simulate --stream ${csv}.csv differs from simulate")
  endif()
endforeach()

execute_process(COMMAND "${NEVERMIND}" predict --lines 200 --stream
                        --window-weeks 4
                OUTPUT_QUIET ERROR_QUIET
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "--window-weeks 4 exited ${rc}, expected 2")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
message(STATUS "cli_stream_identity: predict/serve/locate/simulate "
               "byte-identical with and without --stream")
