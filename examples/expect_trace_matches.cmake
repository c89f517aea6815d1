# Runs an example with --trace=<file>. Passes only when it exits cleanly and
# the trace it writes is byte-for-byte the committed one.
#
#   cmake -DEXE=<binary> -DTRACE=<output path> -DEXPECTED=<committed trace> \
#         -P expect_trace_matches.cmake
execute_process(COMMAND ${EXE} --trace=${TRACE}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "expected exit status 0, got '${status}'\n${out}${err}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${TRACE} ${EXPECTED}
                RESULT_VARIABLE differ)
if(NOT differ STREQUAL "0")
  message(FATAL_ERROR
          "${TRACE} differs from ${EXPECTED}. A change that moves simulated "
          "times, spans or ring labels must regenerate the committed trace "
          "(`${EXE} --trace=${EXPECTED}`) and say why.")
endif()
