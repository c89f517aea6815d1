# Runs an example with bad arguments. Passes only when it rejects them
# cleanly: exit status 1 (not a crash) and an error plus usage on stderr.
#
#   cmake -DEXE=<binary> "-DARGS=<space-separated arguments>" \
#         -P expect_usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${EXE} ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR "expected exit status 1, got '${status}'\n${out}${err}")
endif()
if(NOT err MATCHES "error: [^\n]+\nusage: ")
  message(FATAL_ERROR "expected an error and usage on stderr, got:\n${err}")
endif()
