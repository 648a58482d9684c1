# Runs COMMAND with the comma-separated ARGS and fails unless it exits with
# status EXIT and its stderr matches the regular expression MATCH.
# Registered as ctests in tools/CMakeLists.txt:
#
#   cmake -DCOMMAND=<tool> -DARGS=--threads,-1 -DEXIT=2
#         -DMATCH=<regex> -P check_exit_status.cmake
string(REPLACE "," ";" args "${ARGS}")
execute_process(COMMAND "${COMMAND}" ${args}
                OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr
                RESULT_VARIABLE rc)
if(NOT rc STREQUAL "${EXIT}" OR NOT stderr MATCHES "${MATCH}")
  message(FATAL_ERROR "${COMMAND} ${args} exited ${rc} (expected ${EXIT}) "
                      "and printed:\n${stdout}${stderr}")
endif()
