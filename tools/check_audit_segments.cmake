# Runs `CQAC_AUDIT --json SCRIPT` and fails unless it exits 0 and prints
# exactly the bytes of EXPECTED; then appends a `load` line to a copy of
# SCRIPT and fails unless cqac_audit refuses it with exit 2, naming that
# line. Registered as a ctest in tools/CMakeLists.txt:
#
#   cmake -DCQAC_AUDIT=<cqac_audit> -DSCRIPT=<script.cqac>
#         -DEXPECTED=<golden> -DWORK_DIR=<dir> -P check_audit_segments.cmake
file(READ "${EXPECTED}" expected)
execute_process(COMMAND "${CQAC_AUDIT}" --json "${SCRIPT}"
                OUTPUT_VARIABLE actual ERROR_VARIABLE stderr
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT actual STREQUAL expected)
  message(FATAL_ERROR "cqac_audit --json ${SCRIPT} exited ${rc} (expected 0) "
                      "and printed:\n${actual}${stderr}")
endif()

file(READ "${SCRIPT}" text)
string(REGEX MATCHALL "\n" newlines "${text}")
list(LENGTH newlines load_line)
math(EXPR load_line "${load_line} + 1")
set(with_load "${WORK_DIR}/audit_segments_load.cqac")
file(WRITE "${with_load}" "${text}load ${WORK_DIR}\nquery z(X) :- r(X).\n")
execute_process(COMMAND "${CQAC_AUDIT}" "${with_load}"
                OUTPUT_VARIABLE actual ERROR_VARIABLE stderr
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 2 OR NOT stderr MATCHES "line ${load_line}: `load`")
  message(FATAL_ERROR "cqac_audit ${with_load} exited ${rc} (expected 2, "
                      "naming line ${load_line}) and printed:\n"
                      "${actual}${stderr}")
endif()
