# cqac_lint --json quotes strings with JsonQuote (src/ir/json.h): a file
# name holding a carriage return prints it as \r. Registered as a ctest in
# tools/CMakeLists.txt:
#
#   cmake -DCQAC_LINT=<cqac_lint> -DWORK_DIR=<dir> -P check_lint_json.cmake
set(file "${WORK_DIR}/cr\r.cqac")
file(WRITE "${file}" "q(X :- r(X).\n")
execute_process(COMMAND "${CQAC_LINT}" --json "${file}"
                OUTPUT_VARIABLE stdout RESULT_VARIABLE rc)
file(REMOVE "${file}")
if(NOT rc EQUAL 2 OR NOT stdout MATCHES "\"file\": \"[^\"]*cr\\\\r\\.cqac\"")
  message(FATAL_ERROR "cqac_lint --json exited ${rc} and printed:\n${stdout}")
endif()
