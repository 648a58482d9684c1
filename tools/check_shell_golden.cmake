# Runs `CQAC_SHELL --threads N SCRIPT` for every N in the comma-separated
# THREADS list and fails unless each run exits 0 and prints exactly the
# bytes of EXPECTED. Registered as a ctest in tools/CMakeLists.txt:
#
#   cmake -DCQAC_SHELL=<cqac_shell> -DSCRIPT=<script.cqac>
#         -DEXPECTED=<golden> -DTHREADS=0,4 -P check_shell_golden.cmake
file(READ "${EXPECTED}" expected)
string(REPLACE "," ";" thread_counts "${THREADS}")
foreach(n IN LISTS thread_counts)
  execute_process(COMMAND "${CQAC_SHELL}" --threads ${n} "${SCRIPT}"
                  OUTPUT_VARIABLE actual
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cqac_shell --threads ${n} ${SCRIPT} exited ${rc}")
  endif()
  if(NOT actual STREQUAL expected)
    message(FATAL_ERROR
            "cqac_shell --threads ${n} ${SCRIPT} differs from ${EXPECTED}; "
            "it printed:\n${actual}")
  endif()
endforeach()
