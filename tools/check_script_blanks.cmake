# Runs SCRIPT and its twin spelled with a tab after each command word and
# CRLF line ends through cqac_shell, cqac_audit --json, cqac_lint and
# cqac_lint --fix, and fails unless every tool treats the two alike.
# Registered as a ctest in tools/CMakeLists.txt:
#
#   cmake -DCQAC_SHELL=<cqac_shell> -DCQAC_AUDIT=<cqac_audit>
#         -DCQAC_LINT=<cqac_lint> -DSCRIPT=<script.cqac> -DWORK_DIR=<dir>
#         -P check_script_blanks.cmake
function(write_twin text path)
  foreach(cmd view query fact retract)
    string(REPLACE "\n${cmd} " "\n${cmd}\t" text "${text}")
  endforeach()
  string(REPLACE "\n" "\r\n" text "${text}")
  file(WRITE "${path}" "${text}")
endfunction()

# Runs one tool on the file SPELLING.cqac (or with it as stdin when STDIN
# is set) into SPELLING.stdout; its stdout and stderr, with the file's name
# cut out, land in <spelling>_stdout and <spelling>_stderr and its exit
# status in <spelling>_rc.
function(run spelling stdin)
  set(file "${WORK_DIR}/${spelling}.cqac")
  set(arg "${file}")
  set(input)
  if(stdin)
    set(arg)
    set(input INPUT_FILE "${file}")
  endif()
  execute_process(COMMAND ${ARGN} ${arg} ${input}
                  OUTPUT_FILE "${WORK_DIR}/${spelling}.stdout"
                  ERROR_VARIABLE stderr RESULT_VARIABLE rc)
  file(READ "${WORK_DIR}/${spelling}.stdout" stdout)
  string(REPLACE "${file}" "FILE" stdout "${stdout}")
  string(REPLACE "${file}" "FILE" stderr "${stderr}")
  set(${spelling}_stdout "${stdout}" PARENT_SCOPE)
  set(${spelling}_stderr "${stderr}" PARENT_SCOPE)
  set(${spelling}_rc "${rc}" PARENT_SCOPE)
endfunction()

file(READ "${SCRIPT}" text)
file(WRITE "${WORK_DIR}/blanks_plain.cqac" "${text}")
write_twin("${text}" "${WORK_DIR}/blanks_twin.cqac")

foreach(tool shell audit lint fix)
  set(stdin OFF)
  if(tool STREQUAL "shell")
    set(command "${CQAC_SHELL}")
  elseif(tool STREQUAL "audit")
    set(command "${CQAC_AUDIT}" --json)
  elseif(tool STREQUAL "lint")
    set(command "${CQAC_LINT}")
  else()
    set(command "${CQAC_LINT}" --fix -)
    set(stdin ON)
  endif()
  run(blanks_plain ${stdin} ${command})
  run(blanks_twin ${stdin} ${command})
  if(tool STREQUAL "fix")
    # The fixed twin is the twin of the fixed script, byte for byte; the
    # files are compared because file(READ) drops the '\r' of CRLF.
    if(blanks_plain_stdout STREQUAL text)
      message(FATAL_ERROR "cqac_lint --fix left ${SCRIPT} unchanged")
    endif()
    write_twin("${blanks_plain_stdout}" "${WORK_DIR}/blanks_fixed_twin.cqac")
    execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                            "${WORK_DIR}/blanks_fixed_twin.cqac"
                            "${WORK_DIR}/blanks_twin.stdout"
                    RESULT_VARIABLE differ)
    if(differ)
      message(FATAL_ERROR "cqac_lint --fix fixed the tab/CRLF twin "
                          "differently:\n${blanks_twin_stdout}")
    endif()
    set(blanks_twin_stdout "${blanks_plain_stdout}")
  endif()
  if(NOT blanks_plain_rc STREQUAL blanks_twin_rc OR
     NOT blanks_plain_stdout STREQUAL blanks_twin_stdout OR
     NOT blanks_plain_stderr STREQUAL blanks_twin_stderr)
    message(FATAL_ERROR
            "${tool} treats the tab/CRLF twin differently (exit "
            "${blanks_plain_rc} vs ${blanks_twin_rc}).\nAs written:\n"
            "${blanks_plain_stdout}${blanks_plain_stderr}\n"
            "With tabs and CRLF:\n${blanks_twin_stdout}${blanks_twin_stderr}")
  endif()
endforeach()

# Both spellings failing alike would pass the loop above: the shell must
# declare the twin's views.
run(blanks_twin OFF "${CQAC_SHELL}")
if(NOT blanks_twin_rc EQUAL 0 OR
   NOT blanks_twin_stdout MATCHES "ok: view v1\\(X, Y\\)")
  message(FATAL_ERROR "cqac_shell on the tab/CRLF twin exited "
                      "${blanks_twin_rc}:\n${blanks_twin_stdout}"
                      "${blanks_twin_stderr}")
endif()
