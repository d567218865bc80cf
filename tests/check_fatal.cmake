# Run a command that must stop with a usage error: exit code 1 and a
# "fatal: REGEX" line, within TIMEOUT seconds. A hang, a crash (abort,
# segfault, OOM kill) or a silently accepted value all fail. The command
# is '|'-separated (a ';' would split the add_test argument):
#   cmake -DCMD=prog|--flag=x -DREGEX=... -DTIMEOUT=30 -P check_fatal.cmake
string(REPLACE "|" ";" CMD "${CMD}")
execute_process(COMMAND ${CMD} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE out TIMEOUT ${TIMEOUT})
if(NOT rc STREQUAL "1")
    message(FATAL_ERROR "exit '${rc}', want 1 (usage error): ${CMD}\n${out}")
endif()
if(NOT out MATCHES "fatal: ${REGEX}")
    message(FATAL_ERROR "no 'fatal: ${REGEX}' line: ${CMD}\n${out}")
endif()
