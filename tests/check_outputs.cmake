# Run a command and fail unless it exits 0 and leaves every listed
# output file non-empty. Lists are '|'-separated (a ';' would split the
# add_test argument):
#   cmake -DCMD=prog|--flag=x -DOUTPUTS=a.json|b.txt -P check_outputs.cmake
string(REPLACE "|" ";" CMD "${CMD}")
string(REPLACE "|" ";" OUTPUTS "${OUTPUTS}")
file(REMOVE ${OUTPUTS})
execute_process(COMMAND ${CMD} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command exited with ${rc}: ${CMD}")
endif()
foreach(out ${OUTPUTS})
    if(NOT EXISTS "${out}")
        message(FATAL_ERROR "missing output: ${out}")
    endif()
    file(SIZE "${out}" size)
    if(size EQUAL 0)
        message(FATAL_ERROR "empty output: ${out}")
    endif()
endforeach()
