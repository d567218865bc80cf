# Self-test of tools/check_guards.py: it must exit 1 on each kind of
# violation and 0 on a clean tree, so no guard can pass vacuously. The
# tree, a copy of the checker and its tables are written here, under
# the working directory, so no checked-in file trips the real guards:
# the copy reads the tools/guards.txt beside it and scans its own tree.
# Without python3 the clean case fails.
#   cmake -DCHECKER=tools/check_guards.py -P check_guards.cmake
set(root ${CMAKE_CURRENT_BINARY_DIR}/guards_selftest)
file(REMOVE_RECURSE ${root})
file(COPY ${CHECKER} DESTINATION ${root}/tools)
file(WRITE ${root}/src/dev.cc [=[
int
Dev::run(int x)
{
    return call(x) + call(x);
}
]=])
file(WRITE ${root}/src/legacy.cc "int y = legacy_call(1);\n")
# page_table.hh renamed: `if grep ... src/os/page_table.*` reads grep's
# exit 2 for the missing file as clean; the checker must fail.
file(WRITE ${root}/src/os/page_tbl.hh "std::list<int> lru_;\n")

# expect(<exit code> <guard name> <rows> [flags...]): check the tree
# against a table of one guard with these rows.
function(expect rc name rows)
    set(table ${root}/tools/guards.txt)
    file(WRITE ${table} "[${name}] self-test message\n${rows}\n")
    execute_process(COMMAND python3 ${root}/tools/check_guards.py ${ARGN}
                    RESULT_VARIABLE got OUTPUT_VARIABLE out
                    ERROR_VARIABLE out)
    if(NOT got STREQUAL rc)
        message(FATAL_ERROR "${name}: exit '${got}', want ${rc}\n${rows}\n"
                            "${out}")
    endif()
    message("${name}: exit ${got}\n${out}")
endfunction()

# The table lies in a scanned directory and its first row matches its
# own text: the checker must not scan its own table, nor, under
# --root, the other checkout's.
set(clean [=[
forbid   src,tools,!src/legacy.cc  legacy_call
require  src/dev.cc:Dev::run  \bcall\(
count=2  src/dev.cc:Dev::run  \bcall\(
forbid   src/dev.cc:Dev::run  legacy_call]=])
expect(0 clean "${clean}")
file(COPY ${root}/src ${root}/tools DESTINATION ${root}/other)
expect(0 clean_other_root "${clean}" --root=${root}/other)
expect(1 forbidden_hit [=[forbid  src  legacy_call]=])
expect(1 missing_require [=[require  src/dev.cc:Dev::run  legacy_call]=])
expect(1 wrong_count [=[count=1  src/dev.cc:Dev::run  \bcall\(]=])
expect(1 missing_body [=[forbid  src/dev.cc:Dev::stop  legacy_call]=])
expect(1 glob_matches_nothing [=[forbid  src/*.hpp  legacy_call]=])
expect(1 renamed_file [=[forbid  src/os/page_table.*  std::(list|map)\b]=])
