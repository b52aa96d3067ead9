# Regenerates one paper-table golden and compares it byte for byte with
# the committed copy. Invoked by ctest (see bench/CMakeLists.txt):
#
#   cmake -DBIN=<bench binary> -DGOLDEN=<committed .json> -DOUT=<scratch .json>
#         [-DARGS=<extra args, ;-separated>] -P CheckGolden.cmake
#
# The binary runs at CBSVM_RUNS=1. A mismatch fails the test and names
# both files, so `diff` shows which cells moved. A change that moves a
# golden on purpose regenerates the file and says which cells moved and
# why in CHANGES.md.

foreach(Var BIN GOLDEN OUT)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "CheckGolden.cmake: -D${Var}= is required")
  endif()
endforeach()

file(REMOVE "${OUT}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env CBSVM_RUNS=1 "${BIN}" ${ARGS} --json "${OUT}"
  OUTPUT_QUIET
  RESULT_VARIABLE Status)
if(NOT Status EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${Status}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${GOLDEN}" "${OUT}"
  RESULT_VARIABLE Differs)
if(NOT Differs EQUAL 0)
  message(FATAL_ERROR "golden mismatch: ${OUT} differs from ${GOLDEN}")
endif()
