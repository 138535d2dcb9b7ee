# Run CMD (a ;-separated command line) and fail unless it exits with exactly
# EXPECT. ctest's WILL_FAIL only checks for "non-zero", which cannot tell a
# clean rejection (exit 2) from a crash or a signal.
#
#   cmake -DCMD="prog;--flag;value" -DEXPECT=2 -P expect_exit.cmake
execute_process(COMMAND ${CMD} RESULT_VARIABLE rc TIMEOUT 20)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${CMD}: exit ${rc}, expected ${EXPECT}")
endif()
