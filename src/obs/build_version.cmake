# Writes OUT as a one-line header defining OSUMAC_GIT_DESCRIBE from
# `git describe` in SOURCE_DIR ("unknown" outside a git checkout).  Runs at
# build time (src/obs/CMakeLists.txt), so a reused build directory stamps
# the revision it is building, not the one it was configured at.  OUT is
# rewritten only when the value changes, so an unchanged revision
# recompiles nothing.
#   cmake -DSOURCE_DIR=<dir> -DOUT=<header> -P build_version.cmake
execute_process(
  COMMAND git describe --always --dirty --tags
  WORKING_DIRECTORY ${SOURCE_DIR}
  OUTPUT_VARIABLE describe
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET
  RESULT_VARIABLE rc
)
if(NOT rc EQUAL 0 OR describe STREQUAL "")
  set(describe "unknown")
endif()
set(text "#define OSUMAC_GIT_DESCRIBE \"${describe}\"\n")
if(EXISTS ${OUT})
  file(READ ${OUT} old)
endif()
if(NOT "${old}" STREQUAL "${text}")
  file(WRITE ${OUT} "${text}")
endif()
