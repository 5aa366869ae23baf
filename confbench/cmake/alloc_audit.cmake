# The library's build invokes ${CMAKE_SOURCE_DIR}/cmake/alloc_audit.cmake;
# inside this package that resolves here, so forward to the real audit.
include("${CMAKE_CURRENT_LIST_DIR}/../../cmake/alloc_audit.cmake")
